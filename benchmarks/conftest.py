"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
synthetic SPEC-like suite.  To keep wall-clock time reasonable it uses the
three-benchmark smoke set at a reduced workload scale.
"""

import pytest

from repro.experiments import figure4
from repro.experiments.runner import SMOKE_BENCHMARKS, run_suite
from repro.integration.config import LispMode

#: Workload scale factor the figure benchmarks simulate at.
BENCH_SCALE = 0.3


@pytest.fixture(scope="session")
def suite():
    """The benchmark names and scale used throughout the harness."""
    return {"benchmarks": list(SMOKE_BENCHMARKS), "scale": BENCH_SCALE}


@pytest.fixture(scope="session")
def run_figure(suite):
    """``run_figure(ResultClass, configs)``: one figure's result over the
    harness suite, for all or part of its ``configs()`` matrix."""
    def run(result_class, configs):
        return result_class(suite["benchmarks"], run_suite(
            suite["benchmarks"], configs, scale=suite["scale"]))
    return run


@pytest.fixture(scope="session")
def fig4_result(run_figure):
    """Figure 4 with the realistic LISP only -- the bars the paper-shape
    checks read."""
    return run_figure(figure4.Figure4Result, {
        label: config for label, config in figure4.configs().items()
        if config.integration.lisp_mode is not LispMode.ORACLE})
