"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
synthetic SPEC-like suite.  To keep wall-clock time reasonable it uses the
three-benchmark smoke set at a reduced workload scale.
"""

import pytest

from repro.experiments.runner import SMOKE_BENCHMARKS

#: Workload scale factor the figure benchmarks simulate at.
BENCH_SCALE = 0.3


@pytest.fixture(scope="session")
def suite():
    """The benchmark names and scale used throughout the harness."""
    return {"benchmarks": list(SMOKE_BENCHMARKS), "scale": BENCH_SCALE}
