"""The figure plan: one :func:`~repro.experiments.runner.run_suite` call
per ``repro figures`` run.

Every figure module is data: ``configs()`` is its matrix of named
:class:`~repro.core.MachineConfig`\\ s, its result class wraps its slice of
the flat ``suite[label][benchmark]`` and ``tables(result)`` reduces that
to :data:`~repro.analysis.metrics.Table`\\ s.  :func:`run` prefixes every
figure's labels with the figure name, runs the union of the requested
matrices in a single ``run_suite`` call -- identical configs from
different figures collapse to one content key in ``plan_suite``, so one
schedule, one pool and one drain serve every figure -- and hands each
figure its own cells back.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.analysis.metrics import Table, format_table
from repro.core import MachineConfig
from repro.experiments import (ablations, cpistack, diagnostics, figure4,
                               figure5, figure6, figure7, scenario_matrix)
from repro.experiments.runner import apply_variant, run_suite


class Figure(NamedTuple):
    configs: Callable[[], Dict[str, MachineConfig]]
    result: type
    tables: Callable[[object], List[Table]]


#: Figure name (as ``repro figures --figures`` spells it) -> its plan.
FIGURES = {
    "4": Figure(figure4.configs, figure4.Figure4Result, figure4.tables),
    "5": Figure(figure5.configs, figure5.Figure5Result, figure5.tables),
    "6": Figure(figure6.configs, figure6.Figure6Result, figure6.tables),
    "7": Figure(figure7.configs, figure7.Figure7Result, figure7.tables),
    "diagnostics": Figure(diagnostics.configs, diagnostics.DiagnosticsResult,
                          diagnostics.tables),
    "ablations": Figure(ablations.configs, ablations.AblationResult,
                        ablations.tables),
    "scenarios": Figure(scenario_matrix.configs,
                        scenario_matrix.ScenarioMatrixResult,
                        scenario_matrix.tables),
    "cpistack": Figure(cpistack.configs, cpistack.CpiStackResult,
                       cpistack.tables),
}

DEFAULT_FIGURES = ("4", "5", "6", "7")

#: Figures whose matrix sweeps the machine variants itself, so ``variant``
#: does not retarget them.
SWEEPS_VARIANTS = frozenset({"scenarios"})


def run(names: Iterable[str], benchmarks: Iterable[str], *,
        scale: Optional[float] = None, jobs: Optional[int] = None,
        shards: Optional[int] = None, backend: Optional[object] = None,
        variant: Optional[str] = None,
        use_cache: bool = True) -> Dict[str, object]:
    """Run the named figures as one suite; returns ``{name: result}``."""
    names = list(names)
    benchmarks = list(benchmarks)
    configs: Dict[str, MachineConfig] = {}
    for name in names:
        matrix = FIGURES[name].configs()
        if name not in SWEEPS_VARIANTS:
            matrix = apply_variant(matrix, variant)
        configs.update((f"{name}/{label}", config)
                       for label, config in matrix.items())
    suite = run_suite(benchmarks, configs, scale=scale, jobs=jobs,
                      use_cache=use_cache, shards=shards, backend=backend)
    results = {}
    for name in names:
        prefix = f"{name}/"
        own = {label[len(prefix):]: cells for label, cells in suite.items()
               if label.startswith(prefix)}
        results[name] = FIGURES[name].result(benchmarks, own)
    return results


def report(name: str, result: object) -> str:
    """Every table of figure ``name``, rendered as text."""
    return "\n\n".join(format_table(*table)
                       for table in FIGURES[name].tables(result))
