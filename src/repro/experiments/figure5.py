"""Figure 5: breakdowns of the integration retirement stream.

The paper plots four breakdowns over every other benchmark with the baseline
integration configuration (1K-entry, 4-way IT, realistic LISP): instruction
type, integration distance, result status at integration time, and reference
count at integration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis import breakdowns
from repro.analysis.metrics import Table
from repro.core import MachineConfig, SimStats
from repro.integration.config import IntegrationConfig


def configs() -> Dict[str, MachineConfig]:
    return {"full": MachineConfig().with_integration(IntegrationConfig.full())}


@dataclass
class Figure5Result:
    benchmarks: List[str]
    #: results["full"][benchmark]
    results: Dict[str, Dict[str, SimStats]]

    @property
    def stats(self) -> Dict[str, SimStats]:
        return self.results["full"]

    def type_breakdowns(self) -> Dict[str, Dict[str, float]]:
        return {name: breakdowns.type_breakdown(s)
                for name, s in self.stats.items()}


def _per_benchmark(result: Figure5Result, title: str, breakdown,
                   label=str) -> Table:
    """One breakdown as a table: a row per benchmark, a column per key."""
    values = {name: breakdown(result.stats[name])
              for name in result.benchmarks}
    keys = list(dict.fromkeys(key for name in result.benchmarks
                              for key in values[name]))
    if all(isinstance(key, int) for key in keys):
        keys.sort()         # distance buckets and reference counts
    return (title, ["benchmark"] + [label(key) for key in keys],
            [[name] + [values[name].get(key) for key in keys]
             for name in result.benchmarks])


def tables(result: Figure5Result) -> List[Table]:
    stats = result.stats
    rates = ("Figure 5 -- integration rate", ["benchmark", "rate", "direct",
                                              "reverse"],
             [[name, stats[name].integration_rate,
               stats[name].direct_integration_rate,
               stats[name].reverse_integration_rate]
              for name in result.benchmarks])
    return [
        rates,
        _per_benchmark(result, "Figure 5 -- integrations by instruction type",
                       breakdowns.type_breakdown),
        _per_benchmark(result, "Figure 5 -- integration rate within each "
                       "instruction type",
                       breakdowns.per_type_integration_rates),
        _per_benchmark(result, "Figure 5 -- integrations by distance "
                       "(cumulative)", breakdowns.distance_breakdown,
                       label=lambda bucket: f"<= {bucket}"),
        _per_benchmark(result, "Figure 5 -- integrations by result status",
                       breakdowns.status_breakdown),
        _per_benchmark(result, "Figure 5 -- integrations by reference count",
                       breakdowns.refcount_breakdown,
                       label=lambda count: f"rc={count}"),
    ]
