"""Figure 5: breakdowns of the integration retirement stream.

The paper plots four breakdowns over every other benchmark with the baseline
integration configuration (1K-entry, 4-way IT, realistic LISP): instruction
type, integration distance, result status at integration time, and reference
count at integration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis import breakdowns
from repro.core import MachineConfig, SimStats
from repro.experiments.runner import FAST_BENCHMARKS, run_suite
from repro.integration.config import IntegrationConfig


@dataclass
class Figure5Result:
    benchmarks: List[str]
    stats: Dict[str, SimStats]

    def type_breakdowns(self) -> Dict[str, Dict[str, float]]:
        return {name: breakdowns.type_breakdown(s)
                for name, s in self.stats.items()}


def run(benchmarks: Optional[Iterable[str]] = None,
        scale: Optional[float] = None,
        machine: Optional[MachineConfig] = None,
        jobs: Optional[int] = None,
        variant: Optional[str] = None) -> Figure5Result:
    """Run the breakdown experiment (full integration configuration)."""
    benchmarks = list(benchmarks or FAST_BENCHMARKS)
    machine = machine or MachineConfig()
    cfg = machine.with_integration(IntegrationConfig.full())
    suite = run_suite(benchmarks, {"full": cfg}, scale=scale, jobs=jobs,
                      variant=variant)
    return Figure5Result(benchmarks=benchmarks, stats=suite["full"])


def report(result: Figure5Result) -> str:
    """Per-benchmark textual rendering of all four breakdowns."""
    sections = [breakdowns.full_breakdown_report(result.stats[name])
                for name in result.benchmarks]
    return ("Figure 5 -- integration retirement stream breakdowns\n\n"
            + "\n\n".join(sections))
