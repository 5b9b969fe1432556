"""Section 3.2 performance diagnostics.

The paper reports two second-order effects of integration on the baseline
machine: mis-predicted-branch resolution latency drops (26 -> 23.5 cycles on
average) because integrating instructions resolve branches earlier and free
execution resources, and the number of fetched instructions drops slightly
(~0.6%) because faster resolution wastes less wrong-path fetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import Table, arithmetic_mean
from repro.core import MachineConfig, SimStats
from repro.integration.config import IntegrationConfig


def configs() -> Dict[str, MachineConfig]:
    machine = MachineConfig()
    return {"none": machine.with_integration(IntegrationConfig.disabled()),
            "integration": machine.with_integration(IntegrationConfig.full())}


@dataclass
class DiagnosticsResult:
    benchmarks: List[str]
    #: results["none"|"integration"][benchmark]
    results: Dict[str, Dict[str, SimStats]]

    def resolution_latency(self) -> Dict[str, float]:
        """Mean mis-predicted-branch resolution latency without/with
        integration."""
        return {
            label: arithmetic_mean(
                self.results[config][n].avg_branch_resolution_latency
                for n in self.benchmarks
                if self.results[config][n].retired_mispredicted_branches)
            for label, config in (("without", "none"),
                                  ("with", "integration"))}

    def fetched_reduction(self) -> float:
        """Mean relative reduction in fetched instructions."""
        without = self.results["none"]
        with_int = self.results["integration"]
        return arithmetic_mean(1.0 - with_int[n].fetched / without[n].fetched
                               for n in self.benchmarks if without[n].fetched)


def tables(result: DiagnosticsResult) -> List[Table]:
    without = result.results["none"]
    with_int = result.results["integration"]
    latency = result.resolution_latency()
    columns = ["benchmark", "w/o integration", "w/ integration"]
    return [
        ("Section 3.2 diagnostics -- mis-predicted-branch resolution "
         "latency (cycles)", columns,
         [[n, without[n].avg_branch_resolution_latency,
           with_int[n].avg_branch_resolution_latency]
          for n in result.benchmarks]),
        ("Section 3.2 diagnostics -- fetched instructions", columns,
         [[n, without[n].fetched, with_int[n].fetched]
          for n in result.benchmarks]),
        ("Section 3.2 diagnostics -- means", ["metric", "value"],
         [["mean resolution latency w/o integration (cycles)",
           latency["without"]],
          ["mean resolution latency w/ integration (cycles)",
           latency["with"]],
          ["mean fetched-instruction reduction (%)",
           100.0 * result.fetched_reduction()]]),
    ]
