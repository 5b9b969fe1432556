"""Figure 7: trading integration for execution-engine complexity.

Four machine organisations -- the 4-way/40-RS baseline (``base``), half the
reservation stations (``RS``), reduced issue width with a single load/store
port (``IW``), and both reductions together (``IW+RS``) -- each simulated
with and without integration.  All speedups are reported relative to the
baseline machine *without* integration, as in the paper.  Section 3.5's
supporting metrics (executed-instruction reduction, executed-load reduction,
reservation-station occupancy) are also collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import (
    Table,
    arithmetic_mean,
    geometric_mean,
    speedup,
)
from repro.core import MachineConfig, SimStats
from repro.integration.config import IntegrationConfig

MACHINE_VARIANTS = ("base", "RS", "IW", "IW+RS")
INTEGRATION_CONFIGS = {
    "none": IntegrationConfig.disabled(),
    "integration": IntegrationConfig.full(),
}


def machine_variant(base: MachineConfig, variant: str) -> MachineConfig:
    """Build one of the paper's reduced-complexity machine organisations."""
    if variant == "base":
        return base
    if variant == "RS":
        return base.reduced_rs(20)
    if variant == "IW":
        return base.reduced_issue_width()
    if variant == "IW+RS":
        return base.reduced_both(20)
    raise ValueError(f"unknown machine variant {variant!r}")


def configs() -> Dict[str, MachineConfig]:
    """Every machine organisation without and with integration."""
    machine = MachineConfig()
    return {f"{variant}/{int_name}":
            machine_variant(machine, variant).with_integration(icfg)
            for variant in MACHINE_VARIANTS
            for int_name, icfg in INTEGRATION_CONFIGS.items()}


@dataclass
class Figure7Result:
    benchmarks: List[str]
    #: results["<machine>/<none|integration>"][benchmark]
    results: Dict[str, Dict[str, SimStats]]

    def speedups(self, variant: str, integration: str) -> Dict[str, float]:
        base = self.results["base/none"]
        runs = self.results[f"{variant}/{integration}"]
        table = {name: speedup(base[name], runs[name])
                 for name in self.benchmarks}
        table["GMean"] = geometric_mean(table[n] for n in self.benchmarks)
        return table

    def mean_speedup(self, variant: str, integration: str) -> float:
        return self.speedups(variant, integration)["GMean"]

    def _reduction(self, counter: str) -> float:
        """Mean relative drop of ``counter`` that integration brings on the
        baseline machine (benchmarks where it is zero are skipped)."""
        without = self.results["base/none"]
        with_int = self.results["base/integration"]
        return arithmetic_mean(
            1.0 - getattr(with_int[n], counter) / getattr(without[n], counter)
            for n in self.benchmarks if getattr(without[n], counter))

    def executed_reduction(self) -> float:
        """Mean reduction in executed (issued) instructions due to
        integration on the baseline machine."""
        return self._reduction("issued")

    def load_reduction(self) -> float:
        return self._reduction("executed_loads")

    def rs_occupancy(self, integration: str) -> float:
        runs = self.results[f"base/{integration}"]
        return arithmetic_mean(runs[n].avg_rs_occupancy
                               for n in self.benchmarks)


def tables(result: Figure7Result) -> List[Table]:
    return [
        ("Figure 7 -- reduced-complexity execution engines "
         "(speedups vs. base machine without integration)",
         ["machine", "speedup w/o integration", "speedup w/ integration"],
         [[variant, result.mean_speedup(variant, "none"),
           result.mean_speedup(variant, "integration")]
          for variant in MACHINE_VARIANTS]),
        ("Figure 7 -- execution stream on the base machine",
         ["metric", "value"],
         [["executed-instruction reduction from integration (%)",
           100.0 * result.executed_reduction()],
          ["executed-load reduction from integration (%)",
           100.0 * result.load_reduction()],
          ["mean RS occupancy w/o integration", result.rs_occupancy("none")],
          ["mean RS occupancy w/ integration",
           result.rs_occupancy("integration")]]),
    ]
