"""Figure 6: impact of integration-table associativity and size.

Left: 1-way, 2-way, 4-way and fully associative 1K-entry ITs (with 1K
physical registers).  Right: fully associative, LRU-managed ITs of 64, 256,
1K and 4K entries (the 4K configuration also gets 4K physical registers, as
in the paper).  Both halves run with a realistic LISP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import Table, geometric_mean, speedup
from repro.core import MachineConfig, SimStats
from repro.integration.config import IntegrationConfig

ASSOCIATIVITIES = (1, 2, 4, 0)          # 0 = fully associative
SIZES = (64, 256, 1024, 4096)


def _assoc_label(assoc: int) -> str:
    return "full" if assoc == 0 else f"{assoc}-way"


def configs() -> Dict[str, MachineConfig]:
    machine = MachineConfig()
    matrix = {"baseline": machine.with_integration(IntegrationConfig.disabled())}
    for assoc in ASSOCIATIVITIES:
        matrix[f"assoc/{_assoc_label(assoc)}"] = machine.with_integration(
            IntegrationConfig.full(it_assoc=assoc))
    for size in SIZES:
        matrix[f"size/{size}"] = machine.with_integration(
            IntegrationConfig.full(it_entries=size, it_assoc=0,
                                   num_physical_regs=max(1024, size)))
    return matrix


@dataclass
class Figure6Result:
    benchmarks: List[str]
    #: results[label][benchmark]; labels as in :func:`configs`.
    results: Dict[str, Dict[str, SimStats]]

    def _sweep(self, prefix: str) -> Dict[str, Dict[str, SimStats]]:
        return {label[len(prefix):]: runs
                for label, runs in self.results.items()
                if label.startswith(prefix)}

    @property
    def assoc_results(self) -> Dict[str, Dict[str, SimStats]]:
        return self._sweep("assoc/")

    @property
    def size_results(self) -> Dict[int, Dict[str, SimStats]]:
        return {int(size): runs for size, runs in self._sweep("size/").items()}

    def _mean_speedup(self, runs: Dict[str, SimStats]) -> float:
        return geometric_mean(speedup(self.results["baseline"][n], runs[n])
                              for n in self.benchmarks)

    def assoc_speedups(self) -> Dict[str, float]:
        return {label: self._mean_speedup(runs)
                for label, runs in self.assoc_results.items()}

    def size_speedups(self) -> Dict[int, float]:
        return {size: self._mean_speedup(runs)
                for size, runs in self.size_results.items()}

    def assoc_integration_rates(self) -> Dict[str, float]:
        return {label: sum(r.integration_rate for r in runs.values())
                / len(runs)
                for label, runs in self.assoc_results.items()}

    def size_integration_rates(self) -> Dict[int, float]:
        return {size: sum(r.integration_rate for r in runs.values())
                / len(runs)
                for size, runs in self.size_results.items()}


def tables(result: Figure6Result) -> List[Table]:
    columns = ["mean speedup", "mean integration rate"]
    assoc_rates = result.assoc_integration_rates()
    size_rates = result.size_integration_rates()
    return [
        ("Figure 6 (left) -- IT associativity (1K entries)",
         ["IT organisation"] + columns,
         [[label, spd, assoc_rates[label]]
          for label, spd in result.assoc_speedups().items()]),
        ("Figure 6 (right) -- IT size (fully associative)",
         ["IT entries"] + columns,
         [[size, spd, size_rates[size]]
          for size, spd in result.size_speedups().items()]),
    ]
