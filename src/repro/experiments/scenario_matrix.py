"""The (benchmark x machine-variant) scenario matrix.

Every registered machine variant (see :mod:`repro.variants`) is run over a
benchmark set on the shared :func:`~repro.experiments.runner.run_suite`
pool; its tables show each variant's IPC and integration rate next to its
delta against the ``baseline`` variant, which is how the differential claims
of the paper (integration speedup, CHT filtering value, in-order gap,
control-speculation cost) are quantified in one table.

Because the variant name is part of every configuration fingerprint, the
whole matrix is content-addressed: a warm rerun performs zero simulations,
and with ``shards > 1`` the checkpoint plans -- which are variant- and
config-independent -- are built once per benchmark and shared by the whole
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import Table, arithmetic_mean
from repro.core import MachineConfig, SimStats
from repro.variants import DEFAULT_VARIANT, variant_names


def configs() -> Dict[str, MachineConfig]:
    """The baseline machine retargeted at every registered variant."""
    machine = MachineConfig()
    return {name: machine.with_variant(name) for name in variant_names()}


@dataclass
class ScenarioMatrixResult:
    """All runs of one (benchmark x variant) sweep."""

    benchmarks: List[str]
    #: results[variant][benchmark] -> SimStats
    results: Dict[str, Dict[str, SimStats]]

    @property
    def variants(self) -> List[str]:
        return list(self.results)

    # ------------------------------------------------------------------
    def ipc(self, variant: str) -> Dict[str, float]:
        return {name: self.results[variant][name].ipc
                for name in self.benchmarks}

    def mean_ipc(self, variant: str) -> float:
        return arithmetic_mean(self.ipc(variant).values())

    def ipc_delta(self, variant: str) -> Optional[float]:
        """Mean relative IPC delta of ``variant`` against the baseline
        variant (None when the baseline is not part of the sweep)."""
        if DEFAULT_VARIANT not in self.results:
            return None
        base = self.mean_ipc(DEFAULT_VARIANT)
        if not base:
            return None
        return self.mean_ipc(variant) / base - 1.0

    def mean_integration_rate(self, variant: str) -> float:
        return arithmetic_mean(self.results[variant][n].integration_rate
                               for n in self.benchmarks)

    def integration_rate_delta(self, variant: str) -> Optional[float]:
        if DEFAULT_VARIANT not in self.results:
            return None
        return (self.mean_integration_rate(variant)
                - self.mean_integration_rate(DEFAULT_VARIANT))

    def mean_misprediction_rate(self, variant: str) -> float:
        return arithmetic_mean(
            self.results[variant][n].branch_misprediction_rate
            for n in self.benchmarks)

    def mean_violations(self, variant: str) -> float:
        return arithmetic_mean(
            float(self.results[variant][n].memory_order_violations)
            for n in self.benchmarks)


def tables(result: ScenarioMatrixResult) -> List[Table]:
    """Per-variant summary with deltas against the baseline, then the
    per-benchmark IPC of every variant."""
    rows = []
    for variant in result.variants:
        ipc_delta = result.ipc_delta(variant)
        rate_delta = result.integration_rate_delta(variant)
        rows.append([
            variant,
            round(result.mean_ipc(variant), 3),
            "--" if ipc_delta is None else f"{100.0 * ipc_delta:+.1f}",
            round(result.mean_integration_rate(variant), 3),
            "--" if rate_delta is None else f"{rate_delta:+.3f}",
            round(result.mean_misprediction_rate(variant), 4),
            round(result.mean_violations(variant), 1),
        ])
    return [
        (f"Scenario matrix -- {len(result.variants)} variants x "
         f"{len(result.benchmarks)} benchmarks (deltas vs {DEFAULT_VARIANT})",
         ["variant", "IPC", "dIPC%", "int.rate", "d rate", "mispred",
          "violations"], rows),
        ("Per-benchmark IPC", ["benchmark"] + result.variants,
         [[name] + [round(result.results[variant][name].ipc, 3)
                    for variant in result.variants]
          for name in result.benchmarks]),
    ]
