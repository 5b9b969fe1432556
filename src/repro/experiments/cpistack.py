"""Where the cycles go: per-benchmark CPI stall stacks.

Every simulated cycle is blamed on exactly one bucket by
:func:`repro.obs.cpi.classify_stall` (retired work, front-end supply,
rename stall, operand wait, memory, integration replay, squash
recovery).  This experiment runs the benchmark set without and with
register integration and reports each bucket's *CPI contribution* --
bucket cycles divided by retired instructions -- so the two stacks are
directly comparable even though the runs take different cycle counts.

That decomposition is how the paper's speedup is localized: register
integration shrinks the squash-recovery share (squashed work is
reacquired by renaming instead of re-execution) rather than uniformly
scaling the machine.  Like every figure, its matrix runs through the
content-addressed :func:`~repro.experiments.runner.run_suite` pool, so a
warm rerun performs zero simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import Table
from repro.core import MachineConfig, SimStats
from repro.integration.config import IntegrationConfig
from repro.obs.cpi import CPI_BUCKETS

def configs() -> Dict[str, MachineConfig]:
    machine = MachineConfig()
    return {"none": machine.with_integration(IntegrationConfig.disabled()),
            "integration": machine.with_integration(IntegrationConfig.full())}


@dataclass
class CpiStackResult:
    """CPI stacks for every (benchmark x integration on/off) run."""

    benchmarks: List[str]
    #: results["none"|"integration"][benchmark] -> SimStats
    results: Dict[str, Dict[str, SimStats]]

    # ------------------------------------------------------------------
    def stack(self, config: str, benchmark: str) -> Dict[str, float]:
        """Per-bucket CPI contribution (bucket cycles / retired)."""
        stats = self.results[config][benchmark]
        retired = max(1, stats.retired)
        return {bucket: stats.cpi_stack.get(bucket, 0) / retired
                for bucket in CPI_BUCKETS}

    def cpi(self, config: str, benchmark: str) -> float:
        stats = self.results[config][benchmark]
        return stats.cycles / max(1, stats.retired)

    def recovery_share(self, config: str, benchmark: str) -> float:
        """Fraction of cycles blamed on speculation repair (squash
        recovery + integration replay) -- the share integration targets."""
        stats = self.results[config][benchmark]
        repair = (stats.cpi_stack.get("squash_recovery", 0)
                  + stats.cpi_stack.get("integration_replay", 0))
        return repair / max(1, stats.cycles)


def tables(result: CpiStackResult) -> List[Table]:
    """One row per (benchmark, config): total CPI and every bucket's
    contribution, with the speculation-repair share called out."""
    rows = [[name, config, round(result.cpi(config, name), 3)]
            + [round(value, 3)
               for value in result.stack(config, name).values()]
            + [round(100.0 * result.recovery_share(config, name), 1)]
            for name in result.benchmarks for config in result.results]
    return [("CPI stall stacks -- per-bucket CPI contribution "
             "(cycles in bucket / retired)",
             ["benchmark", "config", "CPI", *CPI_BUCKETS, "repair%"], rows)]
