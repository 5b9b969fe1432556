"""Design-choice ablations beyond the paper's figures (see DESIGN.md §5).

These isolate the mechanisms the paper argues for qualitatively:

* generation-counter width (0/2/4 bits) -- register mis-integration control;
* reference-counter width (1/2/4 bits) -- sharing-degree saturation;
* LISP off / realistic / oracle -- load mis-integration control;
* reverse entries on/off at fixed indexing -- the isolated value of
  extension 3;
* PC vs opcode+imm vs opcode+imm+call-depth indexing at fixed everything
  else -- the isolated value of extension 2's call-depth mixing (PC
  indexing creates no reverse entries, so its bar also lacks extension 3
  and is Figure 4's ``+general`` configuration, one simulation for both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import Table, arithmetic_mean
from repro.core import MachineConfig, SimStats
from repro.integration.config import IndexScheme, IntegrationConfig, LispMode


#: The named ablation points.
ABLATIONS = {
    "full (4b gen, 4b rc)": IntegrationConfig.full(),
    "gen counters 0b": IntegrationConfig.full(generation_bits=0),
    "gen counters 2b": IntegrationConfig.full(generation_bits=2),
    "refcount 1b": IntegrationConfig.full(refcount_bits=1),
    "refcount 2b": IntegrationConfig.full(refcount_bits=2),
    "lisp off": IntegrationConfig.full(lisp_mode=LispMode.OFF),
    "lisp oracle": IntegrationConfig.full(lisp_mode=LispMode.ORACLE),
    "no reverse entries": IntegrationConfig.full(reverse=False),
    "reverse all stores": IntegrationConfig.full(reverse_sp_only=False),
    "pc indexing": IntegrationConfig.full(index_scheme=IndexScheme.PC),
    "opcode+imm indexing": IntegrationConfig.full(
        index_scheme=IndexScheme.OPCODE_IMM),
}


def configs() -> Dict[str, MachineConfig]:
    """Every ablation point on the baseline machine."""
    machine = MachineConfig()
    return {label: machine.with_integration(icfg)
            for label, icfg in ABLATIONS.items()}


@dataclass
class AblationResult:
    benchmarks: List[str]
    # results[ablation_label][benchmark]
    results: Dict[str, Dict[str, SimStats]]

    def _mean(self, label: str, metric: str) -> float:
        runs = self.results[label]
        return arithmetic_mean(getattr(runs[n], metric)
                               for n in self.benchmarks)

    def mean_integration_rate(self, label: str) -> float:
        return self._mean(label, "integration_rate")

    def mean_mis_integrations_per_million(self, label: str) -> float:
        return self._mean(label, "mis_integrations_per_million")

    def mean_register_mis_integrations(self, label: str) -> float:
        return self._mean(label, "register_mis_integrations")


def tables(result: AblationResult) -> List[Table]:
    return [("Design-choice ablations",
             ["ablation", "mean integration rate", "mis-integrations/M",
              "register mis-integrations"],
             [[label, result.mean_integration_rate(label),
               result.mean_mis_integrations_per_million(label),
               result.mean_register_mis_integrations(label)]
              for label in result.results])]
