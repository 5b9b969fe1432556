"""Figure 4: impact of general reuse, opcode indexing and speculative memory
bypassing.

Eight experiments per benchmark: the four extension configurations
(``squash``, ``+general``, ``+opcode``, ``+reverse``) each run with a
realistic LISP and with (approximate) oracle mis-integration suppression,
compared against a no-integration baseline.  The top half of the paper's
figure is the speedup over that baseline; the bottom half is the integration
rate with mis-integrations per million retired instructions printed above
each bar.
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
from repro.integration.config import IntegrationConfig, LispMode

#: The four extension configurations, in the paper's bar order.
EXTENSION_CONFIGS = ("squash", "+general", "+opcode", "+reverse")
LISP_MODES = (LispMode.REALISTIC, LispMode.ORACLE)


def integration_config_for(extension: str,
                           lisp: LispMode = LispMode.REALISTIC
                           ) -> IntegrationConfig:
    """Map a Figure 4 bar name to its :class:`IntegrationConfig`."""
    builders = {
        "squash": IntegrationConfig.squash,
        "+general": IntegrationConfig.general,
        "+opcode": IntegrationConfig.opcode,
        "+reverse": IntegrationConfig.full,
    }
    try:
        return builders[extension]().with_lisp(lisp)
    except KeyError:
        raise ValueError(f"unknown extension configuration {extension!r}") from None


def configs() -> Dict[str, MachineConfig]:
    """The no-integration baseline plus every extension under each LISP."""
    machine = MachineConfig()
    matrix = {"baseline": machine.with_integration(IntegrationConfig.disabled())}
    for extension in EXTENSION_CONFIGS:
        for lisp in LISP_MODES:
            matrix[f"{extension}/{lisp.value}"] = machine.with_integration(
                integration_config_for(extension, lisp))
    return matrix


@dataclass
class Figure4Result:
    """All runs behind Figure 4."""

    benchmarks: List[str]
    #: results[label][benchmark]; labels as in :func:`configs`.
    results: Dict[str, Dict[str, SimStats]]

    def speedups(self, extension: str,
                 lisp: str = "realistic") -> Dict[str, float]:
        base = self.results["baseline"]
        runs = self.results[f"{extension}/{lisp}"]
        table = {name: speedup(base[name], runs[name])
                 for name in self.benchmarks}
        table["GMean"] = geometric_mean(table[n] for n in self.benchmarks)
        return table

    def integration_rates(self, extension: str,
                          lisp: str = "realistic") -> Dict[str, float]:
        runs = self.results[f"{extension}/{lisp}"]
        table = {name: runs[name].integration_rate for name in self.benchmarks}
        table["AMean"] = arithmetic_mean(table[n] for n in self.benchmarks)
        return table

    def mean_speedup(self, extension: str, lisp: str = "realistic") -> float:
        return self.speedups(extension, lisp)["GMean"]

    def mean_integration_rate(self, extension: str,
                              lisp: str = "realistic") -> float:
        return self.integration_rates(extension, lisp)["AMean"]

    def reverse_rates(self, lisp: str = "realistic") -> Dict[str, float]:
        runs = self.results[f"+reverse/{lisp}"]
        table = {name: runs[name].reverse_integration_rate
                 for name in self.benchmarks}
        table["AMean"] = arithmetic_mean(table[n] for n in self.benchmarks)
        return table

    def mean_reverse_rate(self, lisp: str = "realistic") -> float:
        return self.reverse_rates(lisp)["AMean"]

    def mis_integrations_per_million(self, extension: str,
                                     lisp: str = "realistic"
                                     ) -> Dict[str, float]:
        runs = self.results[f"{extension}/{lisp}"]
        return {name: runs[name].mis_integrations_per_million
                for name in self.benchmarks}


def tables(result: Figure4Result) -> List[Table]:
    """One speedup/rate table per LISP mode in the result, MEAN row last."""
    out = []
    for lisp in dict.fromkeys(label.partition("/")[2]
                              for label in result.results
                              if label != "baseline"):
        columns = ["benchmark"]
        cells = []
        for extension in EXTENSION_CONFIGS:
            columns += [f"{extension} spd", f"{extension} rate"]
            cells += [result.speedups(extension, lisp),
                      result.integration_rates(extension, lisp)]
        columns.append("+reverse rev.rate")
        cells.append(result.reverse_rates(lisp))
        rows = [[name] + [cell[name] for cell in cells]
                for name in result.benchmarks]
        rows.append(["MEAN"] + [cell.get("GMean", cell.get("AMean"))
                                for cell in cells])
        out.append((f"Figure 4 -- speedup over no-integration baseline and "
                    f"integration rate ({lisp} LISP)", columns, rows))
    return out
