"""The ``inorder-issue`` variant: program-order select in the scheduler.

The reservation-station pool, the wakeup events, the port limits and the
whole downstream pipeline are untouched; only the *select* policy changes:
instructions issue strictly in program order, and the first one that cannot
issue this cycle (operands not ready, memory-ordering constraint, port
exhausted) stalls everything younger behind it.  The variant bounds how much
of the machine's performance comes from out-of-order selection as opposed to
renaming, speculation and the memory system.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.core.scheduler import ReservationStations
from repro.isa.instruction import DynInst
from repro.rename.physical import PhysicalRegisterFile
from repro.variants import register


class InOrderReservationStations(ReservationStations):
    """Reservation stations whose select walks strictly in program order.

    ``_waiting`` is insertion-ordered and sequence numbers are allocated
    monotonically at fetch, so iterating it *is* program order; the override
    stops at the first instruction that cannot issue instead of skipping it.
    """

    def select(self, operand_ready: Callable[[DynInst], bool],
               load_can_issue: Callable[[DynInst], bool]) -> List[DynInst]:
        ports = self.ports
        limits = self._limits
        ready_pool = self._ready if self._prf is not None else None
        selected: List[DynInst] = []
        counts = {"simple": 0, "complex": 0, "load": 0, "store": 0}
        for dyn in self._waiting.values():
            if len(selected) >= ports.issue_width:
                break
            if ready_pool is not None:
                if (dyn.info.sort_bias | dyn.seq) not in ready_pool:
                    break
            elif not operand_ready(dyn):
                break
            port = dyn.info.issue_port
            if port == "load" and not load_can_issue(dyn):
                break
            if (self.combined_ldst_port and port in ("load", "store")
                    and counts["load"] + counts["store"] >= 1):
                break
            if counts[port] >= limits[port]:
                break
            counts[port] += 1
            selected.append(dyn)
        for dyn in selected:
            del self._waiting[dyn.seq]
            self._ready.pop(dyn.info.sort_bias | dyn.seq, None)
        return selected


@register
class InOrderIssueVariant(MachineBuilder):
    """Program-order issue on the otherwise unchanged machine."""

    name = "inorder-issue"
    description = ("scheduler selects strictly in program order: the first "
                   "stalled instruction blocks everything younger")

    def build_scheduler(self, config: MachineConfig,
                        prf: PhysicalRegisterFile) -> ReservationStations:
        return InOrderReservationStations(config.rs_entries, config.ports,
                                          config.combined_ldst_port, prf=prf)
