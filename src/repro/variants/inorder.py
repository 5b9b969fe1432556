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
from repro.isa.opcodes import PORT_LOAD
from repro.rename.physical import PhysicalRegisterFile
from repro.variants import register


class InOrderReservationStations(ReservationStations):
    """Reservation stations whose select walks strictly in program order.

    ``_waiting`` is insertion-ordered and sequence numbers are allocated
    monotonically at fetch, so iterating it *is* program order; the override
    stops at the first instruction that cannot issue instead of skipping it.
    """

    def select(self, load_can_issue: Callable[[DynInst], bool]
               ) -> List[DynInst]:
        ready = self._ready
        limits = self._limits_by_code
        counts = [0, 0, 0, 0]
        width = self.ports.issue_width
        combined = self.ports.combined_ldst_port
        selected: List[DynInst] = []
        for dyn in self._waiting.values():
            if len(selected) >= width:
                break
            if (dyn.info.sort_bias | dyn.seq) not in ready:
                break
            code = dyn.info.port_code
            if code == PORT_LOAD and not load_can_issue(dyn):
                break
            if combined and code >= PORT_LOAD and counts[2] + counts[3] >= 1:
                break
            if counts[code] >= limits[code]:
                break
            counts[code] += 1
            selected.append(dyn)
        for dyn in selected:
            del self._waiting[dyn.seq]
            del ready[dyn.info.sort_bias | dyn.seq]
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
                                          prf=prf)
