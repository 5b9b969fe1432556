"""Reservation stations and the issue (select) stage.

The scheduler buffers renamed, non-integrated instructions until their
source physical registers are ready and an issue port of the right class is
free.  Selection follows the paper: loads, branches and floating-point
operations have priority, with instruction age as the tie-breaker, subject
to the per-class port limits and the total issue width.

Operand readiness is tracked by events, not by scanning: the scheduler is
bound to a physical register file (it wires ``prf.on_ready -> wakeup``
itself), every inserted instruction counts its not-yet-ready sources once,
registers itself as a watcher of those registers, and moves to the ready
pool when the last wakeup arrives.  ``select`` then considers only the
ready pool instead of re-evaluating the operands of every waiting
instruction every cycle.

Per-entry state lives on the :class:`~repro.isa.instruction.DynInst`
itself: insert copies nothing, the pending-source count is
``dyn.rs_pending``, watchers hold the instructions, and the ready pool is
keyed by the selection key ``info.sort_bias | seq``, so ``select`` walks
the sorted keys in (priority, age) order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import IssuePortConfig
from repro.isa.instruction import DynInst
from repro.isa.opcodes import PORT_LOAD
from repro.rename.physical import PhysicalRegisterFile

__all__ = ["ReservationStations", "IssuePortConfig"]

# The issue-port classification ("load"/"store"/"complex"/"simple") and the
# selection priority (loads, branches, FP and indirect control first) are
# per-opcode constants precomputed as ``OpInfo.issue_port`` /
# ``OpInfo.port_code`` / ``OpInfo.issue_priority`` (see repro.isa.opcodes).


class ReservationStations:
    """A pool of reservation stations with port-constrained selection."""

    def __init__(self, entries: int, ports: Optional[IssuePortConfig] = None,
                 *, prf: PhysicalRegisterFile):
        self.entries = entries
        self.ports = ports or IssuePortConfig()
        #: Port limits indexed by ``OpInfo.port_code``.
        self._limits_by_code = [self.ports.simple_int, self.ports.complex_fp,
                                self.ports.loads, self.ports.stores]
        self._width = self.ports.issue_width
        self._combined = self.ports.combined_ldst_port
        #: seq -> waiting instruction (insertion order = age order).
        self._waiting: Dict[int, DynInst] = {}
        # Event-driven readiness tracking: the PRF wakes the scheduler.
        self._prf = prf
        prf.on_ready = self.wakeup
        #: ``info.sort_bias | seq`` -> instruction whose operands are all
        #: ready; sorting the keys gives the (priority, age) select order.
        self._ready: Dict[int, DynInst] = {}
        #: preg -> instructions waiting on it (may hold stale watchers that
        #: already issued or squashed; they are skipped on wakeup via the
        #: ``_waiting`` membership test).
        self._watchers: Dict[int, List[DynInst]] = {}

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._waiting)

    def has_space(self, count: int = 1) -> bool:
        return len(self._waiting) + count <= self.entries

    def insert(self, dyn: DynInst) -> None:
        waiting = self._waiting
        if len(waiting) >= self.entries:
            raise RuntimeError("reservation station overflow")
        seq = dyn.seq
        waiting[seq] = dyn
        ready = self._prf.ready
        pending = 0
        for preg in dyn.src_pregs:
            if not ready[preg]:
                pending += 1
                self._watchers.setdefault(preg, []).append(dyn)
        dyn.rs_pending = pending
        if not pending:
            self._ready[dyn.info.sort_bias | seq] = dyn

    def wakeup(self, preg: int) -> None:
        """A physical register became ready: promote its watchers.

        Wired to :attr:`PhysicalRegisterFile.on_ready` by the constructor.
        Duplicate sources register (and wake) once per occurrence, so the
        pending count stays balanced.
        """
        watchers = self._watchers.pop(preg, None)
        if not watchers:
            return
        waiting = self._waiting
        ready = self._ready
        for dyn in watchers:
            if dyn.seq in waiting:
                left = dyn.rs_pending - 1
                dyn.rs_pending = left
                if left == 0:
                    ready[dyn.info.sort_bias | dyn.seq] = dyn

    def squash(self, squashed_seqs: set) -> int:
        """Drop entries belonging to squashed instructions; returns count."""
        waiting = self._waiting
        ready = self._ready
        doomed = [seq for seq in waiting if seq in squashed_seqs]
        for seq in doomed:
            dyn = waiting.pop(seq)
            ready.pop(dyn.info.sort_bias | seq, None)
        return len(doomed)

    # ------------------------------------------------------------------
    def select(self, load_can_issue: Callable[[DynInst], bool]
               ) -> List[DynInst]:
        """Pick this cycle's issue group from the ready pool.

        ``load_can_issue`` applies the additional memory-ordering constraint
        (the collision history table).  Selected instructions are removed
        from the pool.
        """
        ready = self._ready
        if not ready:
            return []
        waiting = self._waiting
        limits = self._limits_by_code
        counts = [0, 0, 0, 0]
        width = self._width
        combined = self._combined
        selected: List[DynInst] = []
        for key in sorted(ready):
            dyn = ready[key]
            code = dyn.info.port_code
            if code == PORT_LOAD and not load_can_issue(dyn):
                continue
            if combined and code >= PORT_LOAD:
                if counts[2] + counts[3] >= 1:
                    continue
            if counts[code] >= limits[code]:
                continue
            counts[code] += 1
            del ready[key]
            del waiting[dyn.seq]
            selected.append(dyn)
            if len(selected) >= width:
                break
        return selected
