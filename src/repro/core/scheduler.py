"""Reservation stations and the issue (select) stage.

The scheduler buffers renamed, non-integrated instructions until their
source physical registers are ready and an issue port of the right class is
free.  Selection follows the paper: loads, branches and floating-point
operations have priority, with instruction age as the tie-breaker, subject
to the per-class port limits and the total issue width.

Operand readiness is tracked by events, not by scanning: when the scheduler
is bound to a physical register file (the pipeline wires
``prf.on_ready -> rs.wakeup``), every inserted instruction counts its
not-yet-ready sources once, registers itself as a watcher of those
registers, and moves to the ready pool when the last wakeup arrives.
``select`` then considers only the ready pool instead of re-evaluating the
operands of every waiting instruction every cycle.  Without a bound PRF
(unit tests, external harnesses) ``select`` falls back to probing the
``operand_ready`` callback for each waiting instruction.

Per-entry state lives in the shared structure-of-arrays
:class:`~repro.core.window.Window`: insert writes the issue port/priority
codes, source registers and pending count into flat arrays, wakeup
decrements a list slot, and select sorts precomputed integer keys --
the inner loops never read ``DynInst`` attributes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import kernel
from repro.core.config import IssuePortConfig
from repro.core.window import PORT_LOAD, SEQ_MASK, Window
from repro.isa.instruction import DynInst

__all__ = ["ReservationStations", "IssuePortConfig"]

# The issue-port classification ("load"/"store"/"complex"/"simple") and the
# selection priority (loads, branches, FP and indirect control first) are
# per-opcode constants precomputed as ``OpInfo.issue_port`` /
# ``OpInfo.port_code`` / ``OpInfo.issue_priority`` (see repro.isa.opcodes).


def _age_priority_key(dyn: DynInst):
    return (dyn.info.issue_priority, dyn.seq)


class ReservationStations:
    """A pool of reservation stations with port-constrained selection."""

    def __init__(self, entries: int, ports: Optional[IssuePortConfig] = None,
                 combined_ldst_port: bool = False, prf=None,
                 window: Optional[Window] = None):
        self.entries = entries
        self.ports = ports or IssuePortConfig()
        self.combined_ldst_port = combined_ldst_port
        self._limits = {"simple": self.ports.simple_int,
                        "complex": self.ports.complex_fp,
                        "load": self.ports.loads,
                        "store": self.ports.stores}
        #: Port limits indexed by ``OpInfo.port_code``.
        self._limits_by_code = [self.ports.simple_int, self.ports.complex_fp,
                                self.ports.loads, self.ports.stores]
        #: Shared (or private, when standalone) structure-of-arrays state.
        self.window = window if window is not None else Window()
        #: seq -> waiting instruction (insertion order = age order).
        self._waiting: Dict[int, DynInst] = {}
        # Event-driven readiness tracking (active when a PRF is bound).
        self._prf = prf
        #: seq -> instruction whose operands are all ready.
        self._ready: Dict[int, DynInst] = {}
        #: preg -> seqs waiting on it (may hold stale watchers for
        #: instructions that already issued or squashed; they are skipped
        #: on wakeup via the ``_waiting`` membership test).
        self._watchers: Dict[int, List[int]] = {}
        # Optional compiled inner loops (REPRO_KERNEL=compiled); both are
        # bit-identical reimplementations of the Python paths below.
        self._kernel_select = self._kernel_wakeup = None
        backend, module = kernel.select_backend()
        if backend == "compiled":
            self._kernel_select = module.select_ready
            self._kernel_wakeup = module.wakeup

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._waiting)

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
        win = self.window
        if waiting and seq - next(iter(waiting)) > win.mask:
            # Two live entries may never share a ring slot; the window is
            # sized so this cannot happen in practice (see Window docs).
            raise RuntimeError("window ring aliasing in reservation stations")
        waiting[seq] = dyn
        info = dyn.info
        slot = seq & win.mask
        win.kind[slot] = info.kind_code
        win.port[slot] = info.port_code
        win.sort_key[slot] = info.sort_bias | seq
        srcs = dyn.src_pregs
        nsrc = len(srcs)
        win.nsrc[slot] = nsrc
        win.src1[slot] = srcs[0] if nsrc else 0
        win.src2[slot] = srcs[1] if nsrc > 1 else 0
        prf = self._prf
        if prf is None:
            return
        ready = prf.ready
        pending = 0
        watchers = self._watchers
        for preg in srcs:
            if not ready[preg]:
                pending += 1
                bucket = watchers.get(preg)
                if bucket is None:
                    watchers[preg] = [seq]
                else:
                    bucket.append(seq)
        dyn.rs_pending = pending
        win.pending[slot] = pending
        if pending == 0:
            self._ready[seq] = dyn

    def wakeup(self, preg: int) -> None:
        """A physical register became ready: promote its watchers.

        Wired to :attr:`PhysicalRegisterFile.on_ready` by the pipeline.
        Duplicate sources register (and wake) once per occurrence, so the
        pending count stays balanced.
        """
        watchers = self._watchers.pop(preg, None)
        if not watchers:
            return
        if self._kernel_wakeup is not None:
            win = self.window
            self._kernel_wakeup(watchers, self._waiting, self._ready,
                                win.pending, win.mask)
            return
        waiting = self._waiting
        ready = self._ready
        win = self.window
        mask = win.mask
        pending = win.pending
        for seq in watchers:
            dyn = waiting.get(seq)
            if dyn is not None:
                slot = seq & mask
                left = pending[slot] - 1
                pending[slot] = left
                dyn.rs_pending = left
                if left == 0:
                    ready[seq] = dyn

    def squash(self, squashed_seqs: set) -> int:
        """Drop entries belonging to squashed instructions; returns count."""
        doomed = [seq for seq in self._waiting if seq in squashed_seqs]
        for seq in doomed:
            del self._waiting[seq]
            self._ready.pop(seq, None)
        return len(doomed)

    # ------------------------------------------------------------------
    def select(self, operand_ready: Callable[[DynInst], bool],
               load_can_issue: Callable[[DynInst], bool]) -> List[DynInst]:
        """Pick this cycle's issue group.

        ``operand_ready`` tests whether every source physical register of an
        instruction is available (used only on the scan fallback path when
        no PRF is bound); ``load_can_issue`` applies the additional
        memory-ordering constraints (collision history table, unavailable
        forwarding data).  Selected instructions are removed from the pool.
        """
        ports = self.ports
        waiting = self._waiting
        if self._prf is not None:
            ready = self._ready
            if not ready:
                return []
            win = self.window
            if self._kernel_select is not None:
                return self._kernel_select(ready, waiting, win.sort_key,
                                           win.port, win.mask,
                                           self._limits_by_code,
                                           ports.issue_width,
                                           self.combined_ldst_port,
                                           load_can_issue)
            mask = win.mask
            sort_key = win.sort_key
            # Sorting the precomputed ``(priority << SEQ_BITS) | seq`` ints
            # reproduces the (priority, age) order without a key function.
            keys = [sort_key[seq & mask] for seq in ready]
            keys.sort()
            port_arr = win.port
            limits = self._limits_by_code
            counts = [0, 0, 0, 0]
            width = ports.issue_width
            combined = self.combined_ldst_port
            selected: List[DynInst] = []
            for key in keys:
                if len(selected) >= width:
                    break
                seq = key & SEQ_MASK
                code = port_arr[seq & mask]
                if code == PORT_LOAD and not load_can_issue(waiting[seq]):
                    continue
                if combined and code >= PORT_LOAD:
                    if counts[2] + counts[3] >= 1:
                        continue
                if counts[code] >= limits[code]:
                    continue
                counts[code] += 1
                selected.append(waiting[seq])
            for dyn in selected:
                seq = dyn.seq
                del waiting[seq]
                del ready[seq]
            return selected

        # Scan fallback (no PRF bound): probe every waiting instruction.
        candidates = [dyn for dyn in waiting.values() if operand_ready(dyn)]
        candidates.sort(key=_age_priority_key)
        selected = []
        counts_by_port = {"simple": 0, "complex": 0, "load": 0, "store": 0}
        limits_by_port = self._limits
        for dyn in candidates:
            if len(selected) >= ports.issue_width:
                break
            port = dyn.info.issue_port
            if port == "load" and not load_can_issue(dyn):
                continue
            if self.combined_ldst_port and port in ("load", "store"):
                if counts_by_port["load"] + counts_by_port["store"] >= 1:
                    continue
            if counts_by_port[port] >= limits_by_port[port]:
                continue
            counts_by_port[port] += 1
            selected.append(dyn)
        for dyn in selected:
            del waiting[dyn.seq]
            self._ready.pop(dyn.seq, None)
        return selected
