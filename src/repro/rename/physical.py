"""Physical register file with the generalised register state vector.

The paper's extension 1 replaces the three-state (free / active / squashed)
vector of squash reuse with true reference counts plus a valid bit that
distinguishes the two zero-reference states:

* ``0/F`` -- unmapped and the value is garbage (the producing instruction was
  squashed before executing); *not* integration-eligible, because integrating
  such a register would deadlock the consumer (it holds no reservation
  station and nobody will ever produce the value).
* ``0/T`` -- unmapped but the register holds a useful value; integration
  eligible.

Each physical register also carries a short wrap-around *generation counter*
that is incremented on every reallocation; integration succeeds only when
both the register number and its generation match the integration-table
entry, which suppresses register mis-integrations (Section 2.2).

Free registers are reclaimed in circular (FIFO) order, which combined with
LRU replacement in the integration table approximates the joint IT/state
management of the original squash-reuse design.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, List, Optional

ZERO_PREG = 0


class PhysRegState(enum.Enum):
    """Summary state of a physical register (diagnostic view of the vector)."""

    FREE = "free"          # refcount == 0, invalid (0/F)
    ELIGIBLE = "eligible"  # refcount == 0, valid   (0/T)
    ACTIVE = "active"      # refcount > 0


class PhysicalRegisterFile:
    """Physical registers: values, readiness, reference counts, generations.

    Register 0 (:data:`ZERO_PREG`) is the hard-wired zero register: always
    ready, always value 0, never allocated and never freed.
    """

    def __init__(self, num_pregs: int = 1024, gen_bits: int = 4,
                 refcount_bits: int = 4):
        if num_pregs < 66:
            raise ValueError("need at least 66 physical registers")
        self.num_pregs = num_pregs
        self.gen_mask = (1 << gen_bits) - 1 if gen_bits > 0 else 0
        self.max_refcount = (1 << refcount_bits) - 1
        self.values: List = [0] * num_pregs
        self.ready: List[bool] = [False] * num_pregs
        self.refcount: List[int] = [0] * num_pregs
        self.valid: List[bool] = [False] * num_pregs
        self.gen: List[int] = [0] * num_pregs
        self.zero_via_squash: List[bool] = [False] * num_pregs
        # Every register but the zero register starts on the free queue.
        self._in_free_queue: List[bool] = [True] * num_pregs
        self._in_free_queue[ZERO_PREG] = False
        self._free_queue: Deque[int] = deque(range(1, num_pregs))
        #: Optional not-ready -> ready transition hook; the pipeline wires
        #: this to the scheduler's wakeup so operand readiness is tracked by
        #: events instead of per-cycle scans.
        self.on_ready: Optional[Callable[[int], None]] = None

        # Zero register.
        self.ready[ZERO_PREG] = True
        self.valid[ZERO_PREG] = True
        self.refcount[ZERO_PREG] = 1

    # ------------------------------------------------------------------
    # mapping operations
    # ------------------------------------------------------------------
    def allocate(self, ready: bool = False, value=0) -> Optional[int]:
        """Claim a zero-reference register for a newly renamed instruction.

        Returns the physical register number, or ``None`` if every register
        is still referenced (the pipeline must stall rename).  Allocation
        increments the generation counter, which invalidates any stale
        integration-table entries naming the register.
        """
        while self._free_queue:
            preg = self._free_queue.popleft()
            self._in_free_queue[preg] = False
            if self.refcount[preg] != 0:
                # The register was re-referenced (integrated) while it sat on
                # the free queue; it is no longer allocatable.
                continue
            self.gen[preg] = (self.gen[preg] + 1) & self.gen_mask
            self.refcount[preg] = 1
            self.valid[preg] = True
            self.ready[preg] = ready
            self.values[preg] = value
            self.zero_via_squash[preg] = False
            return preg
        return None

    def add_ref(self, preg: int) -> bool:
        """Add a mapping to ``preg`` (an integration).

        Fails (returns False) when the reference counter is saturated, in
        which case the instruction must allocate a fresh register instead
        (paper Section 3.3, Refcount discussion).
        """
        if preg == ZERO_PREG:
            return True
        if self.refcount[preg] >= self.max_refcount:
            return False
        self.refcount[preg] += 1
        return True

    def release(self, preg: int, via_squash: bool = False) -> None:
        """Drop one mapping to ``preg`` (retirement overwrite or squash undo).

        When the count reaches zero the register enters ``0/T`` if its value
        was produced (integration-eligible) or ``0/F`` if the producing
        instruction never executed, and it joins the FIFO free queue
        unless it is still queued from an earlier release (it was
        integrated while it waited there).
        """
        if preg == ZERO_PREG:
            return
        refcount = self.refcount
        count = refcount[preg] - 1
        if count < 0:
            raise RuntimeError(f"reference underflow on p{preg}")
        refcount[preg] = count
        if count == 0:
            valid = self.valid[preg] = self.ready[preg]
            self.zero_via_squash[preg] = via_squash and valid
            if not self._in_free_queue[preg]:
                self._free_queue.append(preg)
                self._in_free_queue[preg] = True

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def set_value(self, preg: int, value) -> None:
        if preg == ZERO_PREG:
            return
        self.values[preg] = value
        if not self.ready[preg]:
            self.ready[preg] = True
            if self.on_ready is not None:
                self.on_ready(preg)

    def value(self, preg: int):
        return self.values[preg]

    # ------------------------------------------------------------------
    # integration support
    # ------------------------------------------------------------------
    def state_of(self, preg: int) -> PhysRegState:
        """The paper's register state (Figure 2) of ``preg``.

        The test API for the free/eligible/active partition: the rename
        tests read it, and the partition invariant is stated with it."""
        if self.refcount[preg] > 0:
            return PhysRegState.ACTIVE
        return PhysRegState.ELIGIBLE if self.valid[preg] else PhysRegState.FREE

    def integration_eligible(self, preg: int, gen: int,
                             squash_only: bool = False) -> bool:
        """Can an instruction integrate ``preg`` created at generation ``gen``?

        * generation must match (stale entries are rejected);
        * in general reuse, any referenced register or a ``0/T`` register is
          eligible;
        * in squash-reuse-only mode the register must have reached zero
          references via a squash (the original three-state discipline).
        """
        if preg == ZERO_PREG:
            return False
        if (gen & self.gen_mask) != self.gen[preg]:
            return False
        if squash_only:
            return (self.refcount[preg] == 0 and self.valid[preg]
                    and self.zero_via_squash[preg])
        return self.refcount[preg] > 0 or self.valid[preg]

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------
    def total_references(self) -> int:
        return sum(self.refcount[1:])

    def check_no_leak(self, live_references: int,
                      shadowed_references: int) -> bool:
        """True when every reference belongs to a mapping -- i.e. no physical
        register has been leaked.

        ``live_references`` counts the map table's mappings
        (:meth:`Renamer.live_map_references`); ``shadowed_references``
        counts the older mappings in-flight instructions shadow
        (:meth:`Renamer.shadowed_references` over the reorder buffer), which
        hold their reference until those instructions retire.
        """
        return (self.total_references()
                == live_references + shadowed_references)
