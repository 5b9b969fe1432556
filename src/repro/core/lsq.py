"""Load/store queue, store-to-load forwarding, and speculative-load
disambiguation with a collision history table.

Loads issue speculatively in the presence of older stores with unresolved
addresses.  When a store later resolves to an address that a younger,
already-executed load read, the processor takes a full squash from that load
and the collision history table (CHT) learns the load's PC so future
instances wait for older store addresses to resolve (paper Section 3.1).

The queue is fully indexed -- the per-cycle ordering checks that the issue
stage performs for every load candidate never scan the entry list:

* ``_by_seq`` maps sequence number to the in-flight instruction (insertion
  order is program order, so it doubles as the in-order queue); an entry's
  only dynamic state is ``dyn.mem_addr``, the aligned word a store resolved
  to or a load executed against (``None`` before that), and the store flag
  is ``info.is_store``;
* ``_unresolved_stores`` is the sorted sequence-number list of stores whose
  address is still unknown, making ``older_stores_unresolved`` an O(1)
  min-lookup;
* ``_stores_by_addr`` / ``_loads_by_addr`` bucket resolved stores and
  executed loads by aligned word address, each bucket sorted by sequence
  number, so forwarding (youngest older store) and violation detection
  (younger executed loads) are a dict probe plus a bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional

from repro.functional.memory import WORD_SIZE
from repro.isa.instruction import DynInst
from repro.isa.program import INST_SIZE

#: ``addr & _ALIGN_MASK`` rounds ``addr`` down to its containing word.
_ALIGN_MASK = ~(WORD_SIZE - 1)


class CollisionHistoryTable:
    """Direct-mapped table of load PCs that have caused memory-order
    violations; a hit makes the load wait for older store addresses."""

    def __init__(self, entries: int = 256):
        self.entries = entries
        self._tags: List[Optional[int]] = [None] * entries

    def predicts_collision(self, pc: int) -> bool:
        """Pure lookup: does the table predict a collision for this PC?

        Deliberately side-effect free -- a stalled load is re-polled by the
        scheduler every cycle; the issue stage counts ``SimStats.cht_hits``
        once per dynamic load.
        """
        return self._tags[(pc // INST_SIZE) % self.entries] == pc

    def train(self, pc: int) -> None:
        self._tags[(pc // INST_SIZE) % self.entries] = pc


class LoadStoreQueue:
    """The in-order queue of in-flight memory operations.

    Entries are allocated at rename (program order) and removed at
    retirement or squash, so ordering checks can compare positions by
    sequence number.
    """

    def __init__(self, size: int = 64):
        self.size = size
        #: seq -> in-flight instruction; dict insertion order is program
        #: order.
        self._by_seq: Dict[int, DynInst] = {}
        #: Sorted seqs of stores whose address has not resolved yet.
        self._unresolved_stores: List[int] = []
        #: aligned addr -> sorted seqs of address-resolved stores.
        self._stores_by_addr: Dict[int, List[int]] = {}
        #: aligned addr -> sorted seqs of executed loads.
        self._loads_by_addr: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_seq)

    def has_space(self, count: int = 1) -> bool:
        return len(self._by_seq) + count <= self.size

    def insert(self, dyn: DynInst) -> None:
        by_seq = self._by_seq
        if len(by_seq) >= self.size:
            raise RuntimeError("LSQ overflow")
        seq = dyn.seq
        by_seq[seq] = dyn
        dyn.mem_addr = None
        if dyn.info.is_store:
            # Inserts happen in program order, so append keeps the list
            # sorted; insort guards unit tests that insert out of order.
            insort(self._unresolved_stores, seq)
        else:
            # The execute stage's load-issue state (see IssueExecute).
            dyn.cht_counted = False
            dyn.issue_probe = None

    def _drop_indexes(self, dyn: DynInst) -> None:
        """Remove one entry from the address/unresolved indices.  An entry
        is in exactly one of them (``mem_addr`` says which), and a retiring
        one is the oldest, so ``list.remove`` finds it first."""
        addr = dyn.mem_addr
        if dyn.info.is_store:
            if addr is None:
                self._unresolved_stores.remove(dyn.seq)
                return
            index = self._stores_by_addr
        elif addr is None:
            return
        else:
            index = self._loads_by_addr
        bucket = index[addr]
        bucket.remove(dyn.seq)
        if not bucket:
            del index[addr]

    def remove(self, dyn: DynInst) -> None:
        if self._by_seq.pop(dyn.seq, None) is not None:
            self._drop_indexes(dyn)

    def squash(self, squashed_seqs: set) -> int:
        """Drop entries belonging to squashed instructions; returns count."""
        by_seq = self._by_seq
        doomed = [seq for seq in by_seq if seq in squashed_seqs]
        for seq in doomed:
            self._drop_indexes(by_seq.pop(seq))
        return len(doomed)

    # ------------------------------------------------------------------
    # store side
    # ------------------------------------------------------------------
    def resolve_store(self, dyn: DynInst, addr: int) -> List[DynInst]:
        """Record a store's resolved address and data.

        Returns the younger loads that already executed against the same
        word -- each is a memory-order violation requiring a squash.
        """
        seq = dyn.seq
        by_seq = self._by_seq
        if seq not in by_seq or not dyn.info.is_store:
            return []
        aligned = addr & _ALIGN_MASK
        old_addr = dyn.mem_addr
        if old_addr is None:
            self._unresolved_stores.remove(seq)
            insort(self._stores_by_addr.setdefault(aligned, []), seq)
        elif old_addr != aligned:
            # Re-resolution to a new address (defensive; completions fire
            # once per dynamic store in the current pipeline).
            self._drop_indexes(dyn)
            insort(self._stores_by_addr.setdefault(aligned, []), seq)
        dyn.mem_addr = aligned
        loads = self._loads_by_addr.get(aligned)
        if not loads:
            return []
        return [by_seq[s] for s in loads[bisect_right(loads, seq):]]

    # ------------------------------------------------------------------
    # load side
    # ------------------------------------------------------------------
    def record_load(self, dyn: DynInst, addr: int) -> None:
        if dyn.seq not in self._by_seq or dyn.info.is_store:
            return
        aligned = addr & _ALIGN_MASK
        old_addr = dyn.mem_addr
        if old_addr is not None:
            if old_addr == aligned:
                return
            self._drop_indexes(dyn)
        dyn.mem_addr = aligned
        insort(self._loads_by_addr.setdefault(aligned, []), dyn.seq)

    def forward_from(self, dyn: DynInst, addr: int) -> Optional[DynInst]:
        """The youngest older store to the same word, or ``None``.

        A store enters the address index only when it resolves, which
        produces its address and data together, so a match can always
        forward.
        """
        stores = self._stores_by_addr.get(addr & _ALIGN_MASK)
        if not stores:
            return None
        idx = bisect_left(stores, dyn.seq)
        if idx == 0:
            return None
        return self._by_seq[stores[idx - 1]]

    def older_stores_unresolved(self, dyn: DynInst) -> bool:
        """True when any older store has not yet resolved its address."""
        unresolved = self._unresolved_stores
        return bool(unresolved) and unresolved[0] < dyn.seq
