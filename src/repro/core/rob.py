"""Reorder buffer: the in-order window of in-flight instructions."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List

from repro.isa.instruction import DynInst


class ReorderBuffer:
    """A bounded FIFO of in-flight dynamic instructions.

    Instructions enter at rename and leave either at retirement (from the
    head) or during a squash (from the tail, youngest first) -- the squash
    order is what lets the renamer undo map-table and reference-count
    updates serially.  The rename stage appends to ``_entries`` directly,
    after its own ``size`` check, and retirement pops its head.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries: Deque[DynInst] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._entries)

    def squash_younger_than(self, seq: int) -> List[DynInst]:
        """Remove (and return, youngest first) every instruction with a
        sequence number strictly greater than ``seq``."""
        squashed: List[DynInst] = []
        while self._entries and self._entries[-1].seq > seq:
            squashed.append(self._entries.pop())
        return squashed
