"""Sparse data-memory model.

Data memory is a dictionary keyed by 8-byte-aligned addresses.  Workloads use
aligned quadword/longword accesses, so a word-granularity model is
sufficient; the memory hierarchy in :mod:`repro.memsys` models *timing* only
and never holds values, mirroring SimpleScalar's split between functional and
timing memory.
"""

from __future__ import annotations

from typing import Dict, Optional

WORD_SIZE = 8
#: ``addr & _WORD_MASK`` rounds ``addr`` down to its containing word.
_WORD_MASK = ~(WORD_SIZE - 1)


class SparseMemory:
    """Word-granularity sparse memory with copy-on-read default of zero."""

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self._words: Dict[int, int] = {}
        if initial:
            for addr, value in initial.items():
                self.write(addr, value)

    def read(self, addr: int):
        """Read the word containing ``addr`` (0 if never written)."""
        return self._words.get(addr & _WORD_MASK, 0)

    def write(self, addr: int, value) -> None:
        """Write ``value`` to the word containing ``addr``."""
        self._words[addr & _WORD_MASK] = value

    def snapshot(self) -> Dict[int, int]:
        """Return a copy of all written words (for checkpoint/compare)."""
        return dict(self._words)

    def copy(self) -> "SparseMemory":
        mem = SparseMemory()
        mem._words = dict(self._words)
        return mem

    # ------------------------------------------------------------------
    # checkpoint serialization (JSON-safe: addresses become string keys)
    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict[str, int]:
        """JSON-ready rendering of every written word."""
        return {str(addr): value for addr, value in self._words.items()}

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, int]) -> "SparseMemory":
        """Rebuild a memory image from :meth:`to_snapshot` output."""
        mem = cls()
        mem._words = {int(addr): value for addr, value in snapshot.items()}
        return mem
