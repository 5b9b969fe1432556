"""Translation lookaside buffer timing model (hardware-filled)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.serialization import SerializableConfig


@dataclass(frozen=True)
class TLBConfig(SerializableConfig):
    """Geometry and miss penalty of a TLB."""

    name: str
    entries: int
    associativity: int
    page_bytes: int = 8192
    miss_latency: int = 30

    @property
    def num_sets(self) -> int:
        sets = self.entries // self.associativity
        if sets <= 0:
            raise ValueError(f"{self.name}: too few entries for associativity")
        return sets


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Set-associative TLB; misses are filled by hardware in a fixed latency."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.stats = TLBStats()
        # Geometry resolved once: every access indexes with these.
        self._page_bytes = config.page_bytes
        self._num_sets = config.num_sets
        self._sets: List[Dict[int, int]] = [
            dict() for _ in range(self._num_sets)]

    def access(self, addr: int, cycle: int) -> Tuple[int, bool]:
        """Translate ``addr``; returns ``(extra_latency, hit)``."""
        self.stats.accesses += 1
        page = addr // self._page_bytes
        tlb_set = self._sets[page % self._num_sets]
        if page in tlb_set:
            tlb_set[page] = cycle
            return 0, True
        self.stats.misses += 1
        if len(tlb_set) >= self.config.associativity:
            victim = min(tlb_set, key=lambda p: tlb_set[p])
            del tlb_set[victim]
        tlb_set[page] = cycle
        return self.config.miss_latency, False

    def warm_pages(self) -> List[int]:
        """Resident pages, set by set, each set least recently used first."""
        pages: List[int] = []
        for tlb_set in self._sets:
            if tlb_set:
                pages.extend(sorted(tlb_set, key=tlb_set.__getitem__))
        return pages

    def load_warm_pages(self, pages: List[int]) -> None:
        """Install :meth:`warm_pages` output into an empty TLB, ranked older
        than any access at cycle 0 or later."""
        sets = self._sets
        num_sets = self._num_sets
        for age, page in enumerate(pages, start=-len(pages)):
            sets[page % num_sets][page] = age

    def reset_stats(self) -> None:
        self.stats = TLBStats()
