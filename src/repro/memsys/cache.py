"""Set-associative cache timing model with LRU replacement and MSHR merging."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping

from repro.serialization import SerializableConfig


@dataclass(frozen=True)
class CacheConfig(SerializableConfig):
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    hit_latency: int
    mshrs: int = 16

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.associativity)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets


#: The one set every never-filled set of every cache points at.  It is
#: read-only, so a write that skipped the first-fill check raises instead
#: of filling every empty set at once.
_NO_LINES: Mapping[int, int] = MappingProxyType({})


class Cache:
    """A single cache level.

    :meth:`access` returns the latency of this level, with the latency of
    the levels below added on a miss; the :class:`~repro.memsys.hierarchy.
    MemoryHierarchy` composes levels.  Outstanding misses are tracked per
    line so that accesses arriving while a fill is in flight are merged into
    the existing MSHR and only pay the remaining latency, modelling a
    non-blocking cache.

    Each set maps the tag of every resident line to the cycle of its last
    use, which is all that LRU replacement reads.  A set gets its own dict
    on its first fill; until then it is the shared empty :data:`_NO_LINES`,
    so building a cache costs one list, not one dict per set, and lookups
    need no test for a missing set.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Geometry resolved once: every access indexes with these.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._sets: List[Mapping[int, int]] = [_NO_LINES] * self._num_sets
        # line address -> cycle at which the outstanding fill completes
        self._mshrs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Check for presence without updating LRU state."""
        tag = addr // self._line_bytes
        return tag in self._sets[tag % self._num_sets]

    def access(self, addr: int, cycle: int, fill_latency: int = 0) -> int:
        """Access ``addr`` at ``cycle`` and return its latency.

        ``fill_latency`` is the latency of the levels below (already
        computed by the hierarchy) and is used to schedule the MSHR fill.
        """
        cfg = self.config
        tag = addr // self._line_bytes
        index = tag % self._num_sets
        cache_set = self._sets[index]
        resident = tag in cache_set
        if resident:
            cache_set[tag] = cycle
        fill_done = self._mshrs.get(tag)
        if fill_done is not None and fill_done > cycle:
            # A hit under an outstanding fill, or a miss that merges into
            # it: the data arrives only when the MSHR completes.
            return max(cfg.hit_latency, fill_done - cycle)
        if resident:
            return cfg.hit_latency

        latency = cfg.hit_latency + fill_latency
        self._reap_mshrs(cycle)
        if len(self._mshrs) >= cfg.mshrs:
            # Structural stall: wait for the oldest outstanding fill.
            oldest_done = min(self._mshrs.values())
            latency += max(0, oldest_done - cycle)
        self._mshrs[tag] = cycle + latency
        self._fill(index, tag, cycle)
        return latency

    # ------------------------------------------------------------------
    def _fill(self, index: int, tag: int, cycle: int) -> None:
        cache_set = self._sets[index]
        if not isinstance(cache_set, dict):      # the set's first fill
            cache_set = {}
            self._sets[index] = cache_set
        if len(cache_set) >= self.config.associativity:
            del cache_set[min(cache_set, key=cache_set.__getitem__)]
        cache_set[tag] = cycle

    def _reap_mshrs(self, cycle: int) -> None:
        done = [tag for tag, when in self._mshrs.items() if when <= cycle]
        for tag in done:
            del self._mshrs[tag]

    # ------------------------------------------------------------------
    def warm_lines(self) -> List[int]:
        """Resident tags, set by set, each set least recently used first:
        the replacement state without the cycle numbers or MSHRs."""
        lines: List[int] = []
        for cache_set in self._sets:
            if cache_set:
                lines.extend(sorted(cache_set, key=cache_set.__getitem__))
        return lines

    def load_warm_lines(self, lines: List[int]) -> None:
        """Install :meth:`warm_lines` output into an empty cache.  Restored
        lines keep their order and rank older than any access at cycle 0 or
        later."""
        sets = self._sets
        num_sets = self._num_sets
        for age, tag in enumerate(lines, start=-len(lines)):
            cache_set = sets[tag % num_sets]
            if not isinstance(cache_set, dict):
                cache_set = {}
                sets[tag % num_sets] = cache_set
            cache_set[tag] = age
