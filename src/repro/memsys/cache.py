"""Set-associative cache timing model with LRU replacement and MSHR merging."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

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
    writeback: bool = True

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.associativity)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets


class _Line:
    __slots__ = ("tag", "dirty", "last_use")

    def __init__(self, tag: int, cycle: int):
        self.tag = tag
        self.dirty = False
        self.last_use = cycle


#: The one set every never-filled set of every cache points at.  It is
#: read-only, so a write that skipped the first-fill check raises instead
#: of filling every empty set at once.
_NO_LINES: Mapping[int, _Line] = MappingProxyType({})


class Cache:
    """A single cache level.

    :meth:`access` returns ``(latency, hit)`` where ``latency`` counts only
    this level's contribution; the :class:`~repro.memsys.hierarchy.
    MemoryHierarchy` composes levels.  Outstanding misses are tracked per
    line so that accesses arriving while a fill is in flight are merged into
    the existing MSHR and only pay the remaining latency, modelling a
    non-blocking cache.

    A set gets its own dict on its first fill; until then it is the shared
    empty :data:`_NO_LINES`, so building a cache costs one list, not one
    dict per set, and lookups need no test for a missing set.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Geometry resolved once: every access indexes with these.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._sets: List[Mapping[int, _Line]] = [_NO_LINES] * self._num_sets
        # line address -> cycle at which the outstanding fill completes
        self._mshrs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Check for presence without updating LRU state."""
        tag = addr // self._line_bytes
        return tag in self._sets[tag % self._num_sets]

    def access(self, addr: int, cycle: int, is_write: bool = False,
               fill_latency: int = 0) -> Tuple[int, bool]:
        """Access ``addr`` at ``cycle``.

        ``fill_latency`` is the latency of the levels below (already
        computed by the hierarchy) and is used to schedule the MSHR fill.
        Returns ``(total_latency, hit)``.
        """
        cfg = self.config
        tag = addr // self._line_bytes
        index = tag % self._num_sets
        cache_set = self._sets[index]
        line = cache_set.get(tag)
        if line is not None:
            line.last_use = cycle
            if is_write:
                line.dirty = cfg.writeback
            # Hit under an outstanding fill: the data arrives only when the
            # MSHR completes, so the access waits for the remaining latency.
            fill_done = self._mshrs.get(tag)
            if fill_done is not None and fill_done > cycle:
                return max(cfg.hit_latency, fill_done - cycle), True
            return cfg.hit_latency, True

        # MSHR merge: a fill for this line is already in flight.
        fill_done = self._mshrs.get(tag)
        if fill_done is not None and fill_done > cycle:
            latency = max(cfg.hit_latency, fill_done - cycle)
            return latency, False

        latency = cfg.hit_latency + fill_latency
        self._reap_mshrs(cycle)
        if len(self._mshrs) >= cfg.mshrs:
            # Structural stall: wait for the oldest outstanding fill.
            oldest_done = min(self._mshrs.values())
            latency += max(0, oldest_done - cycle)
        self._mshrs[tag] = cycle + latency
        self._fill(index, tag, cycle, is_write)
        return latency, False

    # ------------------------------------------------------------------
    def _fill(self, index: int, tag: int, cycle: int, is_write: bool) -> None:
        cache_set = self._sets[index]
        if not isinstance(cache_set, dict):      # the set's first fill
            cache_set = {}
            self._sets[index] = cache_set
        if len(cache_set) >= self.config.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].last_use)
            del cache_set[victim_tag]
        line = _Line(tag, cycle)
        if is_write and self.config.writeback:
            line.dirty = True
        cache_set[tag] = line

    def _reap_mshrs(self, cycle: int) -> None:
        done = [tag for tag, when in self._mshrs.items() if when <= cycle]
        for tag in done:
            del self._mshrs[tag]

    # ------------------------------------------------------------------
    def warm_lines(self) -> List[List[int]]:
        """Resident lines as ``[tag, dirty]`` pairs, set by set, each set
        least recently used first: the tag and replacement state without
        the cycle numbers or MSHRs."""
        lines: List[List[int]] = []
        for cache_set in self._sets:
            if cache_set:
                for line in sorted(cache_set.values(),
                                   key=lambda line: line.last_use):
                    lines.append([line.tag, int(line.dirty)])
        return lines

    def load_warm_lines(self, lines: List[List[int]]) -> None:
        """Install :meth:`warm_lines` output into an empty cache.  Restored
        lines keep their order and rank older than any access at cycle 0 or
        later."""
        sets = self._sets
        num_sets = self._num_sets
        for age, (tag, dirty) in enumerate(lines, start=-len(lines)):
            line = _Line(tag, age)
            line.dirty = bool(dirty)
            cache_set = sets[tag % num_sets]
            if not isinstance(cache_set, dict):
                cache_set = {}
                sets[tag % num_sets] = cache_set
            cache_set[tag] = line
