"""Set-associative cache timing model with LRU replacement and MSHR merging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


@dataclass
class CacheStats:
    """Counters maintained by a :class:`Cache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    mshr_merges: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _Line:
    __slots__ = ("tag", "dirty", "last_use")

    def __init__(self, tag: int, cycle: int):
        self.tag = tag
        self.dirty = False
        self.last_use = cycle


class Cache:
    """A single cache level.

    :meth:`access` returns ``(latency, hit)`` where ``latency`` counts only
    this level's contribution; the :class:`~repro.memsys.hierarchy.
    MemoryHierarchy` composes levels.  Outstanding misses are tracked per
    line so that accesses arriving while a fill is in flight are merged into
    the existing MSHR and only pay the remaining latency, modelling a
    non-blocking cache.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        # Geometry resolved once: every access indexes with these.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._sets: List[Dict[int, _Line]] = [
            dict() for _ in range(self._num_sets)]
        # line address -> cycle at which the outstanding fill completes
        self._mshrs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Check for presence without updating LRU state or statistics."""
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
        self.stats.accesses += 1
        tag = addr // self._line_bytes
        index = tag % self._num_sets
        cache_set = self._sets[index]
        line = cache_set.get(tag)
        if line is not None:
            self.stats.hits += 1
            line.last_use = cycle
            if is_write:
                line.dirty = cfg.writeback
            # Hit under an outstanding fill: the data arrives only when the
            # MSHR completes, so the access waits for the remaining latency.
            fill_done = self._mshrs.get(tag)
            if fill_done is not None and fill_done > cycle:
                self.stats.mshr_merges += 1
                return max(cfg.hit_latency, fill_done - cycle), True
            return cfg.hit_latency, True

        self.stats.misses += 1
        # MSHR merge: a fill for this line is already in flight.
        fill_done = self._mshrs.get(tag)
        if fill_done is not None and fill_done > cycle:
            self.stats.mshr_merges += 1
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
        if len(cache_set) >= self.config.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].last_use)
            victim = cache_set.pop(victim_tag)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
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
        the cycle numbers, MSHRs or statistics."""
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
            sets[tag % num_sets][tag] = line

    def reset_stats(self) -> None:
        self.stats = CacheStats()
