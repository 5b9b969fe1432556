"""The full memory hierarchy used by the timing core.

Defaults follow the paper's configuration (Section 3.1):

* 64KB / 32-byte line / 2-way instruction cache,
* 32KB / 32-byte line / 2-way / 2-cycle write-back data cache, non-blocking
  with 16 MSHRs and a 16-entry write buffer,
* 128-entry 4-way data TLB, 64-entry 4-way instruction TLB, 30-cycle
  hardware miss handling,
* 2MB / 64-byte line / 4-way / 6-cycle unified L2,
* 80-cycle main memory.

Bus contention is folded into the fixed L2/memory latencies; the paper's bus
model only perturbs absolute IPC, not the integration comparisons.

Every access returns its latency and nothing else: :meth:`~MemoryHierarchy.
ifetch` and :meth:`~MemoryHierarchy.load` the cycles until the data
arrives, :meth:`~MemoryHierarchy.store` whether the write buffer took the
store.  A store drains through the data side with a load's timing.  The
caches keep no dirty bits: an eviction costs nothing, so the write-back
policy of the paper's data cache has no timing to model.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.tlb import TLB, TLBConfig
from repro.serialization import SerializableConfig


@dataclass(frozen=True)
class MemSysConfig(SerializableConfig):
    """Parameters of the whole hierarchy."""

    il1: CacheConfig = CacheConfig("il1", size_bytes=64 * 1024, line_bytes=32,
                                   associativity=2, hit_latency=1)
    dl1: CacheConfig = CacheConfig("dl1", size_bytes=32 * 1024, line_bytes=32,
                                   associativity=2, hit_latency=2, mshrs=16)
    l2: CacheConfig = CacheConfig("l2", size_bytes=2 * 1024 * 1024,
                                  line_bytes=64, associativity=4,
                                  hit_latency=6)
    itlb: TLBConfig = TLBConfig("itlb", entries=64, associativity=4)
    dtlb: TLBConfig = TLBConfig("dtlb", entries=128, associativity=4)
    memory_latency: int = 80
    write_buffer_entries: int = 16
    store_forward_latency: int = 2
    address_generation_latency: int = 1


class MemoryHierarchy:
    """Composable timing model of the I-side and D-side memory paths."""

    def __init__(self, config: Optional[MemSysConfig] = None):
        self.config = config or MemSysConfig()
        cfg = self.config
        self.il1 = Cache(cfg.il1)
        self.dl1 = Cache(cfg.dl1)
        self.l2 = Cache(cfg.l2)
        self.itlb = TLB(cfg.itlb)
        self.dtlb = TLB(cfg.dtlb)
        # Write buffer: completion cycles of stores drained to the cache,
        # a min-heap, so the earliest to complete is always at index 0.
        self._write_buffer: List[int] = []

    # ------------------------------------------------------------------
    def ifetch(self, pc: int, cycle: int) -> int:
        """Latency of the timed instruction fetch of the line containing
        ``pc``."""
        below = 0
        if not self.il1.probe(pc):
            below = self.l2.access(pc, cycle, self.config.memory_latency)
        return (self.itlb.access(pc, cycle)
                + self.il1.access(pc, cycle, below))

    def load(self, addr: int, cycle: int) -> int:
        """Latency of a timed data load."""
        below = 0
        if not self.dl1.probe(addr):
            below = self.l2.access(addr, cycle, self.config.memory_latency)
        return (self.dtlb.access(addr, cycle)
                + self.dl1.access(addr, cycle, below))

    def store(self, addr: int, cycle: int) -> bool:
        """Retire-time store through the write buffer.

        Returns whether the write buffer accepted the store; while it is
        full, retirement stalls and retries the store the next cycle.
        """
        write_buffer = self._write_buffer
        while write_buffer and write_buffer[0] <= cycle:
            heappop(write_buffer)          # drained to the cache
        if len(write_buffer) >= self.config.write_buffer_entries:
            return False
        below = 0
        if not self.dl1.probe(addr):
            below = self.l2.access(addr, cycle, self.config.memory_latency)
        heappush(write_buffer, cycle + self.dtlb.access(addr, cycle)
                 + self.dl1.access(addr, cycle, below))
        return True

    # ------------------------------------------------------------------
    def warm_state(self) -> Dict[str, List]:
        """The long-lived state of every cache and TLB (see
        :meth:`Cache.warm_lines`); MSHRs and the write buffer are left
        out."""
        return {"il1": self.il1.warm_lines(), "dl1": self.dl1.warm_lines(),
                "l2": self.l2.warm_lines(), "itlb": self.itlb.warm_pages(),
                "dtlb": self.dtlb.warm_pages()}

    def load_warm_state(self, warm: Dict[str, List]) -> None:
        """Install :meth:`warm_state` output into a freshly built
        hierarchy of the same geometry."""
        for name in ("il1", "dl1", "l2"):
            getattr(self, name).load_warm_lines(warm[name])
        self.itlb.load_warm_pages(warm["itlb"])
        self.dtlb.load_warm_pages(warm["dtlb"])
