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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


@dataclass
class AccessResult:
    """Outcome of one timed memory access."""

    latency: int
    l1_hit: bool
    l2_hit: bool
    tlb_hit: bool


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
        # Write buffer: completion cycles of stores drained to the cache.
        self._write_buffer: List[int] = []

    # ------------------------------------------------------------------
    def _l2_and_memory(self, addr: int, cycle: int,
                       is_write: bool) -> Tuple[int, bool]:
        latency, hit = self.l2.access(addr, cycle, is_write=is_write,
                                      fill_latency=self.config.memory_latency)
        return latency, hit

    def ifetch(self, pc: int, cycle: int) -> AccessResult:
        """Timed instruction fetch of the line containing ``pc``."""
        tlb_latency, tlb_hit = self.itlb.access(pc, cycle)
        below, l2_hit = (0, True)
        if not self.il1.probe(pc):
            below, l2_hit = self._l2_and_memory(pc, cycle, is_write=False)
        latency, l1_hit = self.il1.access(pc, cycle, fill_latency=below)
        return AccessResult(latency=latency + tlb_latency, l1_hit=l1_hit,
                            l2_hit=l2_hit, tlb_hit=tlb_hit)

    def load(self, addr: int, cycle: int) -> AccessResult:
        """Timed data load."""
        tlb_latency, tlb_hit = self.dtlb.access(addr, cycle)
        below, l2_hit = (0, True)
        if not self.dl1.probe(addr):
            below, l2_hit = self._l2_and_memory(addr, cycle, is_write=False)
        latency, l1_hit = self.dl1.access(addr, cycle, fill_latency=below)
        return AccessResult(latency=latency + tlb_latency, l1_hit=l1_hit,
                            l2_hit=l2_hit, tlb_hit=tlb_hit)

    def store(self, addr: int, cycle: int) -> Tuple[int, bool]:
        """Retire-time store through the write buffer.

        Returns ``(stall_cycles, accepted)``: the store is accepted into the
        write buffer unless it is full, in which case retirement must stall
        for ``stall_cycles`` before retrying.
        """
        self._drain_write_buffer(cycle)
        if len(self._write_buffer) >= self.config.write_buffer_entries:
            stall = max(0, min(self._write_buffer) - cycle)
            return max(stall, 1), False
        tlb_latency, _ = self.dtlb.access(addr, cycle)
        below, _ = (0, True)
        if not self.dl1.probe(addr):
            below, _ = self._l2_and_memory(addr, cycle, is_write=True)
        latency, _ = self.dl1.access(addr, cycle, is_write=True,
                                     fill_latency=below)
        self._write_buffer.append(cycle + latency + tlb_latency)
        return 0, True

    def _drain_write_buffer(self, cycle: int) -> None:
        self._write_buffer = [c for c in self._write_buffer if c > cycle]

    def reset_stats(self) -> None:
        for unit in (self.il1, self.dl1, self.l2, self.itlb, self.dtlb):
            unit.reset_stats()

    # ------------------------------------------------------------------
    def warm_state(self) -> Dict[str, List]:
        """The long-lived state of every cache and TLB (see
        :meth:`Cache.warm_lines`); MSHRs, the write buffer and statistics
        are left out."""
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
