"""Memory-system timing models.

The paper's machine has an aggressive memory system: split 64KB I / 32KB D
first-level caches, a 2MB L2, hardware-filled TLBs, a write buffer and MSHRs
for non-blocking misses.  This package models the *timing* of that hierarchy
(hit/miss latencies, MSHR merging, write-buffer occupancy); data values live
in the architectural memory of :mod:`repro.functional`, mirroring the
functional/timing split of SimpleScalar-style simulators.
"""

from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.tlb import TLB, TLBConfig
from repro.memsys.hierarchy import MemoryHierarchy, MemSysConfig

__all__ = [
    "Cache",
    "CacheConfig",
    "TLB",
    "TLBConfig",
    "MemoryHierarchy",
    "MemSysConfig",
]
