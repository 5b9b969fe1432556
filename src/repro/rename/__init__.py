"""Pointer-based register renaming with reference-counted physical registers.

This package implements the renaming discipline the paper builds on
(MIPS R10000 / Alpha 21264 style pointer renaming) plus the paper's
extension-1 machinery:

* :class:`MapTable` -- logical register -> (physical register, generation),
* :class:`PhysicalRegisterFile` -- the physical registers together with the
  *register state vector* generalised to true reference counts, the valid
  bit distinguishing the two zero-reference states (``0/F`` garbage vs
  ``0/T`` integration-eligible), per-register generation counters, and the
  circular (FIFO) free list,
* :class:`Renamer` -- the rename operations outside the per-instruction
  loop: the initial mappings, destination *integration* (mapping a logical
  register onto an existing physical register and bumping its reference
  count) and serial walk-back squash recovery.  Source lookup, destination
  allocation and the retirement release run inline in the pipeline stages.
"""

from repro.rename.map_table import MapTable, Mapping
from repro.rename.physical import PhysicalRegisterFile, PhysRegState, ZERO_PREG
from repro.rename.renamer import Renamer

__all__ = [
    "MapTable",
    "Mapping",
    "PhysicalRegisterFile",
    "PhysRegState",
    "ZERO_PREG",
    "Renamer",
]
