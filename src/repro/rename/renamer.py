"""Rename-stage operations outside the per-instruction rename loop.

The :class:`Renamer` binds the map table and the physical register file.
Source lookup, destination allocation and the retirement release of the
shadowed mapping run once per instruction, so they live inline in the
pipeline stages (:class:`~repro.core.stages.rename.RenameIntegrate` and
:class:`~repro.core.stages.commit.CommitDiva`).  The renamer keeps the
operations around them:

* the initial architectural mappings,
* destination *integration* (extension 1: add a reference to an existing
  register instead of allocating),
* squash undo (serial walk-back recovery of the map table and the reference
  vector, youngest squashed instruction first),
* the reference counts the leak check needs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.isa.instruction import DynInst
from repro.isa.registers import NUM_LOGICAL_REGS, is_zero_reg
from repro.rename.map_table import MapTable, Mapping
from repro.rename.physical import PhysicalRegisterFile, ZERO_PREG


class Renamer:
    """Map-table + reference-vector manipulation for the rename stage."""

    def __init__(self, map_table: MapTable, prf: PhysicalRegisterFile):
        self.map_table = map_table
        self.prf = prf

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def initialize_from_values(self, reg_values: Sequence) -> None:
        """Create the initial architectural mappings.

        Every logical register gets its own ready physical register holding
        the architectural initial value; the zero registers map to the
        hard-wired zero physical register.
        """
        for logical in range(NUM_LOGICAL_REGS):
            if is_zero_reg(logical):
                self.map_table.set(logical, ZERO_PREG, 0)
                continue
            preg = self.prf.allocate(ready=True, value=reg_values[logical])
            if preg is None:
                raise RuntimeError("physical register file too small for "
                                   "initial architectural mappings")
            self.map_table.set(logical, preg, self.prf.gen[preg])

    # ------------------------------------------------------------------
    # rename-stage operations
    # ------------------------------------------------------------------
    def integrate_dest(self, dyn: DynInst, preg: int, gen: int) -> bool:
        """Integrate: point the destination at an existing physical register.

        Returns False if the reference counter is saturated, in which case
        the rename stage allocates a fresh register instead.
        """
        dest = dyn.inst.mapped_dest
        if dest is None:
            # Integration of a branch (no register output): nothing to map.
            dyn.dest_preg = None
            return True
        if not self.prf.add_ref(preg):
            return False
        dyn.old_dest_preg, dyn.old_dest_gen = self.map_table.get_raw(dest)
        dyn.dest_preg = preg
        dyn.dest_gen = gen
        self.map_table.set(dest, preg, gen)
        return True

    # ------------------------------------------------------------------
    # retirement and recovery
    # ------------------------------------------------------------------
    def squash(self, dyn: DynInst) -> None:
        """Undo the rename effects of a squashed instruction.

        Must be called youngest-first over the squashed instructions, which
        restores the map table and reference vector exactly as the paper's
        serial ROB-walk recovery does.
        """
        if dyn.dest_preg is None:
            return
        self.prf.release(dyn.dest_preg, via_squash=True)
        self.map_table.restore_entry(dyn.inst.mapped_dest, Mapping(
            dyn.old_dest_preg, dyn.old_dest_gen))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def live_map_references(self) -> int:
        """Number of references attributable to current map-table entries
        (one term of :meth:`PhysicalRegisterFile.check_no_leak`)."""
        return sum(1 for preg in self.map_table.mapped_pregs()
                   if preg != ZERO_PREG)

    @staticmethod
    def shadowed_references(in_flight: Iterable[DynInst]) -> int:
        """Number of references held by the mappings that in-flight
        (renamed, not yet retired) instructions shadow: each is released
        when its instruction retires, or becomes the mapping again if the
        instruction is squashed.  The other term of
        :meth:`PhysicalRegisterFile.check_no_leak`."""
        return sum(1 for dyn in in_flight
                   if dyn.dest_preg is not None
                   and dyn.old_dest_preg != ZERO_PREG)
