"""The rename-stage operations used by the pipeline.

The :class:`Renamer` binds the map table and the physical register file and
exposes exactly the operations the paper's integration-aware rename stage
needs:

* source lookup (physical register + generation for each logical source,
  as the flat source key the integration table matches),
* destination *allocation* (conventional renaming: claim a free register),
* destination *integration* (extension 1: add a reference to an existing
  register instead of allocating),
* retirement (release the shadowed previous mapping),
* squash undo (serial walk-back recovery of the map table and the reference
  vector, youngest squashed instruction first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.isa.instruction import DynInst
from repro.isa.registers import (
    NUM_LOGICAL_REGS,
    REG_FZERO,
    REG_ZERO,
    is_zero_reg,
)
from repro.rename.map_table import MapTable, Mapping
from repro.rename.physical import PhysicalRegisterFile, ZERO_PREG


@dataclass(slots=True)
class RenameResult:
    """Outcome of renaming one instruction's destination."""

    allocated: bool
    integrated: bool
    preg: Optional[int]
    gen: int


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
    def lookup_sources(self, dyn: DynInst) -> Tuple[int, ...]:
        """Look up the instruction's logical sources in the map table.

        Sets ``dyn.src_pregs``, the physical registers the scheduler waits
        on (a list: tuples here measured a higher peak RSS), and
        ``dyn.src_key``, the flat ``(preg, gen[, preg, gen])`` tuple the
        integration table matches and builds entries from, and returns the
        key.  The zero registers need no special case: nothing ever
        remaps them (a zero destination is never renamed), so they read
        ``(ZERO_PREG, 0)`` like any other mapping.
        """
        srcs = dyn.inst.srcs
        map_table = self.map_table
        mt_pregs = map_table._pregs
        mt_gens = map_table._gens
        if len(srcs) == 1:
            a = srcs[0]
            pa = mt_pregs[a]
            dyn.src_pregs = [pa]
            key = (pa, mt_gens[a])
        elif srcs:
            a, b = srcs
            pa = mt_pregs[a]
            pb = mt_pregs[b]
            dyn.src_pregs = [pa, pb]
            key = (pa, mt_gens[a], pb, mt_gens[b])
        else:
            dyn.src_pregs = []
            key = ()
        dyn.src_key = key
        return key

    def _record_old_mapping(self, dyn: DynInst, logical: int) -> None:
        dyn.old_dest_preg, dyn.old_dest_gen = self.map_table.get_raw(logical)

    def rename_dest(self, dyn: DynInst) -> int:
        """Conventionally rename the destination (claim a new register).

        Returns ``-1`` when no physical register is free (rename must
        stall), ``0`` for instructions without a register destination
        (stores, branches, writes to the zero register), ``1`` when a
        register was allocated.  The allocation-free int code is what the
        per-instruction rename loop branches on.
        """
        dest = dyn.inst.dest
        if dest is None or dest == REG_ZERO or dest == REG_FZERO:
            dyn.dest_preg = None
            return 0
        prf = self.prf
        preg = prf.allocate()
        if preg is None:
            return -1
        # MapTable.get_raw/set, inlined: this runs once per renamed
        # instruction.
        mt_pregs = self.map_table._pregs
        mt_gens = self.map_table._gens
        dyn.old_dest_preg = mt_pregs[dest]
        dyn.old_dest_gen = mt_gens[dest]
        gen = prf.gen[preg]
        dyn.dest_preg = preg
        dyn.dest_gen = gen
        mt_pregs[dest] = preg
        mt_gens[dest] = gen
        return 1

    def allocate_dest(self, dyn: DynInst) -> Optional[RenameResult]:
        """:meth:`rename_dest` wrapped in the richer result record.

        Returns ``None`` when no physical register is free (rename must
        stall); a :class:`RenameResult` otherwise.
        """
        code = self.rename_dest(dyn)
        if code < 0:
            return None
        if code == 0:
            return RenameResult(allocated=False, integrated=False, preg=None,
                                gen=0)
        return RenameResult(allocated=True, integrated=False,
                            preg=dyn.dest_preg, gen=dyn.dest_gen)

    def integrate_dest(self, dyn: DynInst, preg: int, gen: int) -> bool:
        """Integrate: point the destination at an existing physical register.

        Returns False if the reference counter is saturated, in which case
        the caller falls back to :meth:`allocate_dest`.
        """
        dest = dyn.inst.dest
        if dest is None or is_zero_reg(dest):
            # Integration of a branch (no register output): nothing to map.
            dyn.dest_preg = None
            return True
        if not self.prf.add_ref(preg):
            return False
        self._record_old_mapping(dyn, dest)
        dyn.dest_preg = preg
        dyn.dest_gen = gen
        self.map_table.set(dest, preg, gen)
        return True

    # ------------------------------------------------------------------
    # retirement and recovery
    # ------------------------------------------------------------------
    def commit(self, dyn: DynInst) -> None:
        """Retire ``dyn``: the previous (shadowed) mapping of its destination
        logical register ceases to be visible and drops one reference.  The
        instruction's own output keeps its reference (it is now the retired
        architectural mapping).  Only mapping a register destination
        records a previous mapping, so that is the whole test."""
        old = dyn.old_dest_preg
        if old is not None:
            self.prf.release(old)

    def squash(self, dyn: DynInst) -> None:
        """Undo the rename effects of a squashed instruction.

        Must be called youngest-first over the squashed instructions, which
        restores the map table and reference vector exactly as the paper's
        serial ROB-walk recovery does.
        """
        dest = dyn.inst.dest
        if dest is None or is_zero_reg(dest) or dyn.dest_preg is None:
            return
        self.prf.release(dyn.dest_preg, via_squash=True)
        self.map_table.restore_entry(
            dest, Mapping(dyn.old_dest_preg, dyn.old_dest_gen))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def live_map_references(self) -> int:
        """Number of references attributable to current map-table entries
        (used with in-flight shadowed mappings to check for register leaks)."""
        return sum(1 for preg in self.map_table.mapped_pregs()
                   if preg != ZERO_PREG)
