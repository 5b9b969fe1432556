"""Speculative register map table (logical -> physical register, generation)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.isa.registers import NUM_LOGICAL_REGS


@dataclass(frozen=True)
class Mapping:
    """One logical-register mapping: physical register and its generation.

    The generation counter travels with the physical register number wherever
    the number is stored (map table, integration table) so stale integration
    entries can be recognised after the register has been reallocated
    (paper Section 2.2, "avoiding register mis-integrations using generation
    counters").
    """

    preg: int
    gen: int


class MapTable:
    """The speculative rename map.

    Recovery is performed by the :class:`~repro.rename.renamer.Renamer`
    walking squashed instructions youngest-first and calling
    :meth:`restore_entry`, mirroring the paper's serial ROB-walk recovery;
    :meth:`snapshot`/:meth:`restore` provide the monolithic checkpoint
    alternative used by tests.
    """

    def __init__(self, num_logical: int = NUM_LOGICAL_REGS):
        self._pregs: List[int] = [0] * num_logical
        self._gens: List[int] = [0] * num_logical

    def get(self, logical: int) -> Mapping:
        return Mapping(self._pregs[logical], self._gens[logical])

    def get_raw(self, logical: int) -> Tuple[int, int]:
        """``(preg, gen)`` without the Mapping wrapper -- the rename stage
        reads the map several times per renamed instruction, and allocating
        a dataclass per read is measurable."""
        return self._pregs[logical], self._gens[logical]

    def set(self, logical: int, preg: int, gen: int) -> None:
        self._pregs[logical] = preg
        self._gens[logical] = gen

    def restore_entry(self, logical: int, mapping: Mapping) -> None:
        self._pregs[logical] = mapping.preg
        self._gens[logical] = mapping.gen

    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return tuple(self._pregs), tuple(self._gens)

    def restore(self, snap: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> None:
        self._pregs = list(snap[0])
        self._gens = list(snap[1])

    def mapped_pregs(self) -> List[int]:
        """All physical registers currently named by the map (for invariants)."""
        return list(self._pregs)
