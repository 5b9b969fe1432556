"""The integration table (IT).

The IT stores operation descriptor tuples of recently renamed instructions::

    <operation (opcode/immediate or PC), in1 (+gen), in2 (+gen), out (+gen)>

The operation is one integer tag per entry: the PC under PC indexing, else
the opcode/immediate pair packed into an integer (``StaticInst.it_tag``).
The integration *logic* places entries
(``IntegrationLogic.create_entries``) and probes a set in one pass,
comparing the tag and then performing the full operational-equivalence
test (input physical registers and generations).
Each set is a list kept in recency order, least recently used first: a
placement appends (evicting index 0 when the set is full) and a successful
integration moves its entry to the end.  Replacement within a set is
therefore LRU, which together with FIFO physical-register reclamation
approximates the joint IT/state-vector management of the original
squash-reuse design (paper Section 2.2, implementation issues).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.integration.config import IndexScheme


class ITEntry:
    """One integration-table entry.  Only ``branch_outcome`` changes after
    construction (a branch entry learns its resolved direction)."""

    __slots__ = ("tag", "inputs", "out", "out_gen", "branch_outcome",
                 "is_reverse", "creator_seq")

    def __init__(self, tag: int, inputs: Tuple[int, ...], out: Optional[int],
                 out_gen: int, is_reverse: bool = False,
                 creator_seq: int = 0):
        #: The operation: the creator's PC under PC indexing, else the
        #: ``StaticInst.it_tag`` (or ``it_reverse_tag``) of the operation.
        self.tag = tag
        #: The inputs' ``(preg, gen)`` pairs, flattened: one tuple
        #: comparison against a probe's ``DynInst.src_key`` checks registers
        #: and generations (the generation suppresses register
        #: mis-integrations after a reallocation).
        self.inputs = inputs
        self.out = out
        self.out_gen = out_gen
        self.branch_outcome: Optional[bool] = None
        self.is_reverse = is_reverse
        self.creator_seq = creator_seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rev" if self.is_reverse else "dir"
        return (f"<ITEntry {kind} tag={self.tag} in={self.inputs} "
                f"out={self.out}>")


class IntegrationTable:
    """Set-associative, LRU-replaced integration table: its geometry and
    sets.  The integration logic places and probes entries."""

    def __init__(self, entries: int = 1024, assoc: int = 4,
                 scheme: IndexScheme = IndexScheme.OPCODE_IMM_CALLDEPTH):
        if entries <= 0:
            raise ValueError("IT needs at least one entry")
        if assoc == 0 or assoc >= entries:
            assoc = entries          # fully associative
        if entries % assoc:
            raise ValueError("IT entry count must be a multiple of the "
                             "associativity")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.scheme = scheme
        #: Each set in recency order, least recently used first.
        self._sets: List[List[ITEntry]] = [[] for _ in range(self.num_sets)]

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self):
        for cache_set in self._sets:
            yield from cache_set
