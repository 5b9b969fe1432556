"""The integration table (IT).

The IT stores operation descriptor tuples of recently renamed instructions::

    <operation (opcode/immediate or PC), in1 (+gen), in2 (+gen), out (+gen)>

Entries are placed by a precomputed key (``StaticInst.it_key`` or
``it_reverse_key``) hashed to a set; the integration *logic* probes that set
in one pass, comparing a minimal tag and then performing the full
operational-equivalence test (input physical registers and generations).
Each set is a list kept in recency order, least recently used first: an
insert appends (evicting index 0 when the set is full) and a successful
integration moves its entry to the end.  Replacement within a set is
therefore LRU, which together with FIFO physical-register reclamation
approximates the joint IT/state-vector management of the original
squash-reuse design (paper Section 2.2, implementation issues).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.integration.config import IndexScheme
from repro.isa.opcodes import Opcode
from repro.isa.program import INST_SIZE


class ITEntry:
    """One integration-table entry.  Only ``branch_outcome`` changes after
    construction (a branch entry learns its resolved direction)."""

    __slots__ = ("pc", "opcode", "imm", "inputs", "out", "out_gen",
                 "branch_outcome", "is_reverse", "creator_seq")

    def __init__(self, pc: int, opcode: Opcode, imm: Optional[int],
                 inputs: Tuple[int, ...], out: Optional[int], out_gen: int,
                 is_reverse: bool = False, creator_seq: int = 0):
        self.pc = pc
        self.opcode = opcode
        self.imm = imm
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
        return (f"<ITEntry {kind} {self.opcode.value}/{self.imm} "
                f"in={self.inputs} out={self.out}>")


class IntegrationTable:
    """Set-associative, LRU-replaced integration table."""

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
        # Scheme flags hoisted out of the per-lookup path.
        self._pc_scheme = scheme is IndexScheme.PC
        self._depth_in_index = scheme is IndexScheme.OPCODE_IMM_CALLDEPTH
        #: Each set in recency order, least recently used first.
        self._sets: List[List[ITEntry]] = [[] for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    # placement (paper Section 2.3)
    # ------------------------------------------------------------------
    def insert(self, entry: ITEntry, key: int, call_depth: int) -> ITEntry:
        """Insert ``entry`` as its set's most recently used entry, evicting
        the least recently used one if the set is full.

        ``key`` is the operation's precomputed opcode/immediate key
        (``StaticInst.it_key`` or ``it_reverse_key``).  The set index is
        that key, or the PC under PC indexing, with the call depth XORed in
        under the enhanced scheme; ``IntegrationLogic.consider`` probes the
        same set.  The tag compared within the set is minimal: the PC under
        PC indexing, else opcode + immediate (so different call depths can
        match in a set).
        """
        if self._pc_scheme:
            key = entry.pc // INST_SIZE
        elif self._depth_in_index:
            key ^= call_depth
        cache_set = self._sets[key % self.num_sets]
        if len(cache_set) >= self.assoc:
            del cache_set[0]
        cache_set.append(entry)
        return entry

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self):
        for cache_set in self._sets:
            yield from cache_set
