"""Rename-time integration logic and its integration table (IT).

For every instruction being renamed the logic performs the operational
equivalence test against the IT: same operation (PC or opcode/immediate
depending on the index scheme) applied to the same physical input
registers at the same generations, with an integration-eligible output
register.  On success the instruction *integrates*: its destination logical
register is simply pointed at the existing physical register and the
instruction bypasses the out-of-order execution engine.  On failure the
instruction is renamed conventionally and new IT entries are created --
including, under operation indexing, *reverse* entries for stack stores and
stack-pointer adjustments (extension 3).

The IT stores operation descriptor tuples of recently renamed
instructions::

    <operation (opcode/immediate or PC), in1 (+gen), in2 (+gen), out (+gen)>

The operation is one integer tag per entry: the PC under PC indexing, else
the opcode/immediate pair packed into an integer (``StaticInst.it_tag``).
Each set is a list kept in recency order, least recently used first: a
placement appends (evicting index 0 when the set is full) and a successful
integration moves its entry to the end.  Replacement within a set is
therefore LRU, which together with FIFO physical-register reclamation
approximates the joint IT/state-vector management of the original
squash-reuse design (paper Section 2.2, implementation issues).

A disabled configuration builds :class:`NullIntegrationLogic`, which keeps
no table, instead of an :class:`IntegrationLogic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.integration.config import IndexScheme, IntegrationConfig, LispMode
from repro.integration.lisp import LoadIntegrationSuppressionPredictor
from repro.isa.instruction import DynInst
from repro.isa.program import INST_SIZE
from repro.isa.registers import REG_SP
from repro.rename.physical import PhysicalRegisterFile


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


# Callback used to approximate oracle load-mis-integration suppression: given
# the dynamic load and the candidate entry, return True to allow integration.
OracleCheck = Callable[[DynInst, ITEntry], bool]


@dataclass(slots=True)
class IntegrationDecision:
    """Result of the rename-time integration test for one instruction."""

    integrate: bool
    entry: Optional[ITEntry] = None
    suppressed_by_lisp: bool = False
    suppressed_by_oracle: bool = False
    tag_hit: bool = False

    @property
    def is_reverse(self) -> bool:
        return bool(self.entry is not None and self.entry.is_reverse)


# Shared decisions for every outcome that does not integrate (treat them as
# read-only): only an integration carries per-call data, its entry.
NO_INTEGRATION = IntegrationDecision(integrate=False)
_LISP_SUPPRESSED = IntegrationDecision(integrate=False,
                                       suppressed_by_lisp=True)
_TAG_HIT = IntegrationDecision(integrate=False, tag_hit=True)
_TAG_HIT_ORACLE_SUPPRESSED = IntegrationDecision(
    integrate=False, tag_hit=True, suppressed_by_oracle=True)


class IntegrationLogic:
    """The integration test plus the IT's entry creation and placement."""

    def __init__(self, config: IntegrationConfig, prf: PhysicalRegisterFile):
        entries = config.it_entries
        assoc = config.it_assoc
        if entries <= 0:
            raise ValueError("IT needs at least one entry")
        if assoc == 0 or assoc >= entries:
            assoc = entries          # fully associative
        if entries % assoc:
            raise ValueError("IT entry count must be a multiple of the "
                             "associativity")
        self.config = config
        self.prf = prf
        self.lisp = (LoadIntegrationSuppressionPredictor(config.lisp_entries,
                                                         config.lisp_assoc)
                     if config.lisp_mode is LispMode.REALISTIC else None)
        self._num_sets = num_sets = entries // assoc
        self._assoc = assoc
        #: Each IT set in recency order, least recently used first.
        self._sets: List[List[ITEntry]] = [[] for _ in range(num_sets)]
        # Config-derived constants, hoisted out of the per-rename path.
        scheme = config.index_scheme
        self._pc_scheme = scheme is IndexScheme.PC
        self._depth_in_index = scheme is IndexScheme.OPCODE_IMM_CALLDEPTH
        self._lisp_realistic = self.lisp is not None
        self._squash_only = not config.general_reuse
        self._oracle_loads = config.lisp_mode is LispMode.ORACLE
        # False under PC indexing (see ``IntegrationConfig``): an ``lda
        # sp`` would integrate the old stack pointer from a reverse entry
        # its own earlier instance made.
        self._reverse = config.reverse
        self._reverse_sp_only = config.reverse_sp_only

    # ------------------------------------------------------------------
    # the integration test
    # ------------------------------------------------------------------
    def consider(self, dyn: DynInst, call_depth: int,
                 oracle_allow: Optional[OracleCheck] = None
                 ) -> IntegrationDecision:
        """Decide whether ``dyn`` can integrate an existing result.

        ``dyn`` must already have its sources looked up (the rename
        stage, :meth:`~repro.core.stages.rename.RenameIntegrate.tick`,
        sets ``src_key``).  ``oracle_allow`` implements oracle load-suppression
        when the configuration asks for it.

        The indexed set is walked from its most recently used end, checking
        tag, inputs (with generations) and output eligibility, and the walk
        stops at the first entry that passes -- and that the oracle, when
        it applies, allows.  A successful integration moves its entry to the
        most recently used end of the set.
        """
        info = dyn.info
        if not info.integrable:
            return NO_INTEGRATION
        inst = dyn.inst
        oracle = None
        if info.is_load:
            if self._lisp_realistic and self.lisp.suppresses(inst.pc):
                return _LISP_SUPPRESSED
            if self._oracle_loads:
                oracle = oracle_allow
        # The set and tag, as create_entries places entries.
        if self._pc_scheme:
            tag = inst.pc
            index = tag // INST_SIZE
        else:
            tag = inst.it_tag
            index = inst.it_key
            if self._depth_in_index:
                index ^= call_depth
        cache_set = self._sets[index % self._num_sets]
        inputs = dyn.src_key
        tag_hit = suppressed = False
        for entry in reversed(cache_set):
            if entry.tag != tag:
                continue
            tag_hit = True
            if entry.inputs != inputs:
                continue
            if info.is_cond_branch:
                if entry.branch_outcome is None:
                    continue
            else:
                out = entry.out
                if out is None or not self.prf.integration_eligible(
                        out, entry.out_gen, self._squash_only):
                    continue
            if oracle is not None and not oracle(dyn, entry):
                suppressed = True
                continue
            break
        else:
            # No entry passed.
            if not tag_hit:
                return NO_INTEGRATION
            return _TAG_HIT_ORACLE_SUPPRESSED if suppressed else _TAG_HIT
        cache_set.remove(entry)
        cache_set.append(entry)
        return IntegrationDecision(True, entry, False, suppressed, True)

    # ------------------------------------------------------------------
    # entry creation (integration failed, or store reverse entries)
    # ------------------------------------------------------------------
    def create_entries(self, dyn: DynInst, call_depth: int) -> None:
        """Create and place IT entries for an instruction that did not
        integrate.

        Direct entries describe the instruction itself; reverse entries,
        created only under operation indexing, describe its inverse
        (extension 3): a store creates the complementary load entry, a
        stack-pointer ``lda`` creates the entry for the opposite
        adjustment.  Which instructions create entries
        (``it_creates``), the tags and the set keys come precomputed on the
        static instruction; every entry's inputs and output are slices of
        ``dyn.src_key`` or the just-renamed destination.

        Placement (paper Section 2.3) is stated once, at the end, for each
        entry: the set index is the entry's key (``StaticInst.it_key`` or
        ``it_reverse_key``) with the call depth XORed in under the enhanced
        scheme, or the PC under PC indexing (``consider`` probes the same
        set); the entry becomes its set's most recently used, evicting the
        least recently used one when the set is full.  The tag is minimal:
        the PC under PC indexing, else the operation, so different call
        depths can match in a set.  A reverse entry is tagged and placed by
        its operation.
        """
        inst = dyn.inst
        if not inst.it_creates:
            return
        key = dyn.src_key
        pc_scheme = self._pc_scheme
        reverse = None
        if dyn.info.is_store:
            # Store sources are [data, base]; the reverse load reads the
            # base and produces the data register: <ld/imm, base, -, data>.
            if not self._reverse or (self._reverse_sp_only
                                     and inst.rb != REG_SP):
                return
            entry = ITEntry(inst.it_reverse_tag, key[2:], key[0], key[1],
                            True, dyn.seq)
            set_key = inst.it_reverse_key
        else:
            # A branch (no destination: out None, generation 0) or a
            # register write, which rename has just mapped.
            out = dyn.dest_preg
            out_gen = dyn.dest_gen
            entry = dyn.it_entry = ITEntry(
                inst.pc if pc_scheme else inst.it_tag, key, out, out_gen,
                False, dyn.seq)
            set_key = inst.it_key
            # Reverse entry for stack-pointer adjustments: lda sp, imm(sp)
            # creates <lda/-imm, new_sp, -, old_sp>.
            if self._reverse and inst.it_reverse_key is not None:
                reverse = ITEntry(inst.it_reverse_tag, (out, out_gen),
                                  key[0], key[1], True, dyn.seq)
        # Place the entry, then the reverse entry if there is one.
        sets = self._sets
        while True:
            if pc_scheme:
                index = inst.pc // INST_SIZE
            elif self._depth_in_index:
                index = set_key ^ call_depth
            else:
                index = set_key
            cache_set = sets[index % self._num_sets]
            if len(cache_set) >= self._assoc:
                del cache_set[0]
            cache_set.append(entry)
            if reverse is None:
                return
            entry, reverse, set_key = reverse, None, inst.it_reverse_key

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def record_branch_outcome(self, dyn: DynInst, taken: bool) -> None:
        """Fill in the resolved direction of a branch's IT entry so younger
        instances can integrate (bypass execution and resolve early)."""
        entry = dyn.it_entry
        if entry is not None and entry.out is None:
            entry.branch_outcome = taken

    def train_lisp(self, pc: int) -> None:
        """Record a load mis-integration detected by DIVA."""
        if self.lisp is not None:
            self.lisp.train(pc)


class NullIntegrationLogic(IntegrationLogic):
    """Integration logic that never integrates and keeps no table: what a
    disabled configuration, and the ``no-integration`` variant, build."""

    lisp = None

    def __init__(self) -> None:
        pass

    def consider(self, dyn, call_depth, oracle_allow=None
                 ) -> IntegrationDecision:
        return NO_INTEGRATION

    def create_entries(self, dyn, call_depth) -> None:
        return None
