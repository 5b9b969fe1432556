"""Rename-time integration logic.

For every instruction being renamed the logic performs the operational
equivalence test against the integration table: same operation (PC or
opcode/immediate depending on the index scheme) applied to the same physical
input registers at the same generations, with an integration-eligible output
register.  On success the instruction *integrates*: its destination logical
register is simply pointed at the existing physical register and the
instruction bypasses the out-of-order execution engine.  On failure the
instruction is renamed conventionally and new IT entries are created --
including *reverse* entries for stack stores and stack-pointer adjustments
(extension 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.integration.config import IntegrationConfig, LispMode
from repro.integration.lisp import LoadIntegrationSuppressionPredictor
from repro.integration.table import IntegrationTable, ITEntry
from repro.isa.instruction import DynInst
from repro.isa.registers import REG_SP
from repro.rename.physical import PhysicalRegisterFile

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
    """The integration test plus IT entry creation."""

    def __init__(self, config: IntegrationConfig, prf: PhysicalRegisterFile,
                 table: Optional[IntegrationTable] = None,
                 lisp: Optional[LoadIntegrationSuppressionPredictor] = None):
        self.config = config
        self.prf = prf
        self.table = table or IntegrationTable(config.it_entries,
                                               config.it_assoc,
                                               config.index_scheme)
        if lisp is None and config.lisp_mode is LispMode.REALISTIC:
            lisp = LoadIntegrationSuppressionPredictor(config.lisp_entries,
                                                       config.lisp_assoc)
        self.lisp = lisp
        # Config-derived constants hoisted out of the per-rename path (the
        # config is immutable for the lifetime of the logic).
        self._enabled = config.enabled
        self._lisp_realistic = (config.lisp_mode is LispMode.REALISTIC
                                and lisp is not None)
        self._squash_only = not config.general_reuse
        self._oracle_loads = config.lisp_mode is LispMode.ORACLE
        self._reverse = config.reverse
        self._reverse_sp_only = config.reverse_sp_only

    # ------------------------------------------------------------------
    # the integration test
    # ------------------------------------------------------------------
    def consider(self, dyn: DynInst, call_depth: int,
                 oracle_allow: Optional[OracleCheck] = None
                 ) -> IntegrationDecision:
        """Decide whether ``dyn`` can integrate an existing result.

        ``dyn`` must already have its sources looked up
        (:meth:`~repro.rename.renamer.Renamer.lookup_sources` sets
        ``src_key``).  ``oracle_allow`` implements oracle load-suppression
        when the configuration asks for it.

        The indexed set is walked from its most recently used end, checking
        tag, inputs (with generations) and output eligibility, and the walk
        stops at the first entry that passes -- and that the oracle, when
        it applies, allows.  A successful integration moves its entry to the
        most recently used end of the set.
        """
        if not self._enabled:
            return NO_INTEGRATION
        info = dyn.info
        if not info.integrable:
            return NO_INTEGRATION
        inst = dyn.inst
        pc = inst.pc
        if info.is_load:
            if self._lisp_realistic and self.lisp.suppresses(pc):
                return _LISP_SUPPRESSED
            oracle = oracle_allow if self._oracle_loads else None
        else:
            oracle = None

        table = self.table
        table.stats.lookups += 1
        cache_set = table._sets[table.index_of(pc, inst.it_key, call_depth)]
        inputs = dyn.src_key
        pc_scheme = table._pc_scheme
        op = inst.op
        imm = inst.imm
        is_branch_op = info.is_cond_branch
        eligible = self.prf.integration_eligible
        squash_only = self._squash_only
        tag_hit = False
        suppressed = False
        best = None
        for entry in reversed(cache_set):
            if pc_scheme:
                if entry.pc != pc:
                    continue
            elif entry.opcode is not op or entry.imm != imm:
                continue
            tag_hit = True
            if entry.inputs != inputs:
                continue
            if is_branch_op:
                if entry.branch_outcome is None:
                    continue
            else:
                out = entry.out
                if out is None or not eligible(out, entry.out_gen,
                                               squash_only):
                    continue
            if oracle is not None and not oracle(dyn, entry):
                suppressed = True
                continue
            best = entry
            break
        if not tag_hit:
            return NO_INTEGRATION
        table.stats.tag_hits += 1
        if best is None:
            return _TAG_HIT_ORACLE_SUPPRESSED if suppressed else _TAG_HIT
        cache_set.remove(best)
        cache_set.append(best)
        return IntegrationDecision(True, best, False, suppressed, True)

    # ------------------------------------------------------------------
    # entry creation (integration failed, or store reverse entries)
    # ------------------------------------------------------------------
    def create_entries(self, dyn: DynInst, call_depth: int) -> None:
        """Create IT entries for an instruction that did not integrate.

        Direct entries describe the instruction itself; reverse entries
        describe its inverse (extension 3): a store creates the
        complementary load entry, a stack-pointer ``lda`` creates the entry
        for the opposite adjustment.  Which instructions create entries
        (``it_creates``), their reverse operations and the set keys come
        precomputed on the static instruction; every entry's inputs and
        output are slices of ``dyn.src_key`` or the just-renamed
        destination.
        """
        inst = dyn.inst
        if not self._enabled or not inst.it_creates:
            return
        info = dyn.info
        table = self.table
        key = dyn.src_key

        if info.is_store:
            # Store sources are [data, base]; the reverse load reads the
            # base and produces the data register: <ld/imm, base, -, data>.
            if self._reverse and not (self._reverse_sp_only
                                      and inst.rb != REG_SP):
                rev_op, rev_imm = inst.it_reverse_tag
                table.insert(ITEntry(inst.pc, rev_op, rev_imm, key[2:],
                                     key[0], key[1], True, dyn.seq),
                             inst.it_reverse_key, call_depth)
            return

        if info.is_cond_branch:
            dyn.it_entry = table.insert(
                ITEntry(inst.pc, inst.op, inst.imm, key, None, 0, False,
                        dyn.seq),
                inst.it_key, call_depth)
            return

        # Any other creator writes a register, which rename has just mapped.
        out = dyn.dest_preg
        out_gen = dyn.dest_gen
        dyn.it_entry = table.insert(
            ITEntry(inst.pc, inst.op, inst.imm, key, out, out_gen, False,
                    dyn.seq),
            inst.it_key, call_depth)

        # Reverse entry for stack-pointer adjustments: lda sp, imm(sp)
        # creates <lda/-imm, new_sp, -, old_sp>.
        if self._reverse and inst.it_reverse_key is not None:
            rev_op, rev_imm = inst.it_reverse_tag
            table.insert(ITEntry(inst.pc, rev_op, rev_imm, (out, out_gen),
                                 key[0], key[1], True, dyn.seq),
                         inst.it_reverse_key, call_depth)

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
