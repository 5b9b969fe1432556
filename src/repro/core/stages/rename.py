"""The rename stage, where register integration happens.

:class:`RenameIntegrate` pulls decoded instructions from the front-end
queue, renames their sources, consults the integration table and either
points the instruction at an existing physical register (integration: the
instruction leaves the pipeline here, never issuing) or allocates a fresh
destination and dispatches it to the out-of-order engine.

The per-instruction work is written flat: source lookup reads the map-table
arrays directly, the integration preconditions (enabled, integrable opcode)
are tested before calling into the integration logic, and the destination
rename uses the allocation-free :meth:`~repro.rename.renamer.Renamer.
rename_dest` code path.  All decisions and statistics are identical to the
layered equivalents the unit tests exercise.
"""

from __future__ import annotations

from repro.core.stages.base import PipelineState, RecoveryController
from repro.core.stages.frontend import FrontEnd
from repro.core.stats import ResultStatus
from repro.integration.config import LispMode
from repro.isa import semantics
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE
from repro.isa.registers import REG_FZERO, REG_ZERO
from repro.rename.physical import ZERO_PREG


class RenameIntegrate:
    """Rename + integration: the paper's modified register-rename stage."""

    name = "rename"

    def __init__(self, state: PipelineState, frontend: FrontEnd,
                 recovery: RecoveryController):
        self.state = state
        self.frontend = frontend
        self.recovery = recovery
        icfg = state.config.integration
        # Hoisted integration preconditions (the config is immutable).
        self._int_enabled = icfg.enabled
        self._oracle_loads = icfg.lisp_mode is LispMode.ORACLE

    # ------------------------------------------------------------------
    def tick(self) -> None:
        state = self.state
        cycle = state.cycle
        fetch_queue = self.frontend.fetch_queue
        if not fetch_queue:
            return
        rob = state.rob
        rob_entries = rob._entries
        rob_size = rob.size
        rs = state.rs
        rs_waiting = rs._waiting
        rs_entries = rs.entries
        lsq = state.lsq
        lsq_by_seq = lsq._by_seq
        lsq_size = lsq.size
        stats = state.stats
        rename_one = self._rename_one
        renamed = 0
        width = state.config.rename_width
        tracer = state.tracer
        while renamed < width and fetch_queue:
            dyn, ready_cycle = fetch_queue[0]
            if ready_cycle > cycle or len(rob_entries) >= rob_size:
                break
            info = dyn.info
            if info.needs_rs and len(rs_waiting) >= rs_entries:
                break
            if info.is_mem and len(lsq_by_seq) >= lsq_size:
                break
            # Remove the instruction from the front-end queue before renaming
            # it: an integrated branch that redirects fetch flushes the queue
            # and must not flush itself.
            fetch_queue.popleft()
            if not rename_one(dyn):
                fetch_queue.appendleft((dyn, ready_cycle))
                break
            dyn.rename_cycle = cycle
            rob.push(dyn)
            stats.renamed += 1
            renamed += 1
            if tracer is not None:
                tracer.on_rename(dyn, cycle)
            # An integrated branch that redirected fetch ends the rename
            # group (everything behind it in the queue was flushed).
            if dyn.branch_mispredicted and dyn.integrated:
                break

    def flush(self, redirect_pc: int) -> None:
        """Rename holds no inter-cycle state; nothing to discard."""

    # ------------------------------------------------------------------
    def _rename_one(self, dyn: DynInst) -> bool:
        """Rename (or integrate) one instruction; False means stall."""
        state = self.state
        inst = dyn.inst
        info = dyn.info

        # Source lookup (Renamer.lookup_sources, inlined).
        map_table = state.map_table
        mt_pregs = map_table._pregs
        mt_gens = map_table._gens
        pregs = []
        gens = []
        for logical in inst.srcs:
            if logical == REG_ZERO or logical == REG_FZERO:
                pregs.append(ZERO_PREG)
                gens.append(0)
            else:
                pregs.append(mt_pregs[logical])
                gens.append(mt_gens[logical])
        dyn.src_pregs = pregs
        dyn.src_gens = gens

        if self._int_enabled and info.integrable:
            oracle = (self._oracle_allow
                      if self._oracle_loads and info.is_load else None)
            decision = state.integration.consider(dyn, dyn.call_depth,
                                                  oracle)
            if decision.suppressed_by_lisp or decision.suppressed_by_oracle:
                state.stats.lisp_suppressed += 1
            if decision.integrate:
                if self._apply_integration(dyn, decision):
                    return True
                state.stats.refcount_saturation_failures += 1

        code = state.renamer.rename_dest(dyn)
        if code < 0:
            return False
        if code > 0:
            state.preg_producer[dyn.dest_preg] = dyn
        if self._int_enabled and inst.it_creates:
            state.integration.create_entries(dyn, dyn.call_depth)

        cycle = state.cycle
        cls = dyn.cls
        if cls is OpClass.CALL_DIRECT:
            link = inst.pc + INST_SIZE
            if dyn.dest_preg is not None:
                state.prf.set_value(dyn.dest_preg, link)
            dyn.result = link
            dyn.executed = True
            dyn.completed = True
            dyn.complete_cycle = cycle
        elif info.rename_complete:
            dyn.executed = True
            dyn.completed = True
            dyn.complete_cycle = cycle
        else:
            state.rs.insert(dyn)
            if info.is_mem:
                state.lsq.insert(dyn)
            dyn.dispatch_cycle = cycle
        return True

    def _mark_rename_complete(self, dyn: DynInst) -> None:
        dyn.executed = True
        dyn.completed = True
        dyn.complete_cycle = self.state.cycle

    # ------------------------------------------------------------------
    def _apply_integration(self, dyn: DynInst, decision) -> bool:
        """Point the instruction at the matched IT entry's result."""
        state = self.state
        entry = decision.entry
        if dyn.info.is_cond_branch:
            self._integrate_branch(dyn, entry)
            return True
        status = self._result_status(entry.out)
        if not state.renamer.integrate_dest(dyn, entry.out, entry.out_gen):
            return False
        dyn.integrated = True
        dyn.reverse_integrated = entry.is_reverse
        dyn.integration_distance = max(0, dyn.seq - entry.creator_seq)
        dyn.integration_status = status
        dyn.integration_refcount = state.prf.refcount[entry.out]
        self._mark_rename_complete(dyn)
        return True

    def _integrate_branch(self, dyn: DynInst, entry) -> None:
        """An integrating conditional branch resolves at rename."""
        state = self.state
        inst = dyn.inst
        outcome = bool(entry.branch_outcome)
        dyn.integrated = True
        dyn.reverse_integrated = entry.is_reverse
        dyn.integration_distance = max(0, dyn.seq - entry.creator_seq)
        dyn.branch_taken = outcome
        dyn.next_pc = inst.target if outcome else inst.pc + INST_SIZE
        self._mark_rename_complete(dyn)
        prediction = state.predictions.get(dyn.seq)
        if prediction is None:
            return
        mispredicted = state.predictor.resolve(inst, prediction, outcome,
                                               dyn.next_pc)
        if mispredicted:
            # Early resolution at rename: nothing younger has been renamed
            # yet, so only the front-end queues need flushing.
            dyn.branch_mispredicted = True
            self.frontend.flush(dyn.next_pc)
            self.recovery.recover_predictor_after(dyn, outcome, dyn.next_pc)

    def _result_status(self, preg: int) -> ResultStatus:
        """State of the to-be-integrated result (Figure 5 Status breakdown)."""
        state = self.state
        if state.prf.refcount[preg] == 0:
            return ResultStatus.SHADOW_SQUASH
        producer = state.preg_producer.get(preg)
        if producer is None or producer.retire_cycle >= 0:
            return ResultStatus.RETIRE
        if producer.issued or producer.completed:
            return ResultStatus.ISSUE
        return ResultStatus.RENAME

    def _oracle_allow(self, dyn: DynInst, entry) -> bool:
        """Approximate oracle load-suppression: allow the integration only if
        the value it would reuse matches the best currently-knowable value of
        the load (store-queue forwarding or committed memory)."""
        state = self.state
        if entry.out is None or not state.prf.ready[entry.out]:
            return True
        base_preg = dyn.src_pregs[0]
        if not state.prf.ready[base_preg]:
            return True
        addr = semantics.effective_address(state.prf.value(base_preg),
                                           dyn.inst.imm)
        store, data_ready = state.lsq.forward_from(dyn, addr)
        if store is not None:
            if not data_ready:
                return True
            expected = store.store_value
        else:
            expected = state.arch.memory.read(addr)
        expected = semantics.narrow_load_value(dyn.op, expected)
        return expected == state.prf.value(entry.out)
