"""The rename stage, where register integration happens.

:class:`RenameIntegrate` pulls decoded instructions from the front-end
queue, renames their sources, consults the integration table and either
points the instruction at an existing physical register (integration: the
instruction leaves the pipeline here, never issuing) or allocates a fresh
destination and dispatches it to the out-of-order engine.

Renaming is one loop over the front-end queue, and it holds the rename
rules themselves.  Each instruction's sources are looked up once from the
map table's arrays, setting ``dyn.src_pregs`` and ``dyn.src_key``, and the
integration probe and entry creation both work from that key.  The
integration preconditions (enabled, integrable opcode) are tested before
calling into the integration logic.  A destination that does not integrate
claims a register from
:meth:`~repro.rename.physical.PhysicalRegisterFile.allocate` and records
the mapping it shadows, which retirement releases.
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


class RenameIntegrate:
    """Rename + integration: the paper's modified register-rename stage."""

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
        fetch_queue = self.frontend.fetch_queue
        if not fetch_queue:
            return
        # The head is tested before anything is hoisted: about a third of
        # the ticks stop on it (half on memory_wall), mostly on an
        # instruction still in fetch/decode or a full ROB.
        state = self.state
        cycle = state.cycle
        rob_entries = state.rob._entries
        rob_size = state.rob.size
        dyn, ready_cycle = fetch_queue[0]
        if ready_cycle > cycle or len(rob_entries) >= rob_size:
            return
        rs = state.rs
        rs_waiting = rs._waiting
        rs_entries = rs.entries
        lsq = state.lsq
        lsq_by_seq = lsq._by_seq
        lsq_size = lsq.size
        info = dyn.info
        if info.needs_rs and len(rs_waiting) >= rs_entries:
            return
        if info.is_mem and len(lsq_by_seq) >= lsq_size:
            return
        stats = state.stats
        allocate = state.prf.allocate
        prf_gen = state.prf.gen
        mt_pregs = state.map_table._pregs
        mt_gens = state.map_table._gens
        # Looked up on the instance every tick: a harness may wrap them.
        integration = state.integration
        consider = integration.consider
        create_entries = integration.create_entries
        int_enabled = self._int_enabled
        oracle = self._oracle_allow if self._oracle_loads else None
        preg_producer = state.preg_producer
        renamed = 0
        width = state.config.rename_width
        tracer = state.tracer
        while True:
            # Remove the instruction from the front-end queue before renaming
            # it: an integrated branch that redirects fetch flushes the queue
            # and must not flush itself.
            fetch_queue.popleft()
            # Source lookup: ``src_pregs`` are the registers the scheduler
            # waits on (a list: tuples measured a higher peak RSS), and
            # ``src_key`` is the flat ``(preg, gen[, preg, gen])`` tuple the
            # integration table matches and builds entries from.  The zero
            # registers need no special case: nothing ever remaps them, so
            # they read ``(ZERO_PREG, 0)`` like any other mapping.
            inst = dyn.inst
            srcs = inst.srcs
            if len(srcs) == 1:
                a = srcs[0]
                pa = mt_pregs[a]
                dyn.src_pregs = [pa]
                dyn.src_key = (pa, mt_gens[a])
            elif srcs:
                a, b = srcs
                pa = mt_pregs[a]
                pb = mt_pregs[b]
                dyn.src_pregs = [pa, pb]
                dyn.src_key = (pa, mt_gens[a], pb, mt_gens[b])
            else:
                dyn.src_pregs = []
                dyn.src_key = ()
            integrated = suppressed = saturated = False
            if int_enabled and info.integrable:
                decision = consider(dyn, dyn.call_depth, oracle)
                suppressed = (decision.suppressed_by_lisp
                              or decision.suppressed_by_oracle)
                if decision.integrate:
                    integrated = self._apply_integration(dyn, decision.entry)
                    saturated = not integrated
            if not integrated:
                # Conventional rename: claim a free register and shadow the
                # destination's previous mapping (released at retirement).
                # Stores, branches and zero-register writes map nothing.
                dest = inst.dest
                if dest is None or dest == REG_ZERO or dest == REG_FZERO:
                    dyn.dest_preg = None
                else:
                    preg = allocate()
                    if preg is None:
                        # Retried next cycle: its outcome counts only then.
                        fetch_queue.appendleft((dyn, ready_cycle))
                        break
                    gen = prf_gen[preg]
                    dyn.old_dest_preg = mt_pregs[dest]
                    dyn.old_dest_gen = mt_gens[dest]
                    dyn.dest_preg = preg
                    dyn.dest_gen = gen
                    mt_pregs[dest] = preg
                    mt_gens[dest] = gen
                    preg_producer[preg] = dyn
                if int_enabled and inst.it_creates:
                    create_entries(dyn, dyn.call_depth)
                if info.rename_complete:
                    # A direct call writes its link register here.
                    if info.cls is OpClass.CALL_DIRECT and (
                            dyn.dest_preg is not None):
                        state.prf.set_value(dyn.dest_preg,
                                            inst.pc + INST_SIZE)
                else:
                    rs.insert(dyn)
                    if info.is_mem:
                        lsq.insert(dyn)
                    dyn.dispatch_cycle = cycle
            if suppressed:
                stats.lisp_suppressed += 1
            if saturated:
                stats.refcount_saturation_failures += 1
            if integrated or info.rename_complete:
                # Integrated instructions, direct jumps/calls, syscalls and
                # nops finish at rename.
                dyn.completed = True
                dyn.complete_cycle = cycle
            dyn.rename_cycle = cycle
            rob_entries.append(dyn)
            renamed += 1
            if tracer is not None:
                tracer.on_rename(dyn, cycle)
            # An integrated branch that redirected fetch ends the rename
            # group (everything behind it in the queue was flushed).
            if ((dyn.branch_mispredicted and integrated) or renamed == width
                    or not fetch_queue):
                break
            dyn, ready_cycle = fetch_queue[0]
            if ready_cycle > cycle or len(rob_entries) >= rob_size:
                break
            info = dyn.info
            if info.needs_rs and len(rs_waiting) >= rs_entries:
                break
            if info.is_mem and len(lsq_by_seq) >= lsq_size:
                break
        stats.renamed += renamed

    # ------------------------------------------------------------------
    def _apply_integration(self, dyn: DynInst, entry) -> bool:
        """Point the instruction at the matched IT entry's result; False
        when the register's reference count is saturated.  The caller marks
        an integrated instruction complete."""
        state = self.state
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
        return True

    def _integrate_branch(self, dyn: DynInst, entry) -> None:
        """An integrating conditional branch resolves at rename."""
        state = self.state
        inst = dyn.inst
        outcome = bool(entry.branch_outcome)
        dyn.integrated = True
        dyn.reverse_integrated = entry.is_reverse
        dyn.integration_distance = max(0, dyn.seq - entry.creator_seq)
        # A branch shares no register: no Figure 5 status or refcount.
        dyn.integration_status = None
        dyn.integration_refcount = 0
        dyn.branch_taken = outcome
        dyn.next_pc = inst.target if outcome else inst.pc + INST_SIZE
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
        store = state.lsq.forward_from(dyn, addr)
        if store is not None:
            expected = store.store_value
        else:
            expected = state.arch.memory.read(addr)
        expected = semantics.narrow_load_value(dyn.inst.op, expected)
        return expected == state.prf.value(entry.out)
