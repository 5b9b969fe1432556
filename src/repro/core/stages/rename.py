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
from repro.integration.logic import NO_INTEGRATION
from repro.isa import semantics
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE


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
        self._width = state.config.rename_width

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
        prf = state.prf
        allocate = prf.allocate
        prf_gen = prf.gen
        mt_pregs = state.map_table._pregs
        mt_gens = state.map_table._gens
        int_enabled = self._int_enabled
        if int_enabled:
            # Looked up on the instance every tick: a harness may wrap them.
            integration = state.integration
            consider = integration.consider
            create_entries = integration.create_entries
            oracle = self._oracle_allow if self._oracle_loads else None
            preg_producer = state.preg_producer
            stats = state.stats
        renamed = 0
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
                a, = srcs
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
            if int_enabled:
                decision = (consider(dyn, dyn.call_depth, oracle)
                            if info.integrable else NO_INTEGRATION)
                integrated = decision.integrate and self._apply_integration(
                    dyn, decision.entry)
            else:
                integrated = False
            if integrated:
                # Integrated instructions finish at rename.
                dyn.completed = True
            else:
                # Conventional rename: claim a free register and shadow the
                # destination's previous mapping (released at retirement).
                # Stores, branches and zero-register writes map nothing.
                dest = inst.mapped_dest
                if dest is None:
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
                if info.rename_complete:
                    # Direct jumps and calls, syscalls and nops finish here;
                    # a direct call writes its link register.
                    dyn.completed = True
                    if info.cls is OpClass.CALL_DIRECT and (
                            dyn.dest_preg is not None):
                        prf.set_value(dyn.dest_preg, inst.pc + INST_SIZE)
                else:
                    rs.insert(dyn)
                    if info.is_mem:
                        lsq.insert(dyn)
            if int_enabled:
                if (decision.suppressed_by_lisp
                        or decision.suppressed_by_oracle):
                    stats.lisp_suppressed += 1
                if not integrated:
                    if decision.integrate:
                        # The entry matched, but its register's reference
                        # count is saturated.
                        stats.refcount_saturation_failures += 1
                    if dyn.dest_preg is not None:
                        # Read by _result_status only.
                        preg_producer[dyn.dest_preg] = dyn
                    if inst.it_creates:
                        create_entries(dyn, dyn.call_depth)
            dyn.rename_cycle = cycle
            rob_entries.append(dyn)
            renamed += 1
            if tracer is not None:
                tracer.on_rename(dyn, cycle)
            # An integrated branch that redirected fetch ends the rename
            # group (everything behind it in the queue was flushed).
            if ((integrated and dyn.branch_mispredicted)
                    or renamed == self._width or not fetch_queue):
                break
            dyn, ready_cycle = fetch_queue[0]
            if ready_cycle > cycle or len(rob_entries) >= rob_size:
                break
            info = dyn.info
            if info.needs_rs and len(rs_waiting) >= rs_entries:
                break
            if info.is_mem and len(lsq_by_seq) >= lsq_size:
                break
        state.stats.renamed += renamed

    # ------------------------------------------------------------------
    def _apply_integration(self, dyn: DynInst, entry) -> bool:
        """Point the instruction at the matched IT entry's result; False
        when the register's reference count is saturated.  The caller marks
        an integrated instruction complete."""
        state = self.state
        if dyn.info.is_cond_branch:
            # A branch shares no register: no Figure 5 status or refcount.
            dyn.dest_preg = status = None
            refcount = 0
            self._integrate_branch(dyn, entry)
        else:
            status = self._result_status(entry.out)
            if not state.renamer.integrate_dest(dyn, entry.out,
                                                entry.out_gen):
                return False
            refcount = state.prf.refcount[entry.out]
        dyn.integrated = True
        dyn.reverse_integrated = entry.is_reverse
        dyn.integration_distance = max(0, dyn.seq - entry.creator_seq)
        dyn.integration_status = status
        dyn.integration_refcount = refcount
        return True

    def _integrate_branch(self, dyn: DynInst, entry) -> None:
        """An integrating conditional branch resolves at rename."""
        state = self.state
        inst = dyn.inst
        outcome = bool(entry.branch_outcome)
        dyn.complete_cycle = state.cycle
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
        # Retirement is in order: a producer that was not squashed has
        # retired exactly when it is older than the oldest instruction in
        # flight.
        rob_entries = state.rob._entries
        if producer is None or not producer.squashed and (
                not rob_entries or producer.seq < rob_entries[0].seq):
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
