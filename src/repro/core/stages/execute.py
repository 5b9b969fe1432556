"""The out-of-order execution engine: schedule, register read, execute,
writeback.

:class:`IssueExecute` owns the wakeup and completion event queues, selects
ready instructions from the reservation stations, models execution and
memory-access latencies, and resolves branches, indirect jumps and stores as
their results become available.

The per-instruction work reads the structure-of-arrays
:class:`~repro.core.window.Window` (dispatch kind, source physical
registers, the per-cycle load-issue probe) and dispatches ALU evaluation
through the per-opcode handlers precomputed on ``OpInfo`` -- the inner loop
performs no enum hashing and builds no intermediate operand lists.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, List

from repro.core import kernel
from repro.core.diva import SimulationError
from repro.core.stages.base import PipelineState, RecoveryController
from repro.isa import semantics
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE

_MASK64 = semantics.MASK64


class IssueExecute:
    """Scheduler + functional units + load/store pipeline."""

    name = "execute"

    def __init__(self, state: PipelineState, recovery: RecoveryController):
        self.state = state
        self.recovery = recovery
        self.wakeup_events: Dict[int, List] = {}
        self.complete_events: Dict[int, List[DynInst]] = {}
        #: Min-heap of cycles with scheduled events (lazily pruned); the
        #: quiescent fast path in the engine uses it to jump the clock to
        #: the next cycle with work.
        self.event_cycles: List[int] = []
        # Optional compiled writeback drain (REPRO_KERNEL=compiled); a
        # bit-identical reimplementation of the Python loop in writeback.
        self._kernel_drain = None
        backend, module = kernel.select_backend()
        if backend == "compiled":
            self._kernel_drain = module.drain_wakeups

    # ==================================================================
    # writeback: wakeups and completions scheduled in earlier cycles
    # ==================================================================
    def writeback(self) -> None:
        state = self.state
        cycle = state.cycle
        wakeups = self.wakeup_events.pop(cycle, None)
        if wakeups:
            if self._kernel_drain is not None:
                prf = state.prf
                self._kernel_drain(wakeups, prf.values, prf.ready,
                                   prf.on_ready)
            else:
                set_value = state.prf.set_value
                for dyn, value in wakeups:
                    if dyn.squashed or dyn.dest_preg is None:
                        continue
                    set_value(dyn.dest_preg, value)
        completions = self.complete_events.pop(cycle, None)
        if completions:
            for dyn in completions:
                if dyn.squashed:
                    continue
                self._complete(dyn)

    def _complete(self, dyn: DynInst) -> None:
        dyn.completed = True
        dyn.executed = True
        dyn.complete_cycle = self.state.cycle
        tracer = self.state.tracer
        if tracer is not None:
            tracer.on_complete(dyn, self.state.cycle)
        cls = dyn.cls
        if cls is OpClass.COND_BRANCH:
            self._resolve_branch(dyn)
        elif cls is OpClass.STORE:
            self._resolve_store(dyn)
        elif dyn.info.is_indirect_ctl:
            self._resolve_indirect(dyn)

    # ------------------------------------------------------------------
    def _resolve_branch(self, dyn: DynInst) -> None:
        """Resolution of an executed (non-integrated) conditional branch."""
        state = self.state
        taken = dyn.branch_taken
        target = dyn.next_pc
        state.integration.record_branch_outcome(dyn, taken)
        prediction = state.predictions.get(dyn.seq)
        if prediction is None:
            return
        mispredicted = state.predictor.resolve(dyn.inst, prediction, taken,
                                               target)
        if mispredicted:
            dyn.branch_mispredicted = True
            self.recovery.squash_younger(dyn, redirect_pc=target)

    def _resolve_indirect(self, dyn: DynInst) -> None:
        state = self.state
        target = dyn.next_pc
        prediction = state.predictions.get(dyn.seq)
        if prediction is None:
            return
        mispredicted = state.predictor.resolve(dyn.inst, prediction, True,
                                               target)
        if mispredicted:
            dyn.branch_mispredicted = True
            self.recovery.squash_younger(dyn, redirect_pc=target)

    def _resolve_store(self, dyn: DynInst) -> None:
        state = self.state
        violations = state.lsq.resolve_store(dyn, dyn.eff_addr)
        if not violations:
            return
        victim = violations[0]
        victim.mem_mispeculated = True
        state.stats.memory_order_violations += 1
        state.cht.train(victim.inst.pc)
        self.recovery.squash_from(victim, redirect_pc=victim.pc)

    # ==================================================================
    # issue + execute
    # ==================================================================
    def tick(self) -> None:
        selected = self.state.rs.select(self._operands_ready,
                                        self._load_can_issue)
        if selected:
            execute = self._execute
            for dyn in selected:
                execute(dyn)

    def flush(self, redirect_pc: int) -> None:
        """Scheduled events survive a squash; squashed producers are
        filtered when their events fire."""

    def _operands_ready(self, dyn: DynInst) -> bool:
        ready = self.state.prf.ready
        for preg in dyn.src_pregs:
            if not ready[preg]:
                return False
        return True

    def _load_can_issue(self, dyn: DynInst) -> bool:
        state = self.state
        win = state.window
        seq = dyn.seq
        slot = seq & win.mask
        base = state.prf.values[win.src1[slot]]
        addr = (int(base) + dyn.inst.imm) & _MASK64
        if state.cht.predicts_collision(dyn.pc):
            # The hit statistic counts dynamic loads whose issue consulted a
            # collision prediction -- once per load, not once per re-poll of
            # a stalled load.
            if not win.cht_counted[slot]:
                win.cht_counted[slot] = True
                state.cht.record_hit()
            if state.lsq.older_stores_unresolved(dyn):
                return False
        store, data_ready = state.lsq.forward_from(dyn, addr)
        # Cache the probe for _execute_load: nothing between select and
        # execute within a cycle changes the store image the LSQ exposes.
        win.probe_cycle[slot] = state.cycle
        win.probe_addr[slot] = addr
        win.probe_store[slot] = store
        if store is not None and not data_ready:
            return False
        return True

    def _execute(self, dyn: DynInst) -> None:
        state = self.state
        config = state.config
        dyn.issued = True
        cycle = state.cycle
        state.stats.issued += 1
        tracer = state.tracer
        if tracer is not None:
            tracer.on_issue(dyn, cycle)
        inst = dyn.inst
        info = dyn.info
        win = state.window
        slot = dyn.seq & win.mask
        kind = win.kind[slot]
        prf_values = state.prf.values
        nsrc = win.nsrc[slot]
        a = prf_values[win.src1[slot]] if nsrc else 0
        regread = config.regread_stages
        wb = config.writeback_stages

        if kind == 0:                               # ALU / FP
            b = prf_values[win.src2[slot]] if nsrc > 1 else 0
            if info.eval_is_fp:
                result = info.eval_fn(a, b, inst.imm)
            else:
                # Wrong-path execution can feed an integer operation a
                # register that last held a float; truncate (the result is
                # discarded at the squash anyway).
                if type(a) is float:
                    a = int(a)
                if type(b) is float:
                    b = int(b)
                result = info.eval_fn(a, b, inst.imm)
            dyn.result = result
            latency = info.latency
            self._schedule_wakeup(dyn, latency, result)
            self._schedule_complete(dyn, regread + latency + wb)
        elif kind == 1:                             # conditional branch
            taken = info.branch_fn(semantics.to_signed(int(a)))
            dyn.branch_taken = taken
            dyn.next_pc = inst.target if taken else inst.pc + INST_SIZE
            self._schedule_complete(dyn, regread + 1 + wb)
        elif kind == 2:                             # indirect control
            target = int(a) & _MASK64
            dyn.next_pc = target
            if dyn.cls is OpClass.CALL_INDIRECT and dyn.dest_preg is not None:
                link = inst.pc + INST_SIZE
                dyn.result = link
                self._schedule_wakeup(dyn, 1, link)
            self._schedule_complete(dyn, regread + 1 + wb)
        elif kind == 3:                             # load
            self._execute_load(dyn, a, slot)
        elif kind == 4:                             # store
            b = prf_values[win.src2[slot]] if nsrc > 1 else 0
            addr = (int(b) + inst.imm) & _MASK64
            dyn.eff_addr = addr
            dyn.store_value = (int(a) & semantics.MASK32
                               if info.is_stl else a)
            state.stats.executed_stores += 1
            agen = config.memsys.address_generation_latency
            self._schedule_complete(dyn, regread + agen + wb)
        else:  # pragma: no cover - such classes never enter the RS
            raise SimulationError(f"unexpected issue of {dyn}")

    def _execute_load(self, dyn: DynInst, base, slot: int) -> None:
        state = self.state
        config = state.config
        inst = dyn.inst
        win = state.window
        agen = config.memsys.address_generation_latency
        # Reuse the issue-check probe computed by _load_can_issue this
        # cycle: the LSQ store image cannot change between select and
        # execute (stores resolve at completion, in writeback).
        if win.probe_cycle[slot] == state.cycle:
            addr = win.probe_addr[slot]
            store = win.probe_store[slot]
        else:
            addr = (int(base) + inst.imm) & _MASK64
            store, _ = state.lsq.forward_from(dyn, addr)
        dyn.eff_addr = addr
        state.lsq.record_load(dyn, addr)
        state.stats.executed_loads += 1
        if store is not None:
            latency = agen + config.memsys.store_forward_latency
            value = store.store_value
        else:
            access = state.mem.load(addr, state.cycle + agen)
            latency = agen + access.latency
            value = state.arch.memory.read(addr)
        if dyn.info.is_ldl:
            value = semantics.to_unsigned(
                semantics.to_signed(int(value) & semantics.MASK32, 32))
        dyn.result = value
        self._schedule_wakeup(dyn, latency, value)
        self._schedule_complete(dyn, config.regread_stages + latency
                                + config.writeback_stages)

    def _schedule_wakeup(self, dyn: DynInst, delay: int, value) -> None:
        cycle = self.state.cycle + (delay if delay > 1 else 1)
        bucket = self.wakeup_events.get(cycle)
        if bucket is None:
            self.wakeup_events[cycle] = [(dyn, value)]
            if cycle not in self.complete_events:
                heappush(self.event_cycles, cycle)
        else:
            bucket.append((dyn, value))

    def _schedule_complete(self, dyn: DynInst, delay: int) -> None:
        cycle = self.state.cycle + (delay if delay > 1 else 1)
        bucket = self.complete_events.get(cycle)
        if bucket is None:
            self.complete_events[cycle] = [dyn]
            if cycle not in self.wakeup_events:
                heappush(self.event_cycles, cycle)
        else:
            bucket.append(dyn)