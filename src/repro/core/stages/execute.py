"""The out-of-order execution engine: schedule, register read, execute,
writeback.

:class:`IssueExecute` owns the wakeup and completion event queues, selects
ready instructions from the reservation stations, models execution and
memory-access latencies, and resolves branches, indirect jumps and stores as
their results become available.

The per-instruction work dispatches on the precomputed ``OpInfo.kind_code``,
reads its operands through ``dyn.src_pregs`` and evaluates ALU operations
through the per-opcode handlers on ``OpInfo`` -- the inner loop performs no
enum hashing and builds no intermediate operand lists.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, List

from repro.core.diva import SimulationError
from repro.core.stages.base import PipelineState, RecoveryController
from repro.isa import semantics
from repro.isa.instruction import DynInst
from repro.isa.opcodes import (KIND_ALU, KIND_BRANCH, KIND_INDIRECT,
                                KIND_LOAD, KIND_STORE, OpClass)
from repro.isa.program import INST_SIZE

_MASK64 = semantics.MASK64


class IssueExecute:
    """Scheduler + functional units + load/store pipeline."""

    def __init__(self, state: PipelineState, recovery: RecoveryController):
        self.state = state
        self.recovery = recovery
        self.wakeup_events: Dict[int, List] = {}
        self.complete_events: Dict[int, List[DynInst]] = {}
        #: Min-heap of cycles with scheduled events (lazily pruned); the
        #: engine's cycle elision uses it to jump the clock to the next
        #: cycle with work.
        self.event_cycles: List[int] = []

    # ==================================================================
    # writeback: wakeups and completions scheduled in earlier cycles
    # ==================================================================
    def writeback(self) -> None:
        state = self.state
        cycle = state.cycle
        wakeups = self.wakeup_events.pop(cycle, None)
        if wakeups:
            # PhysicalRegisterFile.set_value, inlined: write the value and
            # fire the scheduler's wakeup on the not-ready -> ready edge.
            prf = state.prf
            values = prf.values
            ready = prf.ready
            on_ready = prf.on_ready
            for dyn, value in wakeups:
                preg = dyn.dest_preg
                # ``not preg``: no destination (None) or the zero register.
                if dyn.squashed or not preg:
                    continue
                values[preg] = value
                if not ready[preg]:
                    ready[preg] = True
                    if on_ready is not None:
                        on_ready(preg)
        completions = self.complete_events.pop(cycle, None)
        if completions:
            tracer = state.tracer
            for dyn in completions:
                if dyn.squashed:
                    continue
                dyn.completed = True
                dyn.complete_cycle = cycle
                if tracer is not None:
                    tracer.on_complete(dyn, cycle)
                # Branches, stores and indirect jumps resolve on completion.
                kind = dyn.info.kind_code
                if kind == KIND_BRANCH:
                    self._resolve_branch(dyn)
                elif kind == KIND_STORE:
                    self._resolve_store(dyn)
                elif kind == KIND_INDIRECT:
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
        stats = state.stats
        stats.memory_order_violations += 1
        stats.cht_trainings += 1
        state.cht.train(victim.inst.pc)
        self.recovery.squash_from(victim, redirect_pc=victim.inst.pc)

    # ==================================================================
    # issue + execute
    # ==================================================================
    def tick(self) -> None:
        state = self.state
        selected = state.rs.select(self._load_can_issue)
        if not selected:
            return
        config = state.config
        cycle = state.cycle
        stats = state.stats
        tracer = state.tracer
        prf_values = state.prf.values
        regread = config.regread_stages
        wb = config.writeback_stages
        schedule = self._schedule
        # Execute the issue group: dispatch on the precomputed kind code and
        # schedule each result's wakeup and completion.
        for dyn in selected:
            dyn.issued = True
            stats.issued += 1
            if tracer is not None:
                tracer.on_issue(dyn, cycle)
            inst = dyn.inst
            info = dyn.info
            kind = info.kind_code
            srcs = dyn.src_pregs
            nsrc = len(srcs)
            a = prf_values[srcs[0]] if nsrc else 0
            if kind == KIND_ALU:                        # ALU / FP
                b = prf_values[srcs[1]] if nsrc > 1 else 0
                if info.eval_is_fp:
                    result = info.eval_fn(a, b, inst.imm)
                else:
                    # Wrong-path execution can feed an integer operation a
                    # register that last held a float; truncate (the result
                    # is discarded at the squash anyway).
                    if type(a) is float:
                        a = int(a)
                    if type(b) is float:
                        b = int(b)
                    result = info.eval_fn(a, b, inst.imm)
                latency = info.latency
                schedule(dyn, latency, result, regread + latency + wb)
            elif kind == KIND_BRANCH:                   # conditional branch
                taken = info.branch_fn(semantics.to_signed(int(a)))
                dyn.branch_taken = taken
                dyn.next_pc = inst.target if taken else inst.pc + INST_SIZE
                schedule(dyn, None, None, regread + 1 + wb)
            elif kind == KIND_INDIRECT:                 # indirect control
                target = int(a) & _MASK64
                dyn.next_pc = target
                if (info.cls is OpClass.CALL_INDIRECT
                        and dyn.dest_preg is not None):
                    schedule(dyn, 1, inst.pc + INST_SIZE, regread + 1 + wb)
                else:
                    schedule(dyn, None, None, regread + 1 + wb)
            elif kind == KIND_LOAD:
                self._execute_load(dyn, a)
            elif kind == KIND_STORE:
                b = prf_values[srcs[1]] if nsrc > 1 else 0
                addr = (int(b) + inst.imm) & _MASK64
                dyn.eff_addr = addr
                dyn.store_value = (int(a) & semantics.MASK32
                                   if info.is_stl else a)
                stats.executed_stores += 1
                agen = config.memsys.address_generation_latency
                schedule(dyn, None, None, regread + agen + wb)
            else:  # pragma: no cover - such classes never enter the RS
                raise SimulationError(f"unexpected issue of {dyn}")

    def _load_can_issue(self, dyn: DynInst) -> bool:
        state = self.state
        base = state.prf.values[dyn.src_pregs[0]]
        addr = (int(base) + dyn.inst.imm) & _MASK64
        if state.cht.predicts_collision(dyn.inst.pc):
            # The hit statistic counts dynamic loads whose issue consulted a
            # collision prediction -- once per load, not once per re-poll of
            # a stalled load.
            if not dyn.cht_counted:
                dyn.cht_counted = True
                state.stats.cht_hits += 1
            if state.lsq.older_stores_unresolved(dyn):
                return False
        # Cache the probe for _execute_load: nothing between select and
        # execute within a cycle changes the store image the LSQ exposes.
        dyn.issue_probe = (state.cycle, addr,
                           state.lsq.forward_from(dyn, addr))
        return True

    def _execute_load(self, dyn: DynInst, base) -> None:
        state = self.state
        config = state.config
        agen = config.memsys.address_generation_latency
        # Reuse the issue-check probe computed by _load_can_issue this
        # cycle: the LSQ store image cannot change between select and
        # execute (stores resolve at completion, in writeback).
        probe = dyn.issue_probe
        if probe is not None and probe[0] == state.cycle:
            _, addr, store = probe
        else:
            addr = (int(base) + dyn.inst.imm) & _MASK64
            store = state.lsq.forward_from(dyn, addr)
        dyn.eff_addr = addr
        state.lsq.record_load(dyn, addr)
        state.stats.executed_loads += 1
        if store is not None:
            latency = agen + config.memsys.store_forward_latency
            value = store.store_value
        else:
            latency = agen + state.mem.load(addr, state.cycle + agen)
            value = state.arch.memory.read(addr)
        if dyn.info.is_ldl:
            value = semantics.to_unsigned(
                semantics.to_signed(int(value) & semantics.MASK32, 32))
        self._schedule(dyn, latency, value, config.regread_stages + latency
                       + config.writeback_stages)

    def _schedule(self, dyn: DynInst, wake_delay, value,
                  complete_delay: int) -> None:
        """Schedule ``dyn``'s completion ``complete_delay`` cycles from now
        and, unless ``wake_delay`` is None, the write of ``value`` to its
        destination (which wakes its consumers) ``wake_delay`` cycles from
        now.  Both delays count at least one cycle."""
        now = self.state.cycle
        wakeup_events = self.wakeup_events
        complete_events = self.complete_events
        if wake_delay is not None:
            cycle = now + (wake_delay if wake_delay > 1 else 1)
            bucket = wakeup_events.get(cycle)
            if bucket is None:
                wakeup_events[cycle] = [(dyn, value)]
                if cycle not in complete_events:
                    heappush(self.event_cycles, cycle)
            else:
                bucket.append((dyn, value))
        cycle = now + (complete_delay if complete_delay > 1 else 1)
        bucket = complete_events.get(cycle)
        if bucket is None:
            complete_events[cycle] = [dyn]
            if cycle not in wakeup_events:
                heappush(self.event_cycles, cycle)
        else:
            bucket.append(dyn)
