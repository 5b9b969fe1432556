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
        config = state.config
        #: Stages every result passes besides its execution latency.
        self._regread_wb = config.regread_stages + config.writeback_stages
        self._agen = config.memsys.address_generation_latency
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
                    on_ready(preg)
        completions = self.complete_events.pop(cycle, None)
        if completions:
            tracer = state.tracer
            for dyn in completions:
                if dyn.squashed:
                    continue
                dyn.completed = True
                if tracer is not None:
                    tracer.on_complete(dyn, cycle)
                # Branches, stores and indirect jumps resolve on completion.
                kind = dyn.info.kind_code
                if kind <= KIND_LOAD:
                    continue
                if kind == KIND_BRANCH:
                    self._resolve_branch(dyn)
                elif kind == KIND_STORE:
                    self._resolve_store(dyn)
                else:
                    self._resolve_indirect(dyn)

    # ------------------------------------------------------------------
    def _resolve_branch(self, dyn: DynInst) -> None:
        """Resolution of an executed (non-integrated) conditional branch."""
        state = self.state
        dyn.complete_cycle = state.cycle
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
        cycle = state.cycle
        tracer = state.tracer
        prf_values = state.prf.values
        regread_wb = self._regread_wb
        wakeup_events = self.wakeup_events
        complete_events = self.complete_events
        state.stats.issued += len(selected)
        for dyn in selected:
            dyn.issued = True
            if tracer is not None:
                tracer.on_issue(dyn, cycle)
            # Execute: dispatch on the precomputed kind code.  ``wake`` is
            # the delay of the register write that wakes the consumers
            # (None: no register result), ``done`` that of completion.
            info = dyn.info
            kind = info.kind_code
            srcs = dyn.src_pregs
            a = prf_values[srcs[0]] if srcs else 0
            if kind == KIND_ALU:                        # ALU / FP
                b = prf_values[srcs[1]] if len(srcs) > 1 else 0
                if not info.eval_is_fp:
                    # Wrong-path execution can feed an integer operation a
                    # register that last held a float; truncate (the result
                    # is discarded at the squash anyway).
                    if type(a) is float:
                        a = int(a)
                    if type(b) is float:
                        b = int(b)
                result = info.eval_fn(a, b, dyn.inst.imm)
                wake = info.latency
                done = regread_wb + wake
            elif kind == KIND_LOAD:
                latency, result = self._execute_load(dyn, a)
                wake = latency if latency > 1 else 1
                done = regread_wb + latency
            elif kind == KIND_BRANCH:                   # conditional branch
                inst = dyn.inst
                taken = info.branch_fn(a)
                dyn.branch_taken = taken
                dyn.next_pc = inst.target if taken else inst.pc + INST_SIZE
                wake = None
                done = regread_wb + 1
            elif kind == KIND_INDIRECT:                 # indirect control
                dyn.next_pc = int(a) & _MASK64
                # Read only by the predictor repair, which ignores it for
                # anything but a conditional branch.
                dyn.branch_taken = True
                if (info.cls is OpClass.CALL_INDIRECT
                        and dyn.dest_preg is not None):
                    wake = 1
                    result = dyn.inst.pc + INST_SIZE
                else:
                    wake = None
                done = regread_wb + 1
            elif kind == KIND_STORE:
                b = prf_values[srcs[1]] if len(srcs) > 1 else 0
                addr = (int(b) + dyn.inst.imm) & _MASK64
                dyn.eff_addr = addr
                dyn.store_value = (int(a) & semantics.MASK32
                                   if info.is_stl else a)
                state.stats.executed_stores += 1
                done = regread_wb + self._agen
                wake = None
            else:  # pragma: no cover - such classes never enter the RS
                raise SimulationError(f"unexpected issue of {dyn}")
            # Schedule the events.  Each delay counts at least one cycle
            # (every opcode latency is at least 1; a load's wake is clamped
            # above).
            if wake is not None:
                when = cycle + wake
                bucket = wakeup_events.get(when)
                if bucket is None:
                    wakeup_events[when] = [(dyn, result)]
                    if when not in complete_events:
                        heappush(self.event_cycles, when)
                else:
                    bucket.append((dyn, result))
            when = cycle + (done if done > 1 else 1)
            bucket = complete_events.get(when)
            if bucket is None:
                complete_events[when] = [dyn]
                if when not in wakeup_events:
                    heappush(self.event_cycles, when)
            else:
                bucket.append(dyn)

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

    def _execute_load(self, dyn: DynInst, base):
        """Access memory for a selected load; returns ``(latency, value)``
        from its issue."""
        state = self.state
        agen = self._agen
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
            latency = agen + state.config.memsys.store_forward_latency
            value = store.store_value
        else:
            latency = agen + state.mem.load(addr, state.cycle + agen)
            value = state.arch.memory.read(addr)
        if dyn.info.is_ldl:
            value = semantics.to_unsigned(
                semantics.to_signed(int(value) & semantics.MASK32, 32))
        return latency, value
