"""The in-order front end: fetch and decode.

:class:`FrontEnd` owns the fetch program counter, the fetch/decode queue and
the interaction with the branch predictor and the instruction-side memory
path.  Fetched instructions are tagged with the cycle at which they become
visible to rename (modelling the 3 fetch + 1 decode stage latency plus any
instruction-cache miss stall).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.core.stages.base import PipelineState
from repro.isa.instruction import DynInst
from repro.isa.program import INST_SIZE


class FrontEnd:
    """Fetch + decode: keeps the rename stage fed with predicted-path work."""

    def __init__(self, state: PipelineState):
        self.state = state
        # Fetch starts at the architectural PC: the program entry for a
        # fresh run, the checkpoint PC when resuming a slice.
        self.fetch_pc = state.arch.pc
        self.fetch_resume_cycle = 0
        self.fetch_halted = False
        #: (DynInst, rename_ready_cycle) pairs in fetch order.
        self.fetch_queue: Deque[Tuple[DynInst, int]] = deque()

    # ------------------------------------------------------------------
    def tick(self) -> None:
        state = self.state
        config = state.config
        cycle = state.cycle
        if (self.fetch_halted or cycle < self.fetch_resume_cycle
                or len(self.fetch_queue) >= config.fetch_queue_size):
            return
        fetch_pc = self.fetch_pc
        program_at = state.program.at
        inst = program_at(fetch_pc)
        if inst is None:
            self.fetch_halted = True
            return
        latency = state.mem.ifetch(fetch_pc, cycle)
        ready_cycle = (cycle + config.fetch_stages + config.decode_stages
                       + max(0, latency - 1))
        predictor = state.predictor
        predictions = state.predictions
        fetch_queue = self.fetch_queue
        append = fetch_queue.append
        # The predictor only mutates on control-flow instructions, so one
        # checkpoint (an immutable tuple) is shared by every instruction
        # fetched since the last branch -- including across cycles via the
        # branch-prediction path below invalidating it.
        snap = None
        fetched = 0
        tracer = state.tracer
        width = config.fetch_width
        while True:
            if snap is None:
                snap = predictor.snapshot()
                depth = len(snap[1])
            state.seq += 1
            dyn = DynInst(state.seq, inst, cycle, depth, snap)
            if tracer is not None:
                tracer.on_fetch(dyn, cycle)
            fetched += 1
            fetch_pc = inst.pc + INST_SIZE
            append((dyn, ready_cycle))
            # Non-control-flow: the predictor has no side effects and always
            # predicts fall-through, so only branches call it.
            if inst.info.is_branch:
                prediction = predictor.predict(inst)
                snap = None
                predictions[dyn.seq] = prediction
                if prediction.taken:
                    fetch_pc = prediction.target
                    break
            if fetched == width:
                break
            inst = program_at(fetch_pc)
            if inst is None:
                self.fetch_halted = True
                break
        self.fetch_pc = fetch_pc
        state.stats.fetched += fetched

    # ------------------------------------------------------------------
    def flush(self, redirect_pc: int) -> None:
        """Drop all fetched-but-unrenamed work and redirect fetch."""
        state = self.state
        tracer = state.tracer
        for dyn, _ in self.fetch_queue:
            dyn.squashed = True
            state.predictions.pop(dyn.seq, None)
            state.stats.squashed += 1
            if tracer is not None:
                tracer.on_squash(dyn, state.cycle)
        self.fetch_queue.clear()
        self.fetch_pc = redirect_pc
        self.fetch_resume_cycle = state.cycle + 1
        self.fetch_halted = False
