"""The ``oracle-bp`` variant: perfect branch prediction.

The functional emulator already produces the architectural execution stream
(it is what DIVA checks retirement against and what sharding checkpoints),
so a perfect front end is a replay of that stream: the oracle runs a
reference emulation *lazily alongside fetch*, recording ``(pc, taken,
next_pc)`` for every control-transfer instruction and serving those
outcomes back in order.  Laziness matters for sharded runs -- a slice only
pays for the emulation its own fetch window actually reaches, instead of
re-executing from its checkpoint to the end of the program.

Position tracking rides the existing per-instruction predictor checkpoints:
the front end snapshots the predictor before every fetch and recovery
restores those snapshots, so the oracle simply carries its stream cursor in
:meth:`snapshot`/:meth:`restore` and stays aligned across memory-order
squashes and DIVA mis-integration flushes.  The only transient wrong-path
fetch left is downstream of a *mis-integrated* value (a dependent branch can
resolve with a stale operand before DIVA catches the producer); while the
fetch PC disagrees with the stream the oracle falls back to the learned
tables, and the eventual DIVA flush restores the cursor.  With integration
disabled the machine never retires a mispredicted branch.

The hybrid/BTB/RAS structures are still maintained (the RAS depth feeds the
integration-table index function, and the tables back the wrong-path
fallback), so the variant isolates exactly one effect: the cost of control
mis-speculation.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Tuple

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.frontend.branch_predictor import (
    BranchPrediction,
    BranchPredictor,
)
from repro.functional.emulator import Emulator
from repro.functional.state import ArchState
from repro.isa.instruction import StaticInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE, Program
from repro.variants import register

#: Safety bound on the oracle's reference emulation (matches the emulator's
#: default run budget).
MAX_ORACLE_INSTRUCTIONS = 2_000_000

#: Instructions emulated per lazy extension of the control stream.
STREAM_CHUNK = 4096

#: One recorded control transfer: (pc, taken, next_pc).
ControlRecord = Tuple[int, bool, int]


class OracleBranchPredictor(BranchPredictor):
    """A :class:`BranchPredictor` that replays the architectural stream.

    The stream cursor indexes the next control instruction to be fetched;
    it travels inside the predictor checkpoint (3rd snapshot element) so
    every recovery path the machine already has realigns it for free.  The
    stream itself is append-only and extended on demand, one
    :data:`STREAM_CHUNK` of emulated instructions at a time, so restoring
    the cursor backwards is always safe and fetch never pays for emulation
    beyond (slightly past) its own high-water mark.
    """

    def __init__(self, config, program: Program,
                 initial_state: Optional[ArchState] = None,
                 max_instructions: int = MAX_ORACLE_INSTRUCTIONS):
        super().__init__(config)
        state = initial_state.copy() if initial_state is not None else None
        self._emulator = Emulator(program, state=state)
        self._stream: List[ControlRecord] = []
        self._budget = max_instructions
        self._emulated = 0
        self._exhausted = False
        self._cursor = 0

    # ------------------------------------------------------------------
    # lazy reference emulation
    # ------------------------------------------------------------------
    def _extend_stream(self) -> None:
        """Advance the reference emulation by one chunk of instructions."""
        emulator = self._emulator
        stream = self._stream
        for _ in range(STREAM_CHUNK):
            if self._emulated >= self._budget:
                self._exhausted = True
                if not emulator.state.halted:
                    # An incomplete stream quietly demotes the oracle to
                    # the learned predictor -- make that loudly visible.
                    warnings.warn(
                        f"oracle-bp control stream truncated after "
                        f"{self._emulated} instructions "
                        f"({emulator.program.name} has not halted); "
                        f"later branches fall back to the learned "
                        f"predictor", RuntimeWarning, stacklevel=3)
                return
            result = emulator.step()
            if result is None:
                self._exhausted = True
                return
            self._emulated += 1
            inst = result.inst
            if inst.info.is_branch:
                stream.append((inst.pc, bool(result.taken), result.next_pc))

    # ------------------------------------------------------------------
    # checkpointing: the cursor travels with the front-end snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        return (self.history, self.ras.stack, self._cursor)

    def restore(self, snap: tuple) -> None:
        super().restore(snap)
        if len(snap) > 2:
            self._cursor = snap[2]

    def _push_history(self, taken: bool) -> None:
        """Advancing here keeps recovery exact: :meth:`recover_after`
        restores the checkpoint (cursor = the branch itself) and replays the
        branch's history push, which must move the cursor past it."""
        super()._push_history(taken)
        self._cursor += 1

    # ------------------------------------------------------------------
    def _truth(self, pc: int) -> Optional[ControlRecord]:
        cursor = self._cursor
        while cursor >= len(self._stream) and not self._exhausted:
            self._extend_stream()
        if cursor < len(self._stream) and self._stream[cursor][0] == pc:
            return self._stream[cursor]
        return None

    def predict(self, inst: StaticInst) -> BranchPrediction:
        cls = inst.info.cls
        pc = inst.pc
        fallthrough = pc + INST_SIZE
        checkpoint = self.snapshot()
        truth = self._truth(pc)
        if truth is None:
            # Off-stream fetch (a transient wrong path downstream of a
            # mis-integrated value, or a truncated stream): behave like the
            # baseline predictor, which also advances history/RAS
            # consistently with recovery replay.
            return super().predict(inst)
        _, taken, target = truth

        if cls is OpClass.COND_BRANCH:
            pred = BranchPrediction(pc, taken, target, self.history, True,
                                    checkpoint)
            self._push_history(taken)      # advances the cursor
            return pred

        # Unconditional control: the recovery paths never replay these
        # (under an oracle they cannot mispredict), so advance directly.
        self._cursor += 1
        if cls in (OpClass.CALL_DIRECT, OpClass.CALL_INDIRECT):
            self.ras.push(fallthrough)
        elif cls is OpClass.RETURN:
            self.ras.pop()
        return BranchPrediction(pc, True, target, self.history, False,
                                checkpoint)


@register
class OracleBPVariant(MachineBuilder):
    """Perfect branch prediction from the functional emulator's stream."""

    name = "oracle-bp"
    description = ("perfect direction/target prediction replayed from the "
                   "functional emulator's control stream")

    def build_predictor(self, config: MachineConfig, program: Program,
                        arch: ArchState) -> BranchPredictor:
        # The detailed run can retire at most retire_width instructions per
        # cycle, so this bounds the reference emulation by what the timing
        # core could ever fetch -- an instruction budget, not a cycle one.
        budget = config.max_cycles * config.retire_width
        return OracleBranchPredictor(config.branch_predictor, program, arch,
                                     max_instructions=budget)
