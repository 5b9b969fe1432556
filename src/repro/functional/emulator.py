"""Run-to-completion functional emulator.

The emulator executes a :class:`~repro.isa.program.Program` in order,
collecting instruction-mix statistics and program output.  It is the
reference against which the timing simulator's retired state is validated in
tests, and it doubles as a quick way to sanity-check synthetic workloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.functional.executor import StepResult
from repro.functional.memory import SparseMemory
from repro.functional.state import ArchState
from repro.isa.opcodes import OpClass, is_load, is_store
from repro.isa.program import Program


class EmulationLimitExceeded(RuntimeError):
    """Raised when a program does not halt within the instruction budget."""


@dataclass
class EmulationResult:
    """Summary of a functional run."""

    instructions: int
    exit_code: Optional[int]
    output: List[int]
    state: ArchState
    class_counts: Dict[OpClass, int] = field(default_factory=dict)
    load_count: int = 0
    store_count: int = 0
    branch_count: int = 0
    call_count: int = 0

    @property
    def halted(self) -> bool:
        return self.state.halted


class Emulator:
    """In-order architectural executor for whole programs."""

    def __init__(self, program: Program,
                 state: Optional[ArchState] = None):
        self.program = program
        if state is None:
            state = ArchState(memory=SparseMemory(program.data),
                              pc=program.entry)
        self.state = state

    def step(self) -> Optional[StepResult]:
        """Execute one instruction; returns ``None`` once halted or when the
        PC runs off the end of the program."""
        if self.state.halted:
            return None
        inst = self.program.at(self.state.pc)
        if inst is None:
            self.state.halted = True
            return None
        return inst.info.step(self.state, inst)

    def run(self, max_instructions: int = 2_000_000,
            strict: bool = True) -> EmulationResult:
        """Run until the program exits or ``max_instructions`` is reached.

        With ``strict=True`` (the default) exceeding the budget raises
        :class:`EmulationLimitExceeded`; otherwise the partial result is
        returned, which is convenient for sampling long-running kernels.
        """
        class_counts: Counter = Counter()
        executed = 0
        while executed < max_instructions:
            result = self.step()
            if result is None:
                break
            class_counts[result.inst.info.cls] += 1
            executed += 1
        else:
            if strict and not self.state.halted:
                raise EmulationLimitExceeded(
                    f"{self.program.name}: did not halt within "
                    f"{max_instructions} instructions")
        loads = class_counts.get(OpClass.LOAD, 0)
        stores = class_counts.get(OpClass.STORE, 0)
        branches = (class_counts.get(OpClass.COND_BRANCH, 0)
                    + class_counts.get(OpClass.DIRECT_JUMP, 0)
                    + class_counts.get(OpClass.INDIRECT_JUMP, 0)
                    + class_counts.get(OpClass.RETURN, 0)
                    + class_counts.get(OpClass.CALL_DIRECT, 0)
                    + class_counts.get(OpClass.CALL_INDIRECT, 0))
        calls = (class_counts.get(OpClass.CALL_DIRECT, 0)
                 + class_counts.get(OpClass.CALL_INDIRECT, 0))
        return EmulationResult(
            instructions=executed,
            exit_code=self.state.exit_code,
            output=list(self.state.output),
            state=self.state,
            class_counts=dict(class_counts),
            load_count=loads,
            store_count=stores,
            branch_count=branches,
            call_count=calls,
        )


def run_program(program: Program,
                max_instructions: int = 2_000_000) -> EmulationResult:
    """Convenience wrapper: functionally execute ``program`` from scratch.

    The reference run that the functional, sharding and variant tests and
    perfbench's retired-count check compare the timing core against."""
    return Emulator(program).run(max_instructions=max_instructions)


# ----------------------------------------------------------------------
# architectural checkpoints (the substrate of sharded simulation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """Precise architectural state after ``insts`` dynamic instructions.

    The timing core retires exactly the functional instruction stream (DIVA
    re-executes every retiring instruction on architectural state), so a
    functional checkpoint at instruction *k* is also the timing core's
    architectural state after *k* retirements -- which is what makes
    checkpointed slices recombine losslessly at the retired-instruction
    level.
    """

    insts: int
    snapshot: Dict[str, object]

    def state(self) -> ArchState:
        """Materialise a fresh :class:`ArchState` (safe to mutate)."""
        return ArchState.from_snapshot(self.snapshot)

    def to_dict(self) -> Dict[str, object]:
        return {"insts": self.insts, "snapshot": self.snapshot}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Checkpoint":
        return cls(insts=int(data["insts"]), snapshot=data["snapshot"])


def fast_forward(program: Program, count: int,
                 max_instructions: int = 2_000_000) -> ArchState:
    """Architecturally execute exactly ``count`` instructions.

    Returns the resulting state (which may already be halted if the program
    exits earlier).  Raises :class:`EmulationLimitExceeded` if ``count``
    exceeds ``max_instructions``.
    """
    if count > max_instructions:
        raise EmulationLimitExceeded(
            f"{program.name}: fast-forward of {count} exceeds the "
            f"{max_instructions}-instruction budget")
    emulator = Emulator(program)
    executed = 0
    while executed < count:
        if emulator.step() is None:
            break
        executed += 1
    return emulator.state


def collect_checkpoints(program: Program, boundaries: Iterable[int],
                        max_instructions: int = 2_000_000
                        ) -> Tuple[int, List[Checkpoint]]:
    """Run ``program`` to completion, checkpointing at instruction counts.

    ``boundaries`` are dynamic-instruction indices (sorted ascending, 0
    allowed); a checkpoint is captured when exactly that many instructions
    have executed.  Boundaries at or past the program's end are skipped --
    the corresponding slice would be empty.  Returns ``(total_instructions,
    checkpoints)``.
    """
    wanted = sorted(set(int(b) for b in boundaries))
    state = Emulator(program).state
    at = program.at
    checkpoints: List[Checkpoint] = []
    executed = 0
    next_idx = 0
    while True:
        while next_idx < len(wanted) and wanted[next_idx] == executed:
            checkpoints.append(Checkpoint(
                insts=executed, snapshot=state.to_snapshot()))
            next_idx += 1
        # Emulator.step, inlined: this loop steps every instruction of
        # the program once per plan.
        if state.halted:
            break
        inst = at(state.pc)
        if inst is None:
            break
        inst.info.step(state, inst)
        executed += 1
        if executed > max_instructions:
            raise EmulationLimitExceeded(
                f"{program.name}: did not halt within "
                f"{max_instructions} instructions while checkpointing")
    return executed, checkpoints
