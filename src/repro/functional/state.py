"""Architectural machine state: register file, PC, memory and run status."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.functional.memory import SparseMemory
from repro.isa.registers import (
    NUM_LOGICAL_REGS,
    REG_FP_BASE,
    REG_FZERO,
    REG_SP,
    REG_ZERO,
    is_zero_reg,
)

# Default stack placement used when a program does not set one up itself.
DEFAULT_STACK_TOP = 0x0100_0000
DEFAULT_GLOBAL_BASE = 0x0020_0000
DEFAULT_HEAP_BASE = 0x0040_0000


class ArchState:
    """Precise architectural state of the machine.

    Register reads of the hard-wired zero registers always return zero and
    writes to them are discarded, matching the ISA definition.
    """

    def __init__(self, memory: Optional[SparseMemory] = None,
                 pc: int = 0, stack_top: int = DEFAULT_STACK_TOP):
        self.regs: List = [0] * NUM_LOGICAL_REGS
        for i in range(REG_FP_BASE, NUM_LOGICAL_REGS):
            self.regs[i] = 0.0
        self.regs[REG_SP] = stack_top
        self.pc = pc
        self.memory = memory if memory is not None else SparseMemory()
        self.halted = False
        self.exit_code: Optional[int] = None
        self.output: List[int] = []
        self.inst_count = 0

    def read_reg(self, index: int):
        # The zero registers invariantly hold 0 / 0.0 (writes to them are
        # discarded below), so a plain indexed read is correct and avoids a
        # predicate call on the hottest functional path.
        return self.regs[index]

    def write_reg(self, index: int, value) -> None:
        if index == REG_ZERO or index == REG_FZERO:
            return
        self.regs[index] = value

    def copy(self) -> "ArchState":
        """Deep-copy the state (used for checkpointing in tests)."""
        clone = ArchState(memory=self.memory.copy(), pc=self.pc)
        clone.regs = list(self.regs)
        clone.halted = self.halted
        clone.exit_code = self.exit_code
        clone.output = list(self.output)
        clone.inst_count = self.inst_count
        return clone

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict[str, object]:
        """JSON-ready rendering of the complete architectural state.

        Register values are kept as-is (ints and floats survive a JSON
        round-trip unchanged for this ISA); memory addresses become string
        keys.  The inverse is :meth:`from_snapshot`.
        """
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "halted": self.halted,
            "exit_code": self.exit_code,
            "output": list(self.output),
            "inst_count": self.inst_count,
            "memory": self.memory.to_snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "ArchState":
        """Rebuild precise architectural state from :meth:`to_snapshot`."""
        state = cls(memory=SparseMemory.from_snapshot(snapshot["memory"]),
                    pc=int(snapshot["pc"]))
        state.regs = list(snapshot["regs"])
        state.halted = bool(snapshot["halted"])
        state.exit_code = snapshot["exit_code"]
        state.output = list(snapshot["output"])
        state.inst_count = int(snapshot["inst_count"])
        return state

    def registers_snapshot(self) -> Dict[int, object]:
        """Non-zero architectural register values, for compact comparisons.

        The test API for architectural equality: the end-to-end and
        sharding tests compare a timing run's registers to the emulator's
        with it."""
        return {i: v for i, v in enumerate(self.regs)
                if not is_zero_reg(i) and v not in (0, 0.0)}
