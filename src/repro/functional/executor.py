"""Single-instruction architectural execution.

:func:`execute_step` applies one :class:`StaticInst` to an
:class:`ArchState`.  It is the single source of truth for instruction
behaviour used by the functional emulator and, instruction-by-instruction, by
the DIVA checker stage of the timing core.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.functional.state import ArchState
from repro.isa.instruction import StaticInst
from repro.isa.opcodes import OPINFO, OpClass
from repro.isa.program import INST_SIZE
from repro.isa import semantics
from repro.isa.registers import (ARG_REGS, REG_FZERO, REG_ZERO,
                                 RETURN_VALUE_REG)

# System-call service codes.
SYS_EXIT = 0
SYS_PUTINT = 1
SYS_BRK = 2


class StepResult(NamedTuple):
    """What one architectural step did (used by DIVA, planning and tests).

    The step handlers build it with a bare ``tuple.__new__``, which runs
    no Python frame; they give every field, so the defaults serve other
    callers only."""

    inst: StaticInst
    next_pc: int
    dest_value: Optional[object] = None
    eff_addr: Optional[int] = None
    store_value: Optional[object] = None
    taken: Optional[bool] = None
    halted: bool = False


_result = tuple.__new__


_MASK64 = semantics.MASK64
_MASK32 = semantics.MASK32
_SIGN64 = 1 << 63
_WRAP64 = 1 << 64


def execute_step(state: ArchState, inst: StaticInst) -> StepResult:
    """Execute ``inst`` against ``state`` and advance the PC, through the
    per-class handler on ``inst.info`` that the emulator and DIVA share."""
    return inst.info.step(state, inst)


# Per-class step handlers: apply one instruction, advance the PC and count,
# return the StepResult.  Per-opcode semantics come from the OpInfo fields
# repro.isa.semantics attaches (``eval_fn``, ``branch_fn``, ``is_ldl``...).
def _step_alu(state: ArchState, inst: StaticInst) -> StepResult:
    regs = state.regs
    info = inst.info
    a = regs[inst.ra] if inst.ra is not None else 0
    b = regs[inst.rb] if inst.rb is not None else 0
    if not info.eval_is_fp:
        # Same wrong-path float->int coercion semantics.evaluate applies.
        if type(a) is float:
            a = int(a)
        if type(b) is float:
            b = int(b)
    value = info.eval_fn(a, b, inst.imm)
    rd = inst.rd
    if rd != REG_ZERO and rd != REG_FZERO:     # ArchState.write_reg, inlined
        regs[rd] = value
    next_pc = inst.pc + INST_SIZE
    state.pc = next_pc
    state.inst_count += 1
    return _result(StepResult,
                   (inst, next_pc, value, None, None, None, False))


def _step_load(state: ArchState, inst: StaticInst) -> StepResult:
    eff_addr = (int(state.regs[inst.ra]) + inst.imm) & _MASK64
    value = state.memory.read(eff_addr)
    if inst.info.is_ldl:
        value = semantics.to_unsigned(
            semantics.to_signed(int(value) & _MASK32, 32))
    rd = inst.rd
    if rd != REG_ZERO and rd != REG_FZERO:     # ArchState.write_reg, inlined
        state.regs[rd] = value
    next_pc = inst.pc + INST_SIZE
    state.pc = next_pc
    state.inst_count += 1
    return _result(StepResult,
                   (inst, next_pc, value, eff_addr, None, None, False))


def _step_store(state: ArchState, inst: StaticInst) -> StepResult:
    regs = state.regs
    data = regs[inst.ra]
    eff_addr = (int(regs[inst.rb]) + inst.imm) & _MASK64
    store_value = int(data) & _MASK32 if inst.info.is_stl else data
    state.memory.write(eff_addr, store_value)
    next_pc = inst.pc + INST_SIZE
    state.pc = next_pc
    state.inst_count += 1
    return _result(StepResult, (inst, next_pc, None, eff_addr, store_value,
                                None, False))


def _step_cond_branch(state: ArchState, inst: StaticInst) -> StepResult:
    value = int(state.regs[inst.ra]) & _MASK64  # semantics.to_signed, inlined
    if value & _SIGN64:
        value -= _WRAP64
    taken = inst.info.branch_fn(value)
    next_pc = inst.target if taken else inst.pc + INST_SIZE
    state.pc = next_pc
    state.inst_count += 1
    return _result(StepResult,
                   (inst, next_pc, None, None, None, taken, False))


def _step_jump(state: ArchState, inst: StaticInst) -> StepResult:
    """Unconditional transfer: direct or through ``ra``, linking into
    ``rd`` for calls."""
    info = inst.info
    next_pc = int(state.regs[inst.ra]) if info.is_indirect_ctl else inst.target
    link = None
    if info.writes_dest:
        link = inst.pc + INST_SIZE
        rd = inst.rd
        if rd != REG_ZERO and rd != REG_FZERO:  # ArchState.write_reg, inlined
            state.regs[rd] = link
    state.pc = next_pc
    state.inst_count += 1
    return _result(StepResult,
                   (inst, next_pc, link, None, None, True, False))


def _step_system(state: ArchState, inst: StaticInst) -> StepResult:
    """``syscall`` (may halt) or ``nop``."""
    halted = (inst.info.cls is OpClass.SYSCALL
              and _do_syscall(state, inst.imm or 0))
    next_pc = inst.pc + INST_SIZE
    state.pc = next_pc
    state.inst_count += 1
    if halted:
        state.halted = True
    return _result(StepResult,
                   (inst, next_pc, None, None, None, None, halted))


_STEP_BY_CLASS = {
    OpClass.LOAD: _step_load,
    OpClass.STORE: _step_store,
    OpClass.COND_BRANCH: _step_cond_branch,
    OpClass.DIRECT_JUMP: _step_jump,
    OpClass.CALL_DIRECT: _step_jump,
    OpClass.CALL_INDIRECT: _step_jump,
    OpClass.INDIRECT_JUMP: _step_jump,
    OpClass.RETURN: _step_jump,
    OpClass.SYSCALL: _step_system,
    OpClass.NOP: _step_system,
}
for _info in OPINFO.values():
    object.__setattr__(_info, "step", _step_alu if _info.is_alu
                       else _STEP_BY_CLASS[_info.cls])
del _info


def _do_syscall(state: ArchState, code: int) -> bool:
    """Execute a system call; returns True if the program halted."""
    if code == SYS_EXIT:
        state.exit_code = int(state.read_reg(ARG_REGS[0]))
        return True
    if code == SYS_PUTINT:
        state.output.append(int(state.read_reg(ARG_REGS[0])))
        return False
    if code == SYS_BRK:
        # Trivial brk: return the requested break in v0.
        state.write_reg(RETURN_VALUE_REG, state.read_reg(ARG_REGS[0]))
        return False
    raise ValueError(f"unknown syscall code {code}")
