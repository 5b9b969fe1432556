"""Alpha-flavoured RISC instruction-set architecture used by the simulator.

The paper evaluates register integration on the Alpha AXP ISA (SimpleScalar
3.0).  This package defines a small Alpha-like ISA that preserves every
structural property integration relies on:

* three-operand register instructions with separate register/immediate forms,
* a stack-pointer register (``sp``/``r30``) and return-address register
  (``ra``/``r26``) with the standard save/restore calling convention,
* displacement-addressed loads and stores (``ldq rd, imm(ra)``),
* ``lda`` as the address/stack-pointer adjustment instruction,
* conditional branches that test a single register against zero,
* direct and indirect calls plus ``ret``.

Public API re-exported here: :class:`Opcode`, :class:`StaticInst`,
:class:`DynInst`, :class:`Program`, :class:`ProgramBuilder`,
:func:`assemble`, and the register-name helpers.
"""

from repro.isa.registers import (
    NUM_LOGICAL_REGS,
    REG_FP_BASE,
    REG_GP,
    REG_RA,
    REG_SP,
    REG_ZERO,
    REG_FZERO,
    RETURN_VALUE_REG,
    ARG_REGS,
    CALLEE_SAVED_REGS,
    CALLER_SAVED_REGS,
    is_zero_reg,
    reg_index,
    reg_name,
)
from repro.isa.opcodes import (
    Opcode,
    OpClass,
    OpInfo,
    op_info,
    is_branch,
    is_cond_branch,
    is_integrable,
    is_load,
    is_store,
    load_counterpart,
)
from repro.isa.instruction import StaticInst, DynInst
from repro.isa.program import Program, ProgramBuilder
from repro.isa.assembler import assemble, AssemblerError

__all__ = [
    "NUM_LOGICAL_REGS",
    "REG_FP_BASE",
    "REG_GP",
    "REG_RA",
    "REG_SP",
    "REG_ZERO",
    "REG_FZERO",
    "RETURN_VALUE_REG",
    "ARG_REGS",
    "CALLEE_SAVED_REGS",
    "CALLER_SAVED_REGS",
    "is_zero_reg",
    "reg_index",
    "reg_name",
    "Opcode",
    "OpClass",
    "OpInfo",
    "op_info",
    "is_branch",
    "is_cond_branch",
    "is_integrable",
    "is_load",
    "is_store",
    "load_counterpart",
    "StaticInst",
    "DynInst",
    "Program",
    "ProgramBuilder",
    "assemble",
    "AssemblerError",
]
