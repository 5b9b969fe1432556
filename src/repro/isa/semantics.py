"""Operational semantics shared by the functional emulator, the out-of-order
execute stage and the DIVA checker.

Keeping a single ``evaluate`` / ``branch_taken`` / ``effective_address``
implementation guarantees that the timing core and the in-order checker agree
on instruction behaviour, so any disagreement observed by DIVA is a genuine
mis-integration (or wrong-path value) rather than a semantic divergence.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


def to_signed(value: int, bits: int = 64) -> int:
    """Interpret an unsigned ``bits``-wide value as a two's-complement int."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = 64) -> int:
    """Wrap a Python int into ``bits``-wide unsigned representation."""
    return value & ((1 << bits) - 1)


def _shift_amount(value: int) -> int:
    return int(value) & 0x3F


# Per-opcode handlers, split so integer handlers see already-coerced ints.
# Dispatch through a dict costs one (cached) hash instead of walking an
# identity-comparison chain for every executed instruction.
_FP_EVAL = {
    Opcode.ADDT: lambda a, b, imm: float(a) + float(b),
    Opcode.SUBT: lambda a, b, imm: float(a) - float(b),
    Opcode.MULT: lambda a, b, imm: float(a) * float(b),
    Opcode.DIVT: lambda a, b, imm: float(a) / float(b) if b else float("inf"),
    Opcode.CPYS: lambda a, b, imm: float(a),
    Opcode.ITOFT: lambda a, b, imm: float(to_signed(int(a))),
    Opcode.FTOIT: lambda a, b, imm: to_unsigned(int(a)),
}

_INT_EVAL = {
    Opcode.ADDQ: lambda a, b, imm: (a + b) & MASK64,
    Opcode.SUBQ: lambda a, b, imm: (a - b) & MASK64,
    Opcode.MULQ: lambda a, b, imm: (to_signed(a) * to_signed(b)) & MASK64,
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.XOR: lambda a, b, imm: (a ^ b) & MASK64,
    Opcode.SLL: lambda a, b, imm: (a << _shift_amount(b)) & MASK64,
    Opcode.SRL: lambda a, b, imm: (a & MASK64) >> _shift_amount(b),
    Opcode.SRA: lambda a, b, imm: to_unsigned(to_signed(a) >> _shift_amount(b)),
    Opcode.CMPEQ: lambda a, b, imm: 1 if a == b else 0,
    Opcode.CMPLT: lambda a, b, imm: 1 if to_signed(a) < to_signed(b) else 0,
    Opcode.CMPLE: lambda a, b, imm: 1 if to_signed(a) <= to_signed(b) else 0,
    Opcode.CMPULT: lambda a, b, imm: 1 if (a & MASK64) < (b & MASK64) else 0,
    Opcode.ADDQI: lambda a, b, imm: (a + imm) & MASK64,
    Opcode.LDA: lambda a, b, imm: (a + imm) & MASK64,
    Opcode.SUBQI: lambda a, b, imm: (a - imm) & MASK64,
    Opcode.MULQI: lambda a, b, imm: (to_signed(a) * imm) & MASK64,
    Opcode.ANDI: lambda a, b, imm: a & (imm & MASK64),
    Opcode.ORI: lambda a, b, imm: a | (imm & MASK64),
    Opcode.XORI: lambda a, b, imm: (a ^ imm) & MASK64,
    Opcode.SLLI: lambda a, b, imm: (a << _shift_amount(imm)) & MASK64,
    Opcode.SRLI: lambda a, b, imm: (a & MASK64) >> _shift_amount(imm),
    Opcode.SRAI: lambda a, b, imm: to_unsigned(
        to_signed(a) >> _shift_amount(imm)),
    Opcode.CMPEQI: lambda a, b, imm: 1 if to_signed(a) == imm else 0,
    Opcode.CMPLTI: lambda a, b, imm: 1 if to_signed(a) < imm else 0,
    Opcode.CMPLEI: lambda a, b, imm: 1 if to_signed(a) <= imm else 0,
}


def evaluate(op: Opcode, a, b, imm):
    """Compute the register result of a non-memory, non-control instruction.

    ``a`` and ``b`` are the source operand values (``ra`` and ``rb``), ``imm``
    the immediate.  Integer results are returned as 64-bit unsigned Python
    ints; floating-point results as Python floats.

    Wrong-path execution in the timing core can feed an integer operation a
    register that last held a floating-point value; such operands are
    truncated to integers (the result is discarded at the squash anyway).
    """
    fn = _FP_EVAL.get(op)
    if fn is not None:
        return fn(a, b, imm)
    if isinstance(a, float):
        a = int(a)
    if isinstance(b, float):
        b = int(b)
    fn = _INT_EVAL.get(op)
    if fn is not None:
        return fn(a, b, imm)
    raise ValueError(f"evaluate() does not handle opcode {op}")


def branch_taken(op: Opcode, a) -> bool:
    """Resolve the direction of a conditional branch with condition value ``a``."""
    sa = to_signed(int(a))
    if op is Opcode.BEQ:
        return sa == 0
    if op is Opcode.BNE:
        return sa != 0
    if op is Opcode.BLT:
        return sa < 0
    if op is Opcode.BLE:
        return sa <= 0
    if op is Opcode.BGT:
        return sa > 0
    if op is Opcode.BGE:
        return sa >= 0
    raise ValueError(f"{op} is not a conditional branch")


def effective_address(base, imm: int) -> int:
    """Compute a load/store effective address."""
    return (int(base) + int(imm)) & MASK64


def narrow_load_value(op: Opcode, value):
    """Apply the load-width semantics (``ldl`` sign-extends 32 bits)."""
    if op is Opcode.LDL:
        return to_unsigned(to_signed(int(value) & MASK32, 32))
    return value


# ----------------------------------------------------------------------
# Precomputed per-opcode dispatch, attached to the shared OpInfo records.
#
# ``evaluate`` / ``branch_taken`` pay a dict probe (hashing an enum member)
# per executed instruction; the hot loops instead read these attributes off
# ``inst.info``, which they already hold:
#
# * ``eval_fn``      -- the evaluate handler, or None for non-ALU ops;
# * ``eval_is_fp``   -- True when the handler is a float handler (integer
#                       handlers need the wrong-path float->int coercion
#                       that ``evaluate`` applies);
# * ``branch_fn``    -- signed-condition test for conditional branches;
# * ``is_ldl`` / ``is_stl`` -- the only opcodes with width narrowing.
#
# The semantics stay defined once, here; the attributes are only a
# dispatch-table transposition.
# ----------------------------------------------------------------------
_BRANCH_FN = {
    Opcode.BEQ: lambda sa: sa == 0,
    Opcode.BNE: lambda sa: sa != 0,
    Opcode.BLT: lambda sa: sa < 0,
    Opcode.BLE: lambda sa: sa <= 0,
    Opcode.BGT: lambda sa: sa > 0,
    Opcode.BGE: lambda sa: sa >= 0,
}


def _attach_dispatch() -> None:
    from repro.isa.opcodes import OPINFO

    for op, info in OPINFO.items():
        fp_fn = _FP_EVAL.get(op)
        int_fn = _INT_EVAL.get(op)
        object.__setattr__(info, "eval_fn", fp_fn or int_fn)
        object.__setattr__(info, "eval_is_fp", fp_fn is not None)
        object.__setattr__(info, "branch_fn", _BRANCH_FN.get(op))
        object.__setattr__(info, "is_ldl", op is Opcode.LDL)
        object.__setattr__(info, "is_stl", op is Opcode.STL)


_attach_dispatch()
