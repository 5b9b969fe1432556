"""Logical (architectural) register definitions.

The register file follows Alpha conventions with a unified numbering so the
renamer can use a single map table:

* indices 0..31  -- integer registers ``r0``..``r31``
* indices 32..63 -- floating-point registers ``f0``..``f31``

Special integer registers (Alpha calling convention):

* ``r30`` (``sp``)  -- stack pointer; the target of reverse integration's
  speculative memory bypassing.
* ``r26`` (``ra``)  -- return address register written by calls.
* ``r29`` (``gp``)  -- global pointer (used by workloads for globals).
* ``r31`` / ``f31`` -- hard-wired zero registers; never renamed.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_LOGICAL_REGS = NUM_INT_REGS + NUM_FP_REGS

REG_FP_BASE = NUM_INT_REGS

# Alpha calling-convention register assignments (integer indices).
RETURN_VALUE_REG = 0          # v0
ARG_REGS = (16, 17, 18, 19, 20, 21)   # a0-a5
REG_RA = 26                   # return address
REG_GP = 29                   # global pointer
REG_SP = 30                   # stack pointer
REG_ZERO = 31                 # integer zero register
REG_FZERO = REG_FP_BASE + 31  # floating-point zero register

# Caller-saved temporaries (t0-t11 => r1-r8, r22-r25) and callee-saved
# registers (s0-s6 => r9-r15).  Workload generators use these sets to build
# realistic prologue/epilogue save-restore sequences.
CALLER_SAVED_REGS = (1, 2, 3, 4, 5, 6, 7, 8, 22, 23, 24, 25)
CALLEE_SAVED_REGS = (9, 10, 11, 12, 13, 14, 15)

_INT_ALIASES = {
    "v0": 0,
    "t0": 1, "t1": 2, "t2": 3, "t3": 4, "t4": 5, "t5": 6, "t6": 7, "t7": 8,
    "s0": 9, "s1": 10, "s2": 11, "s3": 12, "s4": 13, "s5": 14, "s6": 15,
    "a0": 16, "a1": 17, "a2": 18, "a3": 19, "a4": 20, "a5": 21,
    "t8": 22, "t9": 23, "t10": 24, "t11": 25,
    "ra": 26, "t12": 27, "at": 28, "gp": 29, "sp": 30, "zero": 31,
}


def is_zero_reg(index: int) -> bool:
    """Return True for the hard-wired zero registers (r31 and f31)."""
    return index == REG_ZERO or index == REG_FZERO


def reg_index(name: str) -> int:
    """Translate a register name (``r5``, ``f2``, ``sp``, ``ra``, ...) to its
    unified index.

    Raises ``ValueError`` for unknown names.
    """
    name = name.strip().lower()
    if name in _INT_ALIASES:
        return _INT_ALIASES[name]
    if name.startswith("r") and name[1:].isdigit():
        idx = int(name[1:])
        if 0 <= idx < NUM_INT_REGS:
            return idx
    if name.startswith("f") and name[1:].isdigit():
        idx = int(name[1:])
        if 0 <= idx < NUM_FP_REGS:
            return REG_FP_BASE + idx
    raise ValueError(f"unknown register name: {name!r}")


def reg_name(index: int) -> str:
    """Translate a unified register index back to a canonical name."""
    if not 0 <= index < NUM_LOGICAL_REGS:
        raise ValueError(f"register index out of range: {index}")
    if index == REG_SP:
        return "sp"
    if index == REG_RA:
        return "ra"
    if index == REG_GP:
        return "gp"
    if index == REG_ZERO:
        return "zero"
    if index < REG_FP_BASE:
        return f"r{index}"
    return f"f{index - REG_FP_BASE}"
