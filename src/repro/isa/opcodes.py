"""Opcode definitions and static metadata.

Each opcode carries an :class:`OpInfo` record describing its operand shape
(number of register sources, immediate, destination), its execution class and
latency, and whether it is eligible for register integration.  Following the
paper, system calls, stores and direct jumps are never integrated; everything
that produces a register value (plus conditional branches) is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit / scheduling class of an opcode."""

    IALU = "ialu"            # simple integer ALU
    IMUL = "imul"            # complex integer (multiply)
    LOAD = "load"
    STORE = "store"
    COND_BRANCH = "cbr"
    DIRECT_JUMP = "jump"     # unconditional direct branch (no link)
    CALL_DIRECT = "call"     # direct call, writes the return-address register
    CALL_INDIRECT = "icall"  # indirect call
    INDIRECT_JUMP = "ijump"  # indirect jump (no link)
    RETURN = "ret"
    FP_ADD = "fpadd"
    FP_MUL = "fpmul"
    FP_DIV = "fpdiv"
    SYSCALL = "syscall"
    NOP = "nop"


class Opcode(enum.Enum):
    """The instruction opcodes understood by the simulator."""

    # Integer ALU, register-register.
    ADDQ = "addq"
    SUBQ = "subq"
    MULQ = "mulq"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    CMPEQ = "cmpeq"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPULT = "cmpult"
    # Integer ALU, register-immediate.
    ADDQI = "addqi"
    SUBQI = "subqi"
    MULQI = "mulqi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    CMPEQI = "cmpeqi"
    CMPLTI = "cmplti"
    CMPLEI = "cmplei"
    # Address / stack-pointer arithmetic (rd = ra + imm).
    LDA = "lda"
    # Loads (rd = mem[ra + imm]).
    LDQ = "ldq"
    LDL = "ldl"
    LDT = "ldt"
    # Stores (mem[rb + imm] = ra;  ra is the data register, rb the base).
    STQ = "stq"
    STL = "stl"
    STT = "stt"
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BLE = "ble"
    BGT = "bgt"
    BGE = "bge"
    BR = "br"
    BSR = "bsr"
    JSR = "jsr"
    JMP = "jmp"
    RET = "ret"
    # Floating point.
    ADDT = "addt"
    SUBT = "subt"
    MULT = "mult"
    DIVT = "divt"
    CPYS = "cpys"
    ITOFT = "itoft"
    FTOIT = "ftoit"
    # System.
    SYSCALL = "syscall"
    NOP = "nop"


class IntegrationType(enum.Enum):
    """Instruction-type categories of the Figure 5 "Type" breakdown (here so
    OpInfo can carry them; :mod:`repro.core.stats` re-exports it)."""

    LOAD_SP = "load_sp"
    LOAD_OTHER = "load"
    ALU = "alu"
    BRANCH = "branch"
    FP = "fp"

    # Members are identity-compared singletons: the C identity hash keeps
    # the per-retirement ``Counter[itype] += 1`` off Enum's Python __hash__.
    __hash__ = object.__hash__


# Issue-port codes (``OpInfo.port_code``): indices into the scheduler's
# per-port count/limit lists.
PORT_SIMPLE = 0
PORT_COMPLEX = 1
PORT_LOAD = 2
PORT_STORE = 3

# Execute-dispatch codes (``OpInfo.kind_code``): what the execute stage
# does with a selected instruction.  The kinds above KIND_LOAD resolve when
# they complete (see IssueExecute.writeback).
KIND_ALU = 0
KIND_LOAD = 1
KIND_BRANCH = 2
KIND_INDIRECT = 3
KIND_STORE = 4

#: Sequence numbers occupy the low bits of the scheduler's selection key;
#: the priority (``OpInfo.sort_bias``) sits above them, so comparing plain
#: ints orders by (priority, age).
SEQ_BITS = 48


#: Classes that can redirect the PC.
_BRANCH_CLASSES = frozenset({
    OpClass.COND_BRANCH, OpClass.DIRECT_JUMP, OpClass.CALL_DIRECT,
    OpClass.CALL_INDIRECT, OpClass.INDIRECT_JUMP, OpClass.RETURN,
})


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for an opcode.

    Besides the declared fields, every instance precomputes the class
    predicates (``is_load``, ``is_store``, ``is_mem``, ``is_cond_branch``,
    ``is_branch``) as plain attributes: the per-cycle pipeline loops test
    these millions of times per simulation, and an attribute read avoids
    re-hashing enum members on every query.
    """

    cls: OpClass
    latency: int = 1
    num_srcs: int = 2
    has_imm: bool = False
    writes_dest: bool = True
    integrable: bool = True
    fp: bool = False

    def __post_init__(self):
        cls = self.cls
        object.__setattr__(self, "is_load", cls is OpClass.LOAD)
        object.__setattr__(self, "is_store", cls is OpClass.STORE)
        object.__setattr__(self, "is_mem",
                           cls is OpClass.LOAD or cls is OpClass.STORE)
        object.__setattr__(self, "is_cond_branch",
                           cls is OpClass.COND_BRANCH)
        object.__setattr__(self, "is_branch", cls in _BRANCH_CLASSES)
        # Pipeline routing predicates (see repro.core.stages.base for the
        # class groupings they mirror).
        object.__setattr__(self, "is_alu", cls in (
            OpClass.IALU, OpClass.IMUL, OpClass.FP_ADD, OpClass.FP_MUL,
            OpClass.FP_DIV))
        object.__setattr__(self, "is_indirect_ctl", cls in (
            OpClass.CALL_INDIRECT, OpClass.INDIRECT_JUMP, OpClass.RETURN))
        rename_complete = cls in (
            OpClass.DIRECT_JUMP, OpClass.CALL_DIRECT, OpClass.SYSCALL,
            OpClass.NOP)
        object.__setattr__(self, "rename_complete", rename_complete)
        object.__setattr__(self, "needs_rs", not rename_complete)
        # Issue-port class and selection priority used by the scheduler
        # (repro.core.scheduler); both are functions of cls alone, so they
        # are precomputed here with the other per-opcode metadata.
        if cls is OpClass.LOAD:
            port, port_code = "load", PORT_LOAD
        elif cls is OpClass.STORE:
            port, port_code = "store", PORT_STORE
        elif cls in (OpClass.IMUL, OpClass.FP_ADD, OpClass.FP_MUL,
                     OpClass.FP_DIV):
            port, port_code = "complex", PORT_COMPLEX
        else:
            port, port_code = "simple", PORT_SIMPLE
        object.__setattr__(self, "issue_port", port)
        #: Int mirror of ``issue_port`` (a PORT_* code).
        object.__setattr__(self, "port_code", port_code)
        priority = 0 if cls in (
            OpClass.LOAD, OpClass.COND_BRANCH, OpClass.FP_ADD,
            OpClass.FP_MUL, OpClass.FP_DIV, OpClass.CALL_INDIRECT,
            OpClass.INDIRECT_JUMP, OpClass.RETURN) else 1
        object.__setattr__(self, "issue_priority", priority)
        #: ``sort_bias | seq`` sorts by (priority, age) as a plain int.
        object.__setattr__(self, "sort_bias", priority << SEQ_BITS)
        # Execute-stage dispatch code (a KIND_* constant): the order the
        # execute stage tests its cases in, flattened to an int.
        if self.is_alu:
            kind = KIND_ALU
        elif cls is OpClass.COND_BRANCH:
            kind = KIND_BRANCH
        elif self.is_indirect_ctl:
            kind = KIND_INDIRECT
        elif cls is OpClass.LOAD:
            kind = KIND_LOAD
        elif cls is OpClass.STORE:
            kind = KIND_STORE
        else:
            kind = -1            # never enters the reservation stations
        object.__setattr__(self, "kind_code", kind)
        # Figure 5 type (the "Type" breakdown): a load is LOAD_SP when its
        # base is the stack pointer, which is the only per-instance part,
        # so both answers are kept here.
        if cls is OpClass.LOAD:
            itype, itype_sp = IntegrationType.LOAD_OTHER, IntegrationType.LOAD_SP
        else:
            itype = itype_sp = (
                IntegrationType.BRANCH if cls is OpClass.COND_BRANCH
                else IntegrationType.FP if self.fp
                else IntegrationType.ALU if cls in (OpClass.IALU, OpClass.IMUL)
                else None)
        object.__setattr__(self, "itype", itype)
        object.__setattr__(self, "itype_sp", itype_sp)


_RR = dict(cls=OpClass.IALU, latency=1, num_srcs=2, has_imm=False)
_RI = dict(cls=OpClass.IALU, latency=1, num_srcs=1, has_imm=True)
_LD = dict(cls=OpClass.LOAD, latency=1, num_srcs=1, has_imm=True)
_ST = dict(cls=OpClass.STORE, latency=1, num_srcs=2, has_imm=True,
           writes_dest=False, integrable=False)
_BR = dict(cls=OpClass.COND_BRANCH, latency=1, num_srcs=1, has_imm=True,
           writes_dest=False, integrable=True)
_FP2 = dict(cls=OpClass.FP_ADD, latency=2, num_srcs=2, fp=True)

OPINFO: dict = {
    Opcode.ADDQ: OpInfo(**_RR),
    Opcode.SUBQ: OpInfo(**_RR),
    Opcode.MULQ: OpInfo(cls=OpClass.IMUL, latency=3, num_srcs=2),
    Opcode.AND: OpInfo(**_RR),
    Opcode.OR: OpInfo(**_RR),
    Opcode.XOR: OpInfo(**_RR),
    Opcode.SLL: OpInfo(**_RR),
    Opcode.SRL: OpInfo(**_RR),
    Opcode.SRA: OpInfo(**_RR),
    Opcode.CMPEQ: OpInfo(**_RR),
    Opcode.CMPLT: OpInfo(**_RR),
    Opcode.CMPLE: OpInfo(**_RR),
    Opcode.CMPULT: OpInfo(**_RR),
    Opcode.ADDQI: OpInfo(**_RI),
    Opcode.SUBQI: OpInfo(**_RI),
    Opcode.MULQI: OpInfo(cls=OpClass.IMUL, latency=3, num_srcs=1, has_imm=True),
    Opcode.ANDI: OpInfo(**_RI),
    Opcode.ORI: OpInfo(**_RI),
    Opcode.XORI: OpInfo(**_RI),
    Opcode.SLLI: OpInfo(**_RI),
    Opcode.SRLI: OpInfo(**_RI),
    Opcode.SRAI: OpInfo(**_RI),
    Opcode.CMPEQI: OpInfo(**_RI),
    Opcode.CMPLTI: OpInfo(**_RI),
    Opcode.CMPLEI: OpInfo(**_RI),
    Opcode.LDA: OpInfo(**_RI),
    Opcode.LDQ: OpInfo(**_LD),
    Opcode.LDL: OpInfo(**_LD),
    Opcode.LDT: OpInfo(cls=OpClass.LOAD, latency=1, num_srcs=1, has_imm=True,
                       fp=True),
    Opcode.STQ: OpInfo(**_ST),
    Opcode.STL: OpInfo(**_ST),
    Opcode.STT: OpInfo(cls=OpClass.STORE, latency=1, num_srcs=2, has_imm=True,
                       writes_dest=False, integrable=False, fp=True),
    Opcode.BEQ: OpInfo(**_BR),
    Opcode.BNE: OpInfo(**_BR),
    Opcode.BLT: OpInfo(**_BR),
    Opcode.BLE: OpInfo(**_BR),
    Opcode.BGT: OpInfo(**_BR),
    Opcode.BGE: OpInfo(**_BR),
    Opcode.BR: OpInfo(cls=OpClass.DIRECT_JUMP, latency=1, num_srcs=0,
                      has_imm=True, writes_dest=False, integrable=False),
    Opcode.BSR: OpInfo(cls=OpClass.CALL_DIRECT, latency=1, num_srcs=0,
                       has_imm=True, writes_dest=True, integrable=False),
    Opcode.JSR: OpInfo(cls=OpClass.CALL_INDIRECT, latency=1, num_srcs=1,
                       has_imm=False, writes_dest=True, integrable=False),
    Opcode.JMP: OpInfo(cls=OpClass.INDIRECT_JUMP, latency=1, num_srcs=1,
                       has_imm=False, writes_dest=False, integrable=False),
    Opcode.RET: OpInfo(cls=OpClass.RETURN, latency=1, num_srcs=1,
                       has_imm=False, writes_dest=False, integrable=False),
    Opcode.ADDT: OpInfo(**_FP2),
    Opcode.SUBT: OpInfo(**_FP2),
    Opcode.MULT: OpInfo(cls=OpClass.FP_MUL, latency=4, num_srcs=2, fp=True),
    Opcode.DIVT: OpInfo(cls=OpClass.FP_DIV, latency=12, num_srcs=2, fp=True),
    Opcode.CPYS: OpInfo(cls=OpClass.FP_ADD, latency=1, num_srcs=1, fp=True),
    Opcode.ITOFT: OpInfo(cls=OpClass.FP_ADD, latency=1, num_srcs=1, fp=True),
    Opcode.FTOIT: OpInfo(cls=OpClass.FP_ADD, latency=1, num_srcs=1, fp=True),
    Opcode.SYSCALL: OpInfo(cls=OpClass.SYSCALL, latency=1, num_srcs=0,
                           has_imm=True, writes_dest=False, integrable=False),
    Opcode.NOP: OpInfo(cls=OpClass.NOP, latency=1, num_srcs=0,
                       writes_dest=False, integrable=False),
}

# Mapping from store opcodes to the load opcode that reads back the stored
# value.  Reverse integration uses this to create the complementary load
# entry when a store is renamed.
_STORE_TO_LOAD = {
    Opcode.STQ: Opcode.LDQ,
    Opcode.STL: Opcode.LDL,
    Opcode.STT: Opcode.LDT,
}

# Stable small-int identity (the enum declaration position) used by the
# integration-table index function, and a store's load counterpart with its
# identity; attached here so static instructions can precompute their index
# keys without hashing enum members per lookup.
for _i, _op in enumerate(Opcode):
    object.__setattr__(OPINFO[_op], "opcode_id", _i)
for _op, _info in OPINFO.items():
    _load = _STORE_TO_LOAD.get(_op)
    object.__setattr__(_info, "load_counterpart", _load)
    object.__setattr__(_info, "load_counterpart_id",
                       None if _load is None else OPINFO[_load].opcode_id)
del _i, _op, _info, _load

_OPCODE_BY_NAME = {op.value: op for op in Opcode}


def op_info(op: Opcode) -> OpInfo:
    """Return the :class:`OpInfo` metadata for ``op``."""
    return OPINFO[op]


def opcode_from_name(name: str) -> Opcode:
    """Look an opcode up by its mnemonic (``"addq"``, ``"ldq"``, ...)."""
    try:
        return _OPCODE_BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown opcode mnemonic: {name!r}") from None


def is_load(op: Opcode) -> bool:
    return OPINFO[op].is_load


def is_store(op: Opcode) -> bool:
    return OPINFO[op].is_store


def is_cond_branch(op: Opcode) -> bool:
    return OPINFO[op].is_cond_branch


def is_branch(op: Opcode) -> bool:
    """True for any instruction that can redirect the PC."""
    return OPINFO[op].is_branch


def is_integrable(op: Opcode) -> bool:
    """Whether the paper's integration mechanism ever considers this opcode."""
    return OPINFO[op].integrable


def load_counterpart(store_op: Opcode) -> Opcode:
    """Return the load opcode that reads back what ``store_op`` wrote.

    Used by reverse integration: renaming ``stq ra, imm(rb)`` creates the IT
    entry ``<ldq/imm, rb, -, ra>``.
    """
    try:
        return _STORE_TO_LOAD[store_op]
    except KeyError:
        raise ValueError(f"{store_op} is not a store opcode") from None
