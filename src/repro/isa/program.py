"""Program container and programmatic builder.

A :class:`Program` is an immutable sequence of :class:`StaticInst` addressed
by PC (4 bytes per instruction), plus optional initial data-memory contents.
:class:`ProgramBuilder` is the mutable construction API used both by the text
assembler and by the synthetic SPEC-like workload generators.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.isa.instruction import StaticInst
from repro.isa.opcodes import Opcode, opcode_from_name
from repro.isa.registers import REG_RA, reg_index

INST_SIZE = 4

RegLike = Union[int, str]
TargetLike = Union[int, str]


def _reg(r: Optional[RegLike]) -> Optional[int]:
    if r is None:
        return None
    if isinstance(r, str):
        return reg_index(r)
    return int(r)


class Program:
    """An assembled program: instructions, labels and initial data memory."""

    def __init__(self, insts: List[StaticInst], labels: Dict[str, int],
                 entry: int = 0, data: Optional[Dict[int, int]] = None,
                 name: str = "program"):
        self._insts = list(insts)
        self.labels = dict(labels)
        self.entry = entry
        self.data = dict(data or {})
        self.name = name
        self._by_pc = {inst.pc: inst for inst in self._insts}
        #: ``at(pc)``: the instruction at ``pc``, or ``None`` if it falls
        #: outside the program (the pipeline treats that as the end of the
        #: run).  It is the dict's own ``get``, so fetch looks instructions
        #: up without a Python-level call.
        self.at: Callable[[int], Optional[StaticInst]] = self._by_pc.get

    def __len__(self) -> int:
        return len(self._insts)

    def __iter__(self) -> Iterator[StaticInst]:
        return iter(self._insts)

    def label_pc(self, name: str) -> int:
        """The PC of a label; the assembler tests check label resolution
        with it."""
        return self.labels[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name!r}: {len(self)} instructions>"


class ProgramBuilder:
    """Incrementally build a :class:`Program`.

    Branch and call targets may be given as label strings; forward references
    are resolved at :meth:`build` time.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._records: List[dict] = []
        self._labels: Dict[str, int] = {}
        self._data: Dict[int, int] = {}
        self._pending_label: List[str] = []

    # ------------------------------------------------------------------
    # construction primitives
    # ------------------------------------------------------------------
    @property
    def next_pc(self) -> int:
        return len(self._records) * INST_SIZE

    def label(self, name: str) -> int:
        """Attach ``name`` to the next emitted instruction's PC."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        pc = self.next_pc
        self._labels[name] = pc
        return pc

    def set_data(self, addr: int, value: int) -> None:
        """Pre-initialise a data-memory word; the functional tests seed
        memory with it."""
        self._data[addr] = value

    def emit(self, op: Union[Opcode, str], rd: Optional[RegLike] = None,
             ra: Optional[RegLike] = None, rb: Optional[RegLike] = None,
             imm: Optional[int] = None,
             target: Optional[TargetLike] = None) -> int:
        """Emit one instruction; returns its PC."""
        if isinstance(op, str):
            op = opcode_from_name(op)
        pc = self.next_pc
        self._records.append(dict(pc=pc, op=op, rd=_reg(rd), ra=_reg(ra),
                                  rb=_reg(rb), imm=imm, target=target))
        return pc

    # ------------------------------------------------------------------
    # convenience emitters (used heavily by the workload generators)
    # ------------------------------------------------------------------
    def rr(self, op: Union[Opcode, str], rd: RegLike, ra: RegLike,
           rb: RegLike) -> int:
        """Register-register ALU/FP operation."""
        return self.emit(op, rd=rd, ra=ra, rb=rb)

    def ri(self, op: Union[Opcode, str], rd: RegLike, ra: RegLike,
           imm: int) -> int:
        """Register-immediate ALU operation."""
        return self.emit(op, rd=rd, ra=ra, imm=imm)

    def lda(self, rd: RegLike, imm: int, base: RegLike) -> int:
        """``lda rd, imm(base)`` -- address / stack-pointer arithmetic."""
        return self.emit(Opcode.LDA, rd=rd, ra=base, imm=imm)

    def li(self, rd: RegLike, value: int) -> int:
        """Load-immediate pseudo-instruction (``lda rd, value(zero)``)."""
        return self.emit(Opcode.LDA, rd=rd, ra="zero", imm=value)

    def mov(self, rd: RegLike, ra: RegLike) -> int:
        """Register move pseudo-instruction (``or rd, ra, zero``)."""
        return self.emit(Opcode.OR, rd=rd, ra=ra, rb="zero")

    def load(self, op: Union[Opcode, str], rd: RegLike, imm: int,
             base: RegLike) -> int:
        return self.emit(op, rd=rd, ra=base, imm=imm)

    def store(self, op: Union[Opcode, str], src: RegLike, imm: int,
              base: RegLike) -> int:
        return self.emit(op, ra=src, rb=base, imm=imm)

    def ldq(self, rd: RegLike, imm: int, base: RegLike) -> int:
        return self.load(Opcode.LDQ, rd, imm, base)

    def stq(self, src: RegLike, imm: int, base: RegLike) -> int:
        return self.store(Opcode.STQ, src, imm, base)

    def cbr(self, op: Union[Opcode, str], ra: RegLike,
            target: TargetLike) -> int:
        """Conditional branch on ``ra`` to ``target`` (label or PC)."""
        return self.emit(op, ra=ra, target=target)

    def br(self, target: TargetLike) -> int:
        return self.emit(Opcode.BR, target=target)

    def bsr(self, target: TargetLike, rd: RegLike = REG_RA) -> int:
        """Direct call: writes the return address into ``rd``."""
        return self.emit(Opcode.BSR, rd=rd, target=target)

    def ret(self, ra: RegLike = REG_RA) -> int:
        return self.emit(Opcode.RET, ra=ra)

    def syscall(self, code: int) -> int:
        return self.emit(Opcode.SYSCALL, imm=code)

    def nop(self) -> int:
        return self.emit(Opcode.NOP)

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def build(self, entry: Union[int, str] = 0) -> Program:
        """Resolve label targets and produce the immutable :class:`Program`."""
        insts: List[StaticInst] = []
        for rec in self._records:
            target = rec["target"]
            if isinstance(target, str):
                if target not in self._labels:
                    raise ValueError(f"undefined label {target!r}")
                target = self._labels[target]
            op = rec["op"]
            imm = rec["imm"]
            # Direct control flow carries its displacement as the immediate
            # too, so opcode/immediate indexing sees a meaningful value.
            if target is not None and imm is None:
                imm = target - (rec["pc"] + INST_SIZE)
            insts.append(StaticInst(pc=rec["pc"], op=op, rd=rec["rd"],
                                    ra=rec["ra"], rb=rec["rb"], imm=imm,
                                    target=target))
        entry_pc = self._labels[entry] if isinstance(entry, str) else entry
        return Program(insts, self._labels, entry=entry_pc, data=self._data,
                       name=self.name)
