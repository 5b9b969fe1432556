"""Static and dynamic instruction records.

:class:`StaticInst` is the immutable program-level instruction (one per PC);
:class:`DynInst` is a single dynamic instance flowing through the pipeline,
carrying renamed registers, values and per-stage timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.isa.opcodes import OpClass, Opcode, OPINFO, is_store
from repro.isa.registers import REG_FZERO, REG_SP, REG_ZERO, reg_name


#: Bits an opcode id takes in an IT tag.
_OPCODE_BITS = len(Opcode).bit_length()


def it_tag(op: Opcode, imm: Optional[int]) -> int:
    """The integration-table tag of operation ``op``/``imm`` under opcode
    indexing: the pair packed into one integer, so a probe compares one
    integer per entry.  Bit 0 says whether there is an immediate, the next
    bits hold the opcode id and the rest the immediate (negative ones
    included), so two tags are equal exactly when the opcodes are the same
    and the immediates compare equal; ``None`` is not 0.  A tag feeds no
    set index and no output."""
    opcode = OPINFO[op].opcode_id << 1
    if imm is None:
        return opcode
    return (imm << (_OPCODE_BITS + 1)) | opcode | 1


@dataclass(frozen=True)
class StaticInst:
    """One static (program) instruction.

    Operand conventions (unified register indices, ``None`` when absent):

    * ALU reg-reg:   ``rd = ra <op> rb``
    * ALU reg-imm:   ``rd = ra <op> imm``           (includes ``lda``)
    * load:          ``rd = mem[ra + imm]``
    * store:         ``mem[rb + imm] = ra``          (``ra`` is the data reg)
    * cond branch:   test ``ra`` against zero, branch to ``target``
    * ``br``/``bsr``: direct jump/call to ``target`` (``bsr`` writes ``rd``)
    * ``jsr``/``jmp``/``ret``: indirect control through ``ra``
    * ``syscall``:   service selected by ``imm``
    """

    pc: int
    op: Opcode
    rd: Optional[int] = None
    ra: Optional[int] = None
    rb: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None
    label: Optional[str] = None

    # ``info``, ``cls``, the operand views and the integration metadata are
    # precomputed per static instruction (written in one update of the
    # frozen instance's dict): the per-cycle loops read them constantly, and
    # an attribute read is far cheaper than an enum-hashing OPINFO lookup.
    # Integration metadata, from per-opcode OpInfo fields:
    # * ``it_key`` / ``it_tag`` -- IT index key (opcode id XOR immediate)
    #   and tag (:func:`it_tag`) of the direct entry under opcode indexing;
    # * ``it_reverse_key`` / ``it_reverse_tag`` -- the same for the reverse
    #   entry: a store's complementary load, or the opposite
    #   ``lda sp, imm(sp)``; None for every other instruction;
    # * ``it_creates`` -- whether renaming it creates any IT entry: a store,
    #   an integrable branch, or an integrable write to a real register.
    #   This is the one statement of the rule; rename and
    #   ``IntegrationLogic.create_entries`` only read it;
    # * ``itype`` -- the Figure 5 type, ``integration_type(inst)``.
    def __post_init__(self):
        info = OPINFO[self.op]
        ra = self.ra
        rb = self.rb
        if ra is None:
            srcs = () if rb is None else (rb,)
        else:
            srcs = (ra,) if rb is None else (ra, rb)
        dest = self.rd if info.writes_dest else None
        imm = self.imm or 0
        reverse_tag = reverse_key = None
        if info.is_store:
            reverse_tag = it_tag(info.load_counterpart, self.imm)
            reverse_key = info.load_counterpart_id ^ (imm & 0xFFFF)
        elif ra == REG_SP and self.rd == REG_SP and self.op is Opcode.LDA:
            reverse_tag = it_tag(Opcode.LDA, -imm)
            reverse_key = info.opcode_id ^ (-imm & 0xFFFF)
        self.__dict__.update(
            info=info, cls=info.cls, srcs=srcs, dest=dest,
            it_key=info.opcode_id ^ (imm & 0xFFFF),
            it_tag=it_tag(self.op, self.imm),
            it_reverse_tag=reverse_tag, it_reverse_key=reverse_key,
            it_creates=info.is_store or (info.integrable and (
                info.is_cond_branch or (dest is not None and dest != REG_ZERO
                                        and dest != REG_FZERO))),
            itype=info.itype_sp if ra == REG_SP else info.itype)

    def dest_reg(self) -> Optional[int]:
        """Logical destination register, or ``None``."""
        return self.dest

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        info = self.info
        parts = [self.op.value]
        ops = []
        if info.writes_dest and self.rd is not None:
            ops.append(reg_name(self.rd))
        if info.cls is OpClass.LOAD:
            ops.append(f"{self.imm}({reg_name(self.ra)})")
        elif is_store(self.op):
            ops = [reg_name(self.ra), f"{self.imm}({reg_name(self.rb)})"]
        elif info.cls is OpClass.COND_BRANCH:
            ops = [reg_name(self.ra), f"@{self.target:#x}"]
        elif info.cls in (OpClass.DIRECT_JUMP, OpClass.CALL_DIRECT):
            ops.append(f"@{self.target:#x}")
        elif info.cls in (OpClass.CALL_INDIRECT, OpClass.INDIRECT_JUMP,
                          OpClass.RETURN):
            ops.append(f"({reg_name(self.ra)})")
        else:
            if self.ra is not None:
                ops.append(reg_name(self.ra))
            if self.rb is not None:
                ops.append(reg_name(self.rb))
            if info.has_imm and self.imm is not None:
                ops.append(str(self.imm))
        return f"{self.pc:#06x}: {parts[0]} " + ", ".join(ops)


class DynInst:
    """A dynamic instruction instance in flight in the timing model.

    The out-of-order core attaches renamed register identifiers, operand
    values, integration metadata and per-stage cycle timestamps.  The class
    uses ``__slots__`` because simulations create one object per dynamic
    instruction.  Fetch passes its cycle, the call depth and the branch
    predictor checkpoint to the constructor.  The integration-only fields
    (``reverse_integrated``, ``integration_distance``,
    ``integration_status``, ``integration_refcount``) have no default: the
    rename stage sets them when the instruction integrates, and nothing
    reads them otherwise.
    """

    __slots__ = (
        "seq", "inst", "info", "next_pc",
        "call_depth",
        # renaming
        "src_pregs", "src_key", "dest_preg", "dest_gen", "old_dest_preg",
        "old_dest_gen",
        "map_checkpoint",
        # integration
        "integrated", "reverse_integrated", "integration_distance",
        "integration_status", "integration_refcount", "it_entry",
        # execution state
        "eff_addr", "store_value",
        "issued", "completed", "squashed",
        "branch_taken", "branch_mispredicted", "mem_mispeculated",
        "mis_integrated",
        # timing
        "fetch_cycle", "rename_cycle", "dispatch_cycle",
        "complete_cycle", "retire_cycle",
        # resources
        "rs_pending", "in_lsq",
        # memory operations only, set at load/store-queue insert: the
        # aligned word resolved or loaded (None before), and a load's
        # CHT-hit flag and ``(cycle, addr, store)`` issue probe
        "mem_addr", "cht_counted", "issue_probe",
    )

    def __init__(self, seq: int, inst: StaticInst, fetch_cycle: int = -1,
                 call_depth: int = 0, map_checkpoint=None):
        self.seq = seq
        self.inst = inst
        self.info = inst.info
        self.next_pc = None
        self.call_depth = call_depth
        self.src_pregs: Sequence[int] = ()
        #: The flat ``(preg, gen[, preg, gen])`` source key the integration
        #: table matches on (set by the rename stage,
        #: ``RenameIntegrate.tick``).
        self.src_key: Tuple[int, ...] = ()
        self.dest_preg: Optional[int] = None
        self.dest_gen: int = 0
        self.old_dest_preg: Optional[int] = None
        self.old_dest_gen: int = 0
        self.map_checkpoint = map_checkpoint
        self.integrated = False
        self.it_entry = None
        self.eff_addr = None
        self.store_value = None
        self.issued = False
        self.completed = False
        self.squashed = False
        self.branch_taken = False
        self.branch_mispredicted = False
        self.mem_mispeculated = False
        self.mis_integrated = False
        self.fetch_cycle = fetch_cycle
        self.rename_cycle = -1
        self.dispatch_cycle = -1
        self.complete_cycle = -1
        self.retire_cycle = -1
        #: Source operands still awaited while waiting in the scheduler.
        self.rs_pending = 0
        #: Honest load/store-queue membership flag (set/cleared by the LSQ).
        self.in_lsq = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.integrated:
            flags.append("REV" if self.reverse_integrated else "INT")
        if self.squashed:
            flags.append("SQ")
        return f"<DynInst #{self.seq} {self.inst} {' '.join(flags)}>"
