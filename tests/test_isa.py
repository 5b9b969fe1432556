"""Unit tests for the ISA layer: registers, opcodes, semantics, instructions."""

import pytest

from repro.isa import (
    Opcode,
    OpClass,
    REG_RA,
    REG_SP,
    REG_ZERO,
    StaticInst,
    is_branch,
    is_cond_branch,
    is_integrable,
    is_load,
    is_store,
    load_counterpart,
    op_info,
    reg_index,
    reg_name,
)
from repro.isa.opcodes import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_INDIRECT,
    KIND_LOAD,
    KIND_STORE,
    OPINFO,
    SEQ_BITS,
    opcode_from_name,
)
from repro.isa import semantics
from repro.isa.registers import NUM_LOGICAL_REGS, REG_FP_BASE, is_zero_reg


class TestRegisters:
    def test_aliases_map_to_alpha_numbers(self):
        assert reg_index("sp") == 30
        assert reg_index("ra") == 26
        assert reg_index("zero") == 31
        assert reg_index("v0") == 0
        assert reg_index("a0") == 16
        assert reg_index("s0") == 9
        assert reg_index("t0") == 1

    def test_numeric_and_fp_names(self):
        assert reg_index("r5") == 5
        assert reg_index("f0") == REG_FP_BASE
        assert reg_index("f31") == REG_FP_BASE + 31

    def test_round_trip_names(self):
        for idx in range(NUM_LOGICAL_REGS):
            assert reg_index(reg_name(idx)) == idx

    def test_zero_registers(self):
        assert is_zero_reg(REG_ZERO)
        assert is_zero_reg(REG_FP_BASE + 31)
        assert not is_zero_reg(REG_SP)

    def test_unknown_register_raises(self):
        with pytest.raises(ValueError):
            reg_index("r99")
        with pytest.raises(ValueError):
            reg_name(200)


class TestOpcodes:
    def test_every_opcode_has_metadata(self):
        for op in Opcode:
            info = op_info(op)
            assert info.latency >= 1
            assert 0 <= info.num_srcs <= 2

    def test_classification_helpers(self):
        assert is_load(Opcode.LDQ) and is_load(Opcode.LDT)
        assert is_store(Opcode.STQ) and not is_store(Opcode.LDQ)
        assert is_cond_branch(Opcode.BEQ)
        assert is_branch(Opcode.RET) and is_branch(Opcode.BSR)
        assert not is_branch(Opcode.ADDQ)

    def test_paper_exclusions_from_integration(self):
        """System calls, stores and direct jumps are never integrated."""
        for op in (Opcode.SYSCALL, Opcode.STQ, Opcode.STL, Opcode.STT,
                   Opcode.BR, Opcode.BSR, Opcode.NOP):
            assert not is_integrable(op), op
        for op in (Opcode.ADDQ, Opcode.LDQ, Opcode.BEQ, Opcode.LDA,
                   Opcode.ADDT):
            assert is_integrable(op), op

    def test_load_counterpart(self):
        assert load_counterpart(Opcode.STQ) is Opcode.LDQ
        assert load_counterpart(Opcode.STL) is Opcode.LDL
        assert load_counterpart(Opcode.STT) is Opcode.LDT
        with pytest.raises(ValueError):
            load_counterpart(Opcode.ADDQ)

    def test_opcode_from_name(self):
        assert opcode_from_name("addq") is Opcode.ADDQ
        assert opcode_from_name("LDQ") is Opcode.LDQ
        with pytest.raises(ValueError):
            opcode_from_name("bogus")

    def test_latencies_reflect_classes(self):
        assert OPINFO[Opcode.MULQ].latency > OPINFO[Opcode.ADDQ].latency
        assert OPINFO[Opcode.DIVT].latency > OPINFO[Opcode.ADDT].latency

    def test_port_code_mirrors_issue_port(self):
        # The scheduler indexes its per-port limits by port_code.
        order = ("simple", "complex", "load", "store")
        for op in Opcode:
            info = op_info(op)
            assert order[info.port_code] == info.issue_port, op

    def test_kind_code_covers_every_scheduled_opcode(self):
        for op in Opcode:
            info = op_info(op)
            if not info.needs_rs:
                assert info.kind_code == -1, op
            elif info.is_load:
                assert info.kind_code == KIND_LOAD, op
            elif info.is_store:
                assert info.kind_code == KIND_STORE, op
            elif info.is_alu:
                assert info.kind_code == KIND_ALU, op
            elif info.is_cond_branch:
                assert info.kind_code == KIND_BRANCH, op
            else:
                assert info.is_indirect_ctl, op
                assert info.kind_code == KIND_INDIRECT, op

    def test_sort_bias_orders_priority_before_age(self):
        high = op_info(Opcode.LDQ)       # loads have issue priority
        low = op_info(Opcode.ADDQ)
        assert high.issue_priority < low.issue_priority
        oldest, youngest = 1, (1 << SEQ_BITS) - 1
        assert high.sort_bias | youngest < low.sort_bias | oldest
        assert low.sort_bias | oldest < low.sort_bias | (oldest + 1)
        for op in Opcode:
            info = op_info(op)
            assert info.sort_bias == info.issue_priority << SEQ_BITS, op


class TestStaticInst:
    def test_alu_operands(self):
        inst = StaticInst(pc=0, op=Opcode.ADDQ, rd=1, ra=2, rb=3)
        assert inst.srcs == (2, 3)
        assert inst.dest_reg() == 1

    def test_store_has_no_destination(self):
        inst = StaticInst(pc=0, op=Opcode.STQ, ra=1, rb=30, imm=8)
        assert inst.dest_reg() is None
        assert inst.srcs == (1, 30)

    def test_branch_sources(self):
        inst = StaticInst(pc=0, op=Opcode.BEQ, ra=4, imm=16, target=20)
        assert inst.srcs == (4,)
        assert inst.dest_reg() is None


class TestSemantics:
    def test_add_sub_wraparound(self):
        big = (1 << 64) - 1
        assert semantics.evaluate(Opcode.ADDQ, big, 1, None) == 0
        assert semantics.evaluate(Opcode.SUBQ, 0, 1, None) == big

    def test_signed_comparisons(self):
        minus_one = (1 << 64) - 1
        assert semantics.evaluate(Opcode.CMPLT, minus_one, 0, None) == 1
        assert semantics.evaluate(Opcode.CMPULT, minus_one, 0, None) == 0
        assert semantics.evaluate(Opcode.CMPLE, 5, 5, None) == 1
        assert semantics.evaluate(Opcode.CMPEQ, 5, 6, None) == 0

    def test_immediate_forms(self):
        assert semantics.evaluate(Opcode.ADDQI, 10, None, 5) == 15
        assert semantics.evaluate(Opcode.LDA, 100, None, -32) == 68
        assert semantics.evaluate(Opcode.SUBQI, 10, None, 3) == 7
        assert semantics.evaluate(Opcode.SLLI, 1, None, 4) == 16
        assert semantics.evaluate(Opcode.SRAI, (1 << 64) - 8, None, 1) == \
            semantics.to_unsigned(-4)

    def test_shift_amounts_are_masked(self):
        assert semantics.evaluate(Opcode.SLL, 1, 64, None) == 1
        assert semantics.evaluate(Opcode.SRL, 8, 1, None) == 4

    def test_logical_ops(self):
        assert semantics.evaluate(Opcode.AND, 0b1100, 0b1010, None) == 0b1000
        assert semantics.evaluate(Opcode.OR, 0b1100, 0b1010, None) == 0b1110
        assert semantics.evaluate(Opcode.XOR, 0b1100, 0b1010, None) == 0b0110

    def test_fp_ops(self):
        assert semantics.evaluate(Opcode.ADDT, 1.5, 2.5, None) == 4.0
        assert semantics.evaluate(Opcode.MULT, 3.0, 2.0, None) == 6.0
        assert semantics.evaluate(Opcode.ITOFT, 7, None, None) == 7.0
        assert semantics.evaluate(Opcode.FTOIT, 7.9, None, None) == 7

    def test_branch_taken(self):
        minus = semantics.to_unsigned(-1)
        assert semantics.branch_taken(Opcode.BEQ, 0)
        assert not semantics.branch_taken(Opcode.BEQ, 1)
        assert semantics.branch_taken(Opcode.BNE, 1)
        assert semantics.branch_taken(Opcode.BLT, minus)
        assert semantics.branch_taken(Opcode.BGE, 0)
        assert semantics.branch_taken(Opcode.BGT, 3)
        assert not semantics.branch_taken(Opcode.BLE, 3)
        with pytest.raises(ValueError):
            semantics.branch_taken(Opcode.ADDQ, 0)

    def test_narrowing(self):
        negative32 = 0xFFFF_FFFF
        assert semantics.narrow_load_value(Opcode.LDL, negative32) == \
            semantics.to_unsigned(-1)
        assert semantics.narrow_load_value(Opcode.LDQ, negative32) == negative32

    def test_signed_round_trip(self):
        for value in (0, 1, -1, 2**63 - 1, -(2**63)):
            assert semantics.to_signed(semantics.to_unsigned(value)) == value
