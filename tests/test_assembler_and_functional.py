"""Tests for the text assembler, the program builder and the functional
emulator (including the micro-kernels used throughout the suite)."""

import pytest

from repro.functional import (ArchState, Emulator, SparseMemory, StepResult,
                              execute_step)
from repro.functional.emulator import EmulationLimitExceeded, run_program
from repro.isa import AssemblerError, Opcode, ProgramBuilder, assemble
from repro.isa.program import INST_SIZE
from repro.isa.registers import REG_SP
from repro.workloads import (
    array_sum,
    counted_loop,
    fib_recursive,
    matrix_smooth,
    pointer_chase,
    save_restore_chain,
)


class TestAssembler:
    def test_basic_program(self):
        prog = assemble("""
        main:
            li   t0, 5
            addqi t0, t0, 3
            mov  a0, t0
            syscall 0
        """)
        assert len(prog) == 4
        result = run_program(prog)
        assert result.exit_code == 8

    def test_memory_operands(self):
        prog = assemble("""
            li   t0, 42
            stq  t0, 16(sp)
            ldq  t1, 16(sp)
            mov  a0, t1
            syscall 0
        """)
        assert run_program(prog).exit_code == 42

    def test_labels_and_branches(self):
        prog = assemble("""
            li t0, 3
            li t1, 0
        loop:
            addqi t1, t1, 10
            subqi t0, t0, 1
            bgt t0, loop
            mov a0, t1
            syscall 0
        """)
        assert run_program(prog).exit_code == 30

    def test_call_and_ret(self):
        prog = assemble("""
        main:
            li a0, 7
            bsr ra, double
            mov a0, v0
            syscall 0
        double:
            addq v0, a0, a0
            ret
        """)
        assert run_program(prog).exit_code == 14

    def test_comments_and_blank_lines(self):
        prog = assemble("""
            # a comment
            li a0, 1   ; trailing comment

            syscall 0
        """)
        assert len(prog) == 2

    def test_label_pcs_recorded(self):
        prog = assemble("""
        start:
            nop
        second:
            nop
        """)
        assert prog.label_pc("start") == 0
        assert prog.label_pc("second") == INST_SIZE

    def test_errors(self):
        with pytest.raises(AssemblerError):
            assemble("addq t0, t1")           # missing operand
        with pytest.raises(AssemblerError):
            assemble("ldq t0, t1")            # not a memory operand
        with pytest.raises(AssemblerError):
            assemble("bogus t0, t1, t2")      # unknown opcode
        with pytest.raises(ValueError):
            assemble("br nowhere")            # undefined label


class TestProgramBuilder:
    def test_duplicate_label_rejected(self):
        builder = ProgramBuilder()
        builder.label("x")
        builder.nop()
        with pytest.raises(ValueError):
            builder.label("x")

    def test_forward_reference_resolution(self):
        builder = ProgramBuilder()
        builder.cbr("beq", "t0", "later")
        builder.nop()
        builder.label("later")
        builder.nop()
        prog = builder.build()
        assert prog.at(0).target == 2 * INST_SIZE

    def test_data_initialisation(self):
        builder = ProgramBuilder()
        builder.set_data(0x1000, 77)
        builder.ldq("a0", 0x1000, "zero")
        builder.syscall(0)
        prog = builder.build()
        assert run_program(prog).exit_code == 77


class TestEmulator:
    def test_zero_register_writes_are_discarded(self):
        prog = assemble("""
            li zero, 99
            mov a0, zero
            syscall 0
        """)
        assert run_program(prog).exit_code == 0

    def test_putint_syscall(self):
        prog = assemble("""
            li a0, 5
            syscall 1
            li a0, 6
            syscall 1
            syscall 0
        """)
        result = run_program(prog)
        assert result.output == [5, 6]

    def test_limit_exceeded(self):
        prog = assemble("""
        spin:
            br spin
        """)
        with pytest.raises(EmulationLimitExceeded):
            Emulator(prog).run(max_instructions=100)

    def test_non_strict_run_returns_partial(self):
        prog = assemble("""
        spin:
            addqi t0, t0, 1
            br spin
        """)
        result = Emulator(prog).run(max_instructions=50, strict=False)
        assert result.instructions == 50
        assert not result.halted

    def test_running_off_the_end_halts(self):
        prog = assemble("nop\nnop")
        result = run_program(prog)
        assert result.instructions == 2
        assert result.exit_code is None

    def test_execute_step_store_and_load(self):
        prog = assemble("""
            li t0, 123
            stq t0, 8(sp)
            ldq t1, 8(sp)
        """)
        state = ArchState(pc=0)
        for _ in range(3):
            inst = prog.at(state.pc)
            execute_step(state, inst)
        assert state.read_reg(2) == 123       # t1

    def test_steps_report_what_they_did_by_attribute(self):
        """Every step handler gives the whole :class:`StepResult`; DIVA,
        planning and the oracle predictor read it by attribute."""
        prog = assemble("""
            li t0, 123
            stq t0, 8(sp)
            ldq t1, 8(sp)
            beq zero, done
            nop
        done:
            syscall 0
        """)
        emulator = Emulator(prog)
        steps = []
        while (result := emulator.step()) is not None:
            assert isinstance(result, StepResult)
            steps.append(result)
        li, stq, ldq, beq, exit_ = steps
        sp = emulator.state.read_reg(REG_SP)
        assert [s.inst.pc for s in steps] == [0, 4, 8, 12, 20]
        assert (li.next_pc, li.dest_value, li.eff_addr, li.taken) == (
            4, 123, None, None)
        assert (stq.eff_addr, stq.store_value, stq.dest_value) == (
            sp + 8, 123, None)
        assert (ldq.eff_addr, ldq.dest_value) == (sp + 8, 123)
        assert (beq.taken, beq.next_pc) == (True, 20)
        assert exit_.halted and not beq.halted
        assert StepResult(li.inst, 4) == (li.inst, 4, None, None, None,
                                         None, False)


class TestSparseMemory:
    def test_alignment(self):
        mem = SparseMemory()
        mem.write(0x1004, 9)
        assert mem.read(0x1000) == 9
        assert mem.read(0x1007) == 9

    def test_default_zero_and_copy(self):
        mem = SparseMemory({0x20: 5})
        assert mem.read(0x20) == 5
        assert mem.read(0x28) == 0
        clone = mem.copy()
        clone.write(0x20, 6)
        assert mem.read(0x20) == 5


class TestKernels:
    """The micro-kernels produce their closed-form results functionally."""

    def test_counted_loop(self):
        result = run_program(counted_loop(iterations=50, step=4))
        assert result.exit_code == 200

    def test_array_sum(self):
        result = run_program(array_sum(length=32))
        assert result.exit_code == sum(range(32))

    def test_fib(self):
        result = run_program(fib_recursive(10))
        assert result.exit_code == 55

    def test_pointer_chase(self):
        result = run_program(pointer_chase(nodes=16, hops=64))
        assert result.exit_code is not None
        assert result.load_count >= 64

    def test_save_restore_chain(self):
        result = run_program(save_restore_chain(depth=4, iterations=8))
        assert result.exit_code is not None
        # Every call level saves three registers.
        assert result.store_count >= 4 * 8 * 3

    def test_matrix_smooth_has_fp(self):
        from repro.isa.opcodes import OpClass
        result = run_program(matrix_smooth(size=6, passes=2))
        assert result.class_counts.get(OpClass.FP_ADD, 0) > 0
        assert result.class_counts.get(OpClass.FP_MUL, 0) > 0
