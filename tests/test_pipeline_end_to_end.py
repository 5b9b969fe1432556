"""End-to-end timing-simulation tests.

The central correctness property: for any program and any configuration, the
timing core must retire exactly the instruction stream the functional
emulator executes and produce the same architectural results -- with
integration off, with every extension enabled, with tiny integration tables,
and on the reduced-complexity machines.  DIVA guarantees this in the design;
these tests guarantee it in the implementation.
"""

import pytest

from repro.core import MachineConfig, Processor, simulate
from repro.core.stats import IntegrationType
from repro.functional import Emulator
from repro.integration import IntegrationConfig, IndexScheme, LispMode
from repro.isa import assemble
from repro.workloads import (
    array_sum,
    build_workload,
    counted_loop,
    fib_recursive,
    matrix_smooth,
    pointer_chase,
    save_restore_chain,
)

KERNELS = {
    "counted_loop": counted_loop(iterations=40),
    "array_sum": array_sum(length=24),
    "fib": fib_recursive(9),
    "pointer_chase": pointer_chase(nodes=16, hops=96),
    "save_restore": save_restore_chain(depth=4, iterations=12),
    "matrix_smooth": matrix_smooth(size=6, passes=2),
}

CONFIGS = {
    "none": IntegrationConfig.disabled(),
    "squash": IntegrationConfig.squash(),
    "general": IntegrationConfig.general(),
    "opcode": IntegrationConfig.opcode(),
    "full": IntegrationConfig.full(),
    "full_oracle": IntegrationConfig.full(lisp_mode=LispMode.ORACLE),
    "tiny_it": IntegrationConfig.full(it_entries=16, it_assoc=1,
                                      num_physical_regs=256),
    "no_gen_counters": IntegrationConfig.full(generation_bits=0),
}


def reference(program):
    return Emulator(program).run()


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("kernel_name", list(KERNELS))
def test_timing_matches_functional(kernel_name, config_name):
    """The timing core retires the architectural execution exactly."""
    program = KERNELS[kernel_name]
    ref = reference(program)
    cfg = MachineConfig().with_integration(CONFIGS[config_name])
    stats = simulate(program, cfg, name=kernel_name)
    assert stats.retired == ref.instructions
    assert stats.cycles > 0


@pytest.mark.parametrize("kernel_name", ["fib", "save_restore"])
def test_architectural_state_matches(kernel_name):
    """Exit code, output and final memory agree with the functional run."""
    program = KERNELS[kernel_name]
    ref = reference(program)
    proc = Processor(program,
                     MachineConfig().with_integration(IntegrationConfig.full()))
    proc.run()
    assert proc.state.arch.exit_code == ref.state.exit_code
    assert proc.state.arch.output == ref.state.output
    assert proc.state.arch.memory.snapshot() == ref.state.memory.snapshot()
    # Architectural registers agree too.
    assert proc.state.arch.registers_snapshot() == ref.state.registers_snapshot()


def test_integration_never_slows_retirement_count():
    """Integration changes cycles, never the retired instruction stream."""
    program = KERNELS["save_restore"]
    base = simulate(program,
                    MachineConfig().with_integration(CONFIGS["none"]))
    full = simulate(program,
                    MachineConfig().with_integration(CONFIGS["full"]))
    assert base.retired == full.retired
    assert full.integration_rate > 0.1


def test_reverse_integration_targets_stack_loads():
    program = KERNELS["save_restore"]
    stats = simulate(program,
                     MachineConfig().with_integration(CONFIGS["full"]))
    assert stats.integrated_reverse > 0
    assert stats.integration_by_type[IntegrationType.LOAD_SP] > 0
    # Reverse integrations only come from stack loads and sp adjustments.
    for itype, count in stats.reverse_by_type.items():
        if count:
            assert itype in (IntegrationType.LOAD_SP, IntegrationType.ALU)


#: A recursion 12 calls deep, called 30 times: every level runs
#: the same ``lda sp, -16(sp)`` on a different stack pointer.
RECURSION = """
main:
    li    s1, 30
loop:
    li    a0, 12
    bsr   ra, down
    subqi s1, s1, 1
    bne   s1, loop
    mov   a0, v0
    syscall 0
down:
    lda   sp, -16(sp)
    stq   ra, 0(sp)
    beq   a0, back
    subqi a0, a0, 1
    bsr   ra, down
back:
    ldq   ra, 0(sp)
    lda   sp, 16(sp)
    ret
"""


def test_pc_indexing_with_reverse_never_mis_integrates_sp():
    """Under PC indexing a reverse entry would carry its creator's PC, so
    the next instance of the same ``lda sp`` would integrate the old stack
    pointer.  PC indexing creates no reverse entries: the run matches the
    one with reverse integration off, with no register mis-integration."""
    program = assemble(RECURSION, name="recursion", entry="main")
    pc = IntegrationConfig.full(index_scheme=IndexScheme.PC)
    stats = simulate(program, MachineConfig().with_integration(pc))
    assert stats.register_mis_integrations == 0
    assert stats.retired == reference(program).instructions
    no_reverse = simulate(program, MachineConfig().with_integration(
        IntegrationConfig.full(index_scheme=IndexScheme.PC, reverse=False)))
    assert stats.cycles == no_reverse.cycles


def test_no_integration_config_reports_zero_rate():
    program = KERNELS["counted_loop"]
    stats = simulate(program,
                     MachineConfig().with_integration(CONFIGS["none"]))
    assert stats.integrated == 0
    assert stats.integration_rate == 0.0


def test_general_reuse_integrates_program_constants():
    """The counted loop re-initialises a constant every iteration; general
    reuse integrates those instances."""
    program = KERNELS["counted_loop"]
    squash = simulate(program,
                      MachineConfig().with_integration(CONFIGS["squash"]))
    general = simulate(program,
                       MachineConfig().with_integration(CONFIGS["general"]))
    assert general.integrated > squash.integrated


def test_reduced_complexity_machines_run_correctly():
    program = KERNELS["fib"]
    ref = reference(program)
    base = MachineConfig()
    for variant in (base.reduced_rs(), base.reduced_issue_width(),
                    base.reduced_both()):
        stats = simulate(program,
                         variant.with_integration(IntegrationConfig.full()))
        assert stats.retired == ref.instructions


def test_branch_mispredictions_are_recovered():
    """A data-dependent branch pattern forces mispredictions; the machine
    must still retire the exact architectural stream."""
    program = assemble("""
    main:
        li   s0, 0
        li   s1, 40
        li   s2, 0
    loop:
        # alternate taken/not-taken based on the low bit of a changing value
        mulqi t0, s1, 2654435761
        andi  t0, t0, 1
        beq   t0, skip
        addqi s0, s0, 7
    skip:
        addqi s0, s0, 1
        subqi s1, s1, 1
        bgt   s1, loop
        mov   a0, s0
        syscall 0
    """, name="branchy")
    ref = reference(program)
    stats = simulate(program,
                     MachineConfig().with_integration(IntegrationConfig.full()))
    assert stats.retired == ref.instructions
    assert stats.retired_branches > 40


def test_memory_order_violation_recovery():
    """A store whose address resolves late (after a dependent load issued
    speculatively) must trigger recovery, not wrong results."""
    program = assemble("""
    main:
        li   t0, 5
        li   t1, 0x3000
        li   s0, 0
        li   s1, 30
    loop:
        mulq t2, t0, t0          # slow op producing the store address base
        addq t2, t1, zero
        stq  s1, 0(t2)           # store to 0x3000 (address ready late)
        ldq  t3, 0(t1)           # load from 0x3000 issued speculatively
        addq s0, s0, t3
        subqi s1, s1, 1
        bgt  s1, loop
        mov  a0, s0
        syscall 0
    """, name="memdep")
    ref = reference(program)
    stats = simulate(program,
                     MachineConfig().with_integration(IntegrationConfig.full()))
    assert stats.retired == ref.instructions
    proc_exit = simulate(program, MachineConfig().with_integration(
        IntegrationConfig.disabled()))
    assert proc_exit.retired == ref.instructions


def test_mis_integration_detection_and_lisp_training():
    """A load that integrates a stale stack value (the slot was overwritten
    by a conflicting store through a different base register) must be caught
    by DIVA and suppressed by the LISP afterwards."""
    program = assemble("""
    main:
        li   s1, 20
        li   s0, 0
    loop:
        lda  sp, -16(sp)
        stq  s1, 8(sp)           # save s1 (creates the reverse entry)
        mov  t5, sp
        addq t6, s1, zero
        stq  t6, 8(t5)           # conflicting store to the same slot
        ldq  t0, 8(sp)           # restore: reverse-integrates the stale value
        addq s0, s0, t0
        lda  sp, 16(sp)
        subqi s1, s1, 1
        bgt  s1, loop
        mov  a0, s0
        syscall 0
    """, name="misint")
    ref = reference(program)
    stats = simulate(program,
                     MachineConfig().with_integration(IntegrationConfig.full()))
    assert stats.retired == ref.instructions
    # Values must be architecturally correct even if mis-integrations occur.
    proc = Processor(program, MachineConfig().with_integration(
        IntegrationConfig.full()))
    proc.run()
    assert proc.state.arch.exit_code == ref.state.exit_code


@pytest.mark.parametrize("workload", ["gzip", "mcf", "crafty"])
def test_spec_like_workloads_run_on_timing_core(workload):
    program = build_workload(workload, scale=0.15)
    ref = Emulator(program).run()
    stats = simulate(program,
                     MachineConfig().with_integration(IntegrationConfig.full()),
                     name=workload)
    assert stats.retired == ref.instructions
    assert 0.0 <= stats.integration_rate < 0.9


def test_stats_summary_fields():
    stats = simulate(KERNELS["fib"],
                     MachineConfig().with_integration(IntegrationConfig.full()),
                     name="fib")
    summary = stats.summary()
    assert summary["retired"] == stats.retired
    assert 0 < summary["ipc"] < 4
    assert summary["benchmark"] == "fib"
