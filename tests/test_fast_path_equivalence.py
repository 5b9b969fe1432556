"""Driver vs stepped-reference equivalence (hypothesis cross-check).

The engine has one driver loop, :meth:`Processor._run_phase`, which skips
stages with provably no work and jumps quiescent spans.  The ground truth
is :class:`SteppedProcessor` below, whose ``_run_phase`` calls
:meth:`Processor.step` -- every stage, every cycle -- under the same
budget, ``max_cycles`` and deadlock checks.  The two must be
**cycle-for-cycle identical**: same cycle count, same per-cycle RS
occupancy samples, same squash/recovery behaviour, same integration
statistics -- on arbitrary programs and on every registered machine
variant.

These tests drive both over the same program and compare a fingerprint of
every order-sensitive counter.  The workload-based cases are
chosen so mid-run recovery actually happens (mispredicted branches and
memory-order violations both squash), which the tests assert rather than
assume.
"""

import os
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.core import MachineConfig, simulate
from repro.core.diva import SimulationError
from repro.core.pipeline import Processor
from repro.integration.config import IntegrationConfig
from repro.isa import ProgramBuilder
from repro.variants import variant_names
from repro.workloads import build_workload, pointer_chase_memory_bound


def _sorted_items(counter):
    """Deterministic Counter ordering (keys may be enums, which don't sort)."""
    return tuple(sorted(counter.items(), key=lambda kv: str(kv[0])))


def _fingerprint(stats):
    """Every counter whose value depends on per-cycle event order."""
    return (
        stats.cycles, stats.fetched, stats.renamed, stats.retired,
        stats.squashed, stats.issued, stats.executed_loads,
        stats.executed_stores, stats.rs_occupancy_sum,
        stats.rs_occupancy_samples, stats.retired_branches,
        stats.retired_mispredicted_branches,
        stats.branch_resolution_latency_sum, stats.memory_order_violations,
        stats.cht_hits, stats.cht_trainings, stats.integrated_direct,
        stats.integrated_reverse, stats.mis_integrations,
        stats.load_mis_integrations, stats.register_mis_integrations,
        stats.lisp_suppressed, stats.refcount_saturation_failures,
        _sorted_items(stats.integration_by_type),
        _sorted_items(stats.integration_distance),
        _sorted_items(stats.integration_status),
        _sorted_items(stats.retired_by_type),
        _sorted_items(stats.cpi_stack),
    )


@contextmanager
def _env(**overrides):
    """Set/unset environment variables for the duration of one run.

    A plain context manager (not the monkeypatch fixture) so it can be used
    inside hypothesis-driven tests, which reuse function-scoped fixtures
    across examples.
    """
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class SteppedProcessor(Processor):
    """The reference driver: :meth:`Processor.step` once per cycle.

    Every stage runs on every cycle and nothing is elided, so this loop is
    the plain statement of the machine's semantics that the engine's
    stage-skipping, span-jumping driver must reproduce.
    """

    def _run_phase(self, budget):
        state = self.state
        config = self.config
        state.retire_budget = budget
        while not state.arch.halted:
            if budget is not None and state.stats.retired >= budget:
                break
            if state.cycle >= config.max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded {config.max_cycles} cycles")
            if state.cycle - state.last_retire_cycle > config.deadlock_cycles:
                raise SimulationError(
                    f"{self.program.name}: no retirement for "
                    f"{config.deadlock_cycles} cycles at cycle {state.cycle} "
                    f"(ROB={len(state.rob)}, RS={state.rs.occupancy})")
            self.step()


def _run_both(program, config, name="equiv"):
    """Simulate with the engine's driver and with the stepped reference."""
    fast = simulate(program, config, name=name)
    slow = SteppedProcessor(program, config, name=name).run()
    return fast, slow


@st.composite
def branchy_programs(draw):
    """Random programs with data-dependent branches and aliasing memory.

    Conditional branches over skipped filler give the predictor real
    mispredictions (squash + recovery at execute); loads and stores share a
    small window of ``gp``-relative slots so store-load ordering logic is
    exercised too.  All branches are forward, so every program terminates.
    """
    builder = ProgramBuilder(name="random-branchy")
    regs = ["t0", "t1", "t2", "t3", "s0", "s1"]
    builder.label("main")
    for reg in regs:
        builder.li(reg, draw(st.integers(min_value=0, max_value=255)))
    blocks = draw(st.integers(min_value=2, max_value=5))
    for block in range(blocks):
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            kind = draw(st.integers(min_value=0, max_value=3))
            rd = draw(st.sampled_from(regs))
            ra = draw(st.sampled_from(regs))
            if kind == 0:
                op = draw(st.sampled_from(["addq", "subq", "xor", "and",
                                           "or", "cmplt"]))
                builder.rr(op, rd, ra, draw(st.sampled_from(regs)))
            elif kind == 1:
                op = draw(st.sampled_from(["addqi", "subqi", "xori", "slli"]))
                builder.ri(op, rd, ra, draw(st.integers(min_value=1,
                                                        max_value=15)))
            elif kind == 2:
                offset = 8 * draw(st.integers(min_value=0, max_value=7))
                builder.stq(ra, offset, "gp")
            else:
                offset = 8 * draw(st.integers(min_value=0, max_value=7))
                builder.load("ldq", rd, offset, "gp")
        op = draw(st.sampled_from(["beq", "bne", "blt", "bge"]))
        builder.cbr(op, draw(st.sampled_from(regs)), f"join{block}")
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            builder.ri("addqi", draw(st.sampled_from(regs)),
                       draw(st.sampled_from(regs)), 1)
        builder.label(f"join{block}")
    builder.mov("a0", draw(st.sampled_from(regs)))
    builder.syscall(0)
    return builder.build(entry="main")


class TestFastPathEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=branchy_programs())
    def test_random_programs_match_cycle_for_cycle(self, program):
        config = MachineConfig().with_integration(IntegrationConfig.full())
        fast, slow = _run_both(program, config)
        assert _fingerprint(fast) == _fingerprint(slow)

    @pytest.mark.parametrize("variant", variant_names())
    def test_every_variant_matches_on_real_workload(self, variant):
        program = build_workload("gzip", scale=0.05)
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.full())
                  .with_variant(variant))
        fast, slow = _run_both(program, config,
                               name=f"equiv-{variant}")
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_equivalence_covers_midrun_recovery(self):
        """The workload comparison is only meaningful if recovery fires."""
        program = build_workload("crafty", scale=0.05)
        config = MachineConfig().with_integration(IntegrationConfig.full())
        fast, slow = _run_both(program, config,
                               name="equiv-recovery")
        assert fast.squashed > 0, "no mid-run squash exercised"
        assert fast.retired_mispredicted_branches > 0
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_integration_disabled_matches_too(self):
        program = build_workload("mcf", scale=0.05)
        config = MachineConfig().with_integration(
            IntegrationConfig.disabled())
        fast, slow = _run_both(program, config,
                               name="equiv-none")
        assert _fingerprint(fast) == _fingerprint(slow)


def _run_elide_both(program, config, name="elide"):
    """Simulate with elision on and off and return both.

    Both runs use the engine's driver: elision is a refinement of it, and
    ``REPRO_ELIDE=0`` with the per-cycle loop is the ground truth the jumps
    must reproduce bit-for-bit.
    """
    with _env(REPRO_ELIDE="1"):
        elided = simulate(program, config, name=name)
    with _env(REPRO_ELIDE="0"):
        stepped = simulate(program, config, name=name)
    return elided, stepped


@st.composite
def memory_stall_programs(draw):
    """Pointer chases tuned to stall: conflict-missing rings of drawn shape.

    Drawn strides cover the full range of behaviours the elision guards
    must survive: 512KB (every hop a main-memory miss -- maximal quiescent
    spans), 4KB (L2 hits after warmup -- short spans), and 16 bytes
    (cache-resident -- elision almost never fires, exercising the veto
    paths instead).
    """
    nodes = draw(st.integers(min_value=5, max_value=10))
    hops = draw(st.integers(min_value=16, max_value=48))
    stride = draw(st.sampled_from([512 * 1024, 4096, 16]))
    return pointer_chase_memory_bound(nodes=nodes, hops=hops, stride=stride)


class TestElisionEquivalence:
    """Event-horizon cycle elision is invisible in every counter.

    ``REPRO_ELIDE=1`` (the default) jumps the clock across provably
    quiescent spans; ``REPRO_ELIDE=0`` steps them one cycle at a time.
    Every statistic except the diagnostic ``cycles_elided`` must be
    bit-identical, on every machine variant.
    """

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=memory_stall_programs())
    def test_random_memory_stall_programs_match(self, program):
        config = MachineConfig().with_integration(IntegrationConfig.full())
        elided, stepped = _run_elide_both(program, config)
        assert _fingerprint(elided) == _fingerprint(stepped)
        assert stepped.cycles_elided == 0

    @pytest.mark.parametrize("variant", variant_names())
    def test_every_variant_matches(self, variant):
        program = pointer_chase_memory_bound(nodes=6, hops=64)
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.full())
                  .with_variant(variant))
        elided, stepped = _run_elide_both(program, config,
                                          name=f"elide-{variant}")
        assert _fingerprint(elided) == _fingerprint(stepped)
        assert elided.cycles_elided > 0, \
            "no span was elided; the comparison is vacuous"
        assert stepped.cycles_elided == 0

    def test_branchy_recovery_still_matches(self):
        """Squash/recovery interleaved with stalls doesn't break elision."""
        program = build_workload("mcf", scale=0.05)
        config = MachineConfig().with_integration(IntegrationConfig.full())
        elided, stepped = _run_elide_both(program, config,
                                          name="elide-recovery")
        assert elided.squashed > 0, "no mid-run squash exercised"
        assert _fingerprint(elided) == _fingerprint(stepped)

    def test_jump_accumulates_stats_exactly(self):
        """A jump's arithmetic accumulation equals the per-cycle loop.

        The elision driver accumulates ``rs_occupancy_sum`` and
        ``rs_occupancy_samples`` arithmetically (``span * len(waiting)``)
        instead of sampling each skipped cycle; this pins the exact
        equality of those two paths on a run with long jumps.
        """
        program = pointer_chase_memory_bound(nodes=8, hops=128)
        config = MachineConfig()
        elided, stepped = _run_elide_both(program, config,
                                          name="elide-stats")
        assert elided.cycles_elided > 0
        assert elided.cycles == stepped.cycles
        assert elided.rs_occupancy_sum == stepped.rs_occupancy_sum
        assert elided.rs_occupancy_samples == stepped.rs_occupancy_samples
        # Elision is a driver mechanic, not an architectural event: the
        # per-cycle ground truth run reports zero.
        assert stepped.cycles_elided == 0
