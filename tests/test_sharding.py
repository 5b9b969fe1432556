"""Checkpointed slice sharding: the PR-3 tentpole acceptance criteria.

* :meth:`SimStats.merge` is a lossless monoid (hypothesis: associativity,
  identity) and merge-of-slices reproduces the whole run's counters;
* functional fast-forward is deterministic (emulate N then continue ==
  run straight through) and checkpoints round-trip through JSON;
* ``shards=1`` is bit-identical to the plain engine; ``shards=2`` with a
  full-slice warm-up is exactly lossless end to end; every shard count
  keeps instruction-level counters exact, and with functionally warmed
  caches and predictor the merged IPC stays within 3% of the whole run at
  ``shards=4`` on the benchmarks that drift the most;
* the runner satellites: LRU-bounded in-process memo with eviction
  telemetry, longest-first estimates, checkpoint plans shared across
  configs with the same memory system and predictor and cached on disk.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MachineConfig, SimStats, simulate
from repro.core.stats import IntegrationType, ResultStatus
from repro.experiments import cache as cache_mod
from repro.experiments import runner, sharding
from repro.functional import Emulator, collect_checkpoints, fast_forward
from repro.functional.emulator import Checkpoint, run_program
from repro.integration.config import IntegrationConfig
from repro.workloads import build_workload
from repro.workloads.spec_like import estimate_dynamic_insts

FULL = MachineConfig().with_integration(IntegrationConfig.full())
NONE = MachineConfig().with_integration(IntegrationConfig.disabled())


def assert_stats_equal_modulo_occupancy(a: SimStats, b: SimStats) -> None:
    """Every counter identical; the per-cycle RS-occupancy accumulator may
    drift by a few samples at a slice seam (the budget stall perturbs the
    machine for a handful of cycles without changing the retired stream).
    ``cycles_elided`` is driver mechanics, not machine behaviour: the same
    seam stall splits or shifts the elided spans, so the count is excluded
    like the occupancy accumulator.  ``cpi_stack`` is per-cycle blame: the
    seam stall re-blames the same handful of cycles without minting or
    losing any, so the total stays exact while individual buckets may
    shift by a few cycles."""
    da, db = a.to_dict(), b.to_dict()
    da.pop("cycles_elided"), db.pop("cycles_elided")
    occ_a, occ_b = da.pop("rs_occupancy_sum"), db.pop("rs_occupancy_sum")
    cpi_a, cpi_b = da.pop("cpi_stack"), db.pop("cpi_stack")
    assert da == db
    assert occ_a == pytest.approx(occ_b, rel=0.001)
    assert sum(cpi_a.values()) == sum(cpi_b.values())
    for bucket in set(cpi_a) | set(cpi_b):
        assert abs(cpi_a.get(bucket, 0) - cpi_b.get(bucket, 0)) <= 8, bucket


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Fresh disk cache dir, cold in-process memos."""
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.setattr(runner, "_DISK_CACHE", None)
    runner._MEMORY_CACHE.clear()
    sharding.clear_plan_memo()
    runner.telemetry.reset()
    yield tmp_path
    runner._MEMORY_CACHE.clear()
    sharding.clear_plan_memo()
    monkeypatch.setattr(runner, "_DISK_CACHE", None)


# ----------------------------------------------------------------------
# SimStats.merge as a monoid
# ----------------------------------------------------------------------
_counts = st.integers(min_value=0, max_value=1 << 20)
_type_counter = st.dictionaries(
    st.sampled_from(list(IntegrationType)), _counts, max_size=5
).map(Counter)
_status_counter = st.dictionaries(
    st.sampled_from(list(ResultStatus)), _counts, max_size=4
).map(Counter)
_int_counter = st.dictionaries(
    st.sampled_from([4, 16, 64, 256, 1024, 4096]), _counts, max_size=6
).map(Counter)

_stats = st.builds(
    SimStats,
    benchmark=st.sampled_from(["", "gzip", "mcf"]),
    config_name=st.sampled_from(["", "full"]),
    cycles=_counts, fetched=_counts, renamed=_counts, retired=_counts,
    squashed=_counts, issued=_counts,
    rs_occupancy_sum=_counts, rs_occupancy_samples=_counts,
    retired_branches=_counts, retired_mispredicted_branches=_counts,
    branch_resolution_latency_sum=_counts,
    cht_hits=_counts, cht_trainings=_counts,
    integrated_direct=_counts, integrated_reverse=_counts,
    mis_integrations=_counts,
    integration_by_type=_type_counter,
    reverse_by_type=_type_counter,
    integration_distance=_int_counter,
    integration_status=_status_counter,
    integration_refcount=_int_counter,
    retired_by_type=_type_counter,
)


class TestMergeMonoid:
    @given(a=_stats, b=_stats, c=_stats)
    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_merge_is_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    @given(a=_stats)
    @settings(max_examples=60)
    def test_empty_stats_is_identity(self, a):
        identity = SimStats()
        assert identity.merge(a).to_dict() == a.to_dict()
        assert a.merge(identity).to_dict() == a.to_dict()

    @given(a=_stats, b=_stats)
    @settings(max_examples=60)
    def test_every_numeric_field_sums(self, a, b):
        merged = a.merge(b)
        for f in dataclasses.fields(SimStats):
            mine, theirs = getattr(a, f.name), getattr(b, f.name)
            got = getattr(merged, f.name)
            if isinstance(mine, Counter):
                expected = Counter(mine)
                expected.update(theirs)
                assert got == expected
            elif isinstance(mine, str):
                assert got == (mine or theirs)
            else:
                assert got == mine + theirs

    def test_merge_all_empty_is_identity(self):
        assert SimStats.merge_all([]).to_dict() == SimStats().to_dict()

    def test_derived_rates_recombine(self):
        a = SimStats(retired=100, cycles=50, integrated_direct=10,
                     rs_occupancy_sum=200, rs_occupancy_samples=50)
        b = SimStats(retired=300, cycles=250, integrated_direct=20,
                     rs_occupancy_sum=1000, rs_occupancy_samples=250)
        m = a.merge(b)
        assert m.ipc == pytest.approx(400 / 300)
        assert m.integration_rate == pytest.approx(30 / 400)
        assert m.avg_rs_occupancy == pytest.approx(1200 / 300)


# ----------------------------------------------------------------------
# functional fast-forward and checkpoints
# ----------------------------------------------------------------------
class TestFastForwardDeterminism:
    def test_fast_forward_then_run_equals_run(self):
        program = build_workload("gzip", scale=0.2)
        whole = run_program(program)
        state = fast_forward(program, 1000)
        assert state.inst_count == 1000
        resumed = Emulator(program, state=state).run()
        assert resumed.instructions == whole.instructions - 1000
        assert resumed.exit_code == whole.exit_code
        assert resumed.state.registers_snapshot() == \
            whole.state.registers_snapshot()
        assert resumed.state.memory.snapshot() == whole.state.memory.snapshot()
        assert resumed.output == whole.output   # output accumulates in state

    def test_checkpoint_states_match_fast_forward(self):
        program = build_workload("mcf", scale=0.2)
        total, cps = collect_checkpoints(program, [0, 500, 2000])
        assert [cp.insts for cp in cps] == [0, 500, 2000]
        assert total == run_program(program).instructions
        for cp in cps:
            expected = fast_forward(program, cp.insts)
            state = cp.state()
            assert state.pc == expected.pc
            assert state.regs == expected.regs
            assert state.memory.snapshot() == expected.memory.snapshot()
            assert state.inst_count == cp.insts

    def test_checkpoint_json_roundtrip(self):
        program = build_workload("gzip", scale=0.1)
        _, (cp,) = collect_checkpoints(program, [700])
        import json

        clone = Checkpoint.from_dict(json.loads(json.dumps(cp.to_dict())))
        assert clone.insts == cp.insts
        state, original = clone.state(), cp.state()
        assert state.regs == original.regs
        assert state.pc == original.pc
        assert state.memory.snapshot() == original.memory.snapshot()

    def test_boundaries_past_program_end_are_skipped(self):
        program = build_workload("gzip", scale=0.1)
        total, cps = collect_checkpoints(program, [0, 10 ** 9])
        assert [cp.insts for cp in cps] == [0]
        assert total > 0


class TestResumedTimingCore:
    def test_exact_retire_budget(self):
        program = build_workload("gzip", scale=0.2)
        stats = simulate(program, FULL, max_instructions=1001)
        assert stats.retired == 1001   # exact, not retire-width-rounded

    def test_resumed_slices_tile_the_program(self):
        program = build_workload("crafty", scale=0.2)
        total = run_program(program).instructions
        whole = simulate(program, FULL, name="crafty")
        assert whole.retired == total
        _, cps = collect_checkpoints(program, [0, 4000, 8000])
        budgets = [4000, 4000, total - 8000]
        parts = [simulate(program, FULL, name="crafty",
                          initial_state=cp.state() if cp.insts else None,
                          max_instructions=budget)
                 for cp, budget in zip(cps, budgets)]
        merged = SimStats.merge_all(parts)
        assert merged.retired == whole.retired
        assert [p.retired for p in parts] == budgets

    def test_warmup_discards_stats_but_advances_state(self):
        program = build_workload("gzip", scale=0.2)
        total = run_program(program).instructions
        _, (cp,) = collect_checkpoints(program, [1000])
        sliced = simulate(program, FULL, initial_state=cp.state(),
                          max_instructions=total - 3000,
                          warmup_instructions=2000)
        assert sliced.retired == total - 3000   # warm-up not counted
        assert sliced.cycles > 0

    def test_full_prefix_warmup_reproduces_whole_run_tail(self):
        """Warming from reset makes the counted region exact: the slice's
        stats equal whole-run minus prefix-run counters."""
        program = build_workload("mcf", scale=0.2)
        total = run_program(program).instructions
        boundary = total // 2
        whole = simulate(program, FULL, name="mcf")
        prefix = simulate(program, FULL, name="mcf",
                          max_instructions=boundary)
        tail = simulate(program, FULL, name="mcf",
                        max_instructions=total - boundary,
                        warmup_instructions=boundary)
        merged = prefix.merge(tail)
        assert_stats_equal_modulo_occupancy(merged, whole)


# ----------------------------------------------------------------------
# plans and the sharded suite engine
# ----------------------------------------------------------------------
class TestShardPlans:
    def test_plan_boundaries_tile_exactly(self):
        slices = sharding.plan_boundaries(10_000, 4, warmup_fraction=1.0)
        assert [s.boundary for s in slices] == [0, 2500, 5000, 7500]
        assert [s.budget for s in slices] == [2500] * 4
        assert sum(s.budget for s in slices) == 10_000
        assert slices[0].warmup == 0
        assert all(s.warmup == 2500 for s in slices[1:])

    def test_plan_boundaries_clamp_tiny_programs(self):
        slices = sharding.plan_boundaries(3, 8, warmup_fraction=1.0)
        assert sum(s.budget for s in slices) == 3
        assert [s.boundary for s in slices] == [0, 1, 2]

    def test_plan_key_depends_only_on_warmed_config_parts(self):
        key = sharding.plan_key("gzip", 0.2, 4, 1.0, FULL)
        # The integration config and the variant do not shape the plan...
        assert key == sharding.plan_key("gzip", 0.2, 4, 1.0, NONE)
        assert key == sharding.plan_key("gzip", 0.2, 4, 1.0,
                                        FULL.with_variant("oracle-bp"))
        # ...the memory system and the branch predictor, which it warms, do.
        slow_memory = dataclasses.replace(
            FULL, memsys=dataclasses.replace(FULL.memsys,
                                             memory_latency=400))
        small_btb = dataclasses.replace(
            FULL, branch_predictor=dataclasses.replace(
                FULL.branch_predictor, btb_entries=512))
        assert key != sharding.plan_key("gzip", 0.2, 4, 1.0, slow_memory)
        assert key != sharding.plan_key("gzip", 0.2, 4, 1.0, small_btb)
        assert key != sharding.plan_key("gzip", 0.2, 8, 1.0, FULL)
        assert key != sharding.plan_key("mcf", 0.2, 4, 1.0, FULL)

    def test_plan_roundtrips_through_disk_cache(self, isolated_cache):
        cache = cache_mod.PayloadCache()
        plan = sharding.build_plan("gzip", 0.1, 3, FULL, cache=cache)
        assert sorted(plan.warm) == [s.start for s in plan.slices[1:]]
        sharding.clear_plan_memo()
        again = sharding.build_plan("gzip", 0.1, 3, FULL, cache=cache)
        assert again.to_dict() == plan.to_dict()
        assert again.warm == plan.warm
        assert cache.hits >= 1   # second build came from disk

    def test_sharded_benchmark_shards2_is_exact(self, isolated_cache):
        # With a full-slice warm-up slice 1 starts at instruction 0, so it
        # replays slice 0 from reset and needs no warm state.
        whole = simulate(build_workload("gzip", scale=0.3), FULL, name="gzip")
        merged = runner.run_suite(["gzip"], {"full": FULL}, scale=0.3, jobs=1,
                                  shards=2,
                                  warmup_fraction=1.0)["full"]["gzip"]
        assert_stats_equal_modulo_occupancy(merged, whole)


class TestShardedSuite:
    def test_shards1_is_bit_identical_to_plain_engine(self, isolated_cache):
        program = build_workload("gzip", scale=0.2)
        direct = simulate(program, FULL, name="gzip")
        suite = runner.run_suite(["gzip"], {"full": FULL}, scale=0.2,
                                 jobs=1, shards=1)
        assert suite["full"]["gzip"].to_dict() == direct.to_dict()

    @pytest.mark.parametrize("bench", runner.SMOKE_BENCHMARKS)
    def test_merged_ipc_within_2_percent_of_unsharded(self, isolated_cache,
                                                      bench):
        """Sharded smoke-benchmark IPC within 2% at ``shards=2``.

        With the default quarter-slice warm-up, slice 1 starts after
        instruction 0 from functionally warmed caches and predictor, so
        this checks the warm state as well as the merge plumbing."""
        whole = runner.run_suite([bench], {"full": FULL}, scale=0.3,
                                 jobs=1, shards=1)["full"][bench]
        merged = runner.run_suite([bench], {"full": FULL}, scale=0.3,
                                  jobs=1, shards=2)["full"][bench]
        assert merged.retired == whole.retired
        assert merged.ipc == pytest.approx(whole.ipc, rel=0.02)

    def test_higher_shard_counts_keep_instruction_counters_exact(
            self, isolated_cache):
        whole = runner.run_suite(["gzip"], {"full": FULL}, scale=0.3,
                                 jobs=1, shards=1)["full"]["gzip"]
        merged = runner.run_suite(["gzip"], {"full": FULL}, scale=0.3,
                                  jobs=1, shards=4)["full"]["gzip"]
        # Instruction-level counters tile exactly at any shard count; only
        # cycle-accurate metrics carry the (documented) warm-up delta.
        assert merged.retired == whole.retired
        assert merged.ipc == pytest.approx(whole.ipc, rel=0.10)

    def test_parallel_sharded_equals_serial_sharded(self, isolated_cache):
        serial = runner.run_suite(["gzip", "mcf"], {"full": FULL}, scale=0.2,
                                  jobs=1, shards=3)
        runner.clear_cache(disk=True)
        parallel = runner.run_suite(["gzip", "mcf"], {"full": FULL},
                                    scale=0.2, jobs=4, shards=3)
        for bench in ("gzip", "mcf"):
            assert (serial["full"][bench].to_dict()
                    == parallel["full"][bench].to_dict())

    def test_checkpoints_shared_across_configs(self, isolated_cache):
        configs = {"none": NONE, "full": FULL}
        runner.run_suite(["gzip"], configs, scale=0.2, jobs=1, shards=3)
        # One plan serves both configs (they share the memory system and
        # predictor): one plan in memory, its payload on disk next to the
        # slice/merged results.
        warmup = runner.default_warmup_fraction()
        key = sharding.plan_key("gzip", 0.2, 3, warmup, NONE)
        assert key == sharding.plan_key("gzip", 0.2, 3, warmup, FULL)
        assert list(sharding._PLAN_MEMO) == [key]
        assert cache_mod.PayloadCache().load_payload(key) is not None
        assert runner.telemetry.slices_simulated == 6   # 3 slices x 2 configs

    def test_warm_sharded_sweep_runs_zero_simulations(self, isolated_cache):
        runner.run_suite(["gzip"], {"full": FULL}, scale=0.2, jobs=1,
                         shards=3)
        runner.clear_cache(disk=False)
        runner.telemetry.reset()
        runner.run_suite(["gzip"], {"full": FULL}, scale=0.2, jobs=1,
                         shards=3)
        assert runner.telemetry.simulations == 0
        assert runner.telemetry.disk_hits >= 1   # merged key hit

    def test_sharded_and_unsharded_results_never_collide(self,
                                                         isolated_cache):
        sharded = runner.run_suite(["gzip"], {"full": FULL}, scale=0.2,
                                   jobs=1, shards=4)["full"]["gzip"]
        runner.telemetry.reset()
        whole = runner.run_suite(["gzip"], {"full": FULL}, scale=0.2,
                                 jobs=1, shards=1)["full"]["gzip"]
        # The unsharded request re-simulated instead of returning the
        # sharded approximation.
        assert runner.telemetry.simulations == 1
        assert whole.to_dict() == simulate(build_workload("gzip", scale=0.2),
                                           FULL, name="gzip").to_dict()

    @pytest.mark.parametrize("config_name", ["none", "full"])
    @pytest.mark.parametrize("bench", ["mcf", "perl.d", "perl.s", "eon.k"])
    def test_four_shards_within_3_percent_of_unsharded(
            self, isolated_cache, bench, config_name):
        """At ``shards=4`` and the default warm-up, the merged IPC of the
        benchmarks with the largest cold-start error (9-15% before the
        caches and predictor were warmed during planning) stays within 3%
        of the whole run, and ``retired`` is exact."""
        config = {"none": NONE, "full": FULL}[config_name]
        whole = simulate(build_workload(bench, scale=0.05), config,
                         name=bench)
        merged = runner.run_suite([bench], {config_name: config},
                                  scale=0.05, jobs=1,
                                  shards=4)[config_name][bench]
        assert merged.retired == whole.retired
        assert abs(merged.ipc / whole.ipc - 1) <= 0.03

    def test_run_benchmark_accepts_shards(self, isolated_cache, monkeypatch):
        # A full-slice warm-up makes shards=2 exact (see above).
        monkeypatch.setenv("REPRO_SHARD_WARMUP", "1.0")
        stats = runner.run_benchmark("gzip", FULL, scale=0.2, shards=2)
        direct = simulate(build_workload("gzip", scale=0.2), FULL,
                          name="gzip")
        assert_stats_equal_modulo_occupancy(stats, direct)   # shards=2 exact

    def test_cli_accepts_shards(self, isolated_cache, capsys):
        from repro.__main__ import main

        rc = main(["run", "--benchmarks", "gzip", "--scale", "0.1",
                   "--shards", "2", "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "slices" in out

    def test_repro_shards_env_var(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert runner.default_shards() == 3
        monkeypatch.setenv("REPRO_SHARDS", "not-a-number")
        with pytest.raises(runner.EnvVarError):
            runner.default_shards()
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(runner.EnvVarError):
            runner.default_shards()

    def test_explicit_bad_shards_is_a_value_error(self, monkeypatch):
        # An explicit bad argument is the caller's bug, not an env problem:
        # it must raise a catchable ValueError, not a SystemExit subclass.
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        with pytest.raises(ValueError):
            runner.default_shards(0)
        assert runner.default_shards(3) == 3
        assert runner.default_shards(10 ** 6) == sharding.MAX_SHARDS

    def test_cli_rejects_bad_shards(self, isolated_cache):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--shards"):
            main(["run", "--benchmarks", "gzip", "--scale", "0.1",
                  "--shards", "0"])


# ----------------------------------------------------------------------
# runner satellites: LRU memo + longest-first estimates
# ----------------------------------------------------------------------
class TestMemoryCacheBound:
    def test_lru_eviction_is_bounded_and_counted(self, isolated_cache):
        runner.telemetry.reset()
        memo = runner._LruMemo(2)
        a, b, c = SimStats(retired=1), SimStats(retired=2), SimStats(retired=3)
        memo["a"] = a
        memo["b"] = b
        assert runner.telemetry.memory_evictions == 0
        memo["c"] = c
        assert runner.telemetry.memory_evictions == 1
        assert "a" not in memo                      # least-recent dropped
        assert memo.get("b") is b
        assert memo.get("c") is c

    def test_lru_get_refreshes_recency(self, isolated_cache):
        memo = runner._LruMemo(2)
        memo["a"] = SimStats(retired=1)
        memo["b"] = SimStats(retired=2)
        memo.get("a")                               # refresh "a"
        memo["c"] = SimStats(retired=3)
        assert "a" in memo
        assert "b" not in memo


class TestLongestFirstEstimates:
    def test_estimates_rank_known_extremes(self):
        # vortex is by far the longest benchmark, vpr.r among the shortest.
        estimates = {name: estimate_dynamic_insts(name, 0.3)
                     for name in runner.DEFAULT_BENCHMARKS}
        ranked = sorted(estimates, key=estimates.get, reverse=True)
        assert ranked[0] == "vortex"
        assert estimates["vortex"] > estimates["gzip"] > 0

    def test_estimates_scale_monotonically(self):
        assert (estimate_dynamic_insts("crafty", 1.0)
                > estimate_dynamic_insts("crafty", 0.3)
                > estimate_dynamic_insts("crafty", 0.1) > 0)

    def test_unknown_benchmark_estimates_zero(self):
        assert estimate_dynamic_insts("no-such-benchmark", 1.0) == 0
