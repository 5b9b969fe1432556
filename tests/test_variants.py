"""The machine-variant registry and the machine builder.

Covers the PR acceptance criteria:

* the ``baseline`` variant is bit-identical to the seed ``Processor``
  (golden counters, and the builder path is the only path);
* ``no-integration`` reports zero integrations while retiring the same
  architectural state (and matches the integration-disabled goldens
  counter for counter);
* ``oracle-bp`` never retires a mispredicted branch (hypothesis-checked
  across benchmarks and scales);
* variants produce *distinct* content-addressed cache keys at every level
  (result, slice, merged) while the baseline fingerprint is byte-identical
  to the pre-variant one, so old cache entries still resolve;
* every non-baseline variant runs end-to-end through ``run_suite`` --
  sharded and unsharded -- and appears in the scenario-matrix report.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MachineConfig, Processor, SimStats, simulate
from repro.core.builder import SLOT_NAMES, MachineBuilder
from repro.core.stages import (CommitDiva, FrontEnd, IssueExecute,
                               RenameIntegrate)
from repro.experiments import cache as cache_mod
from repro.experiments import figures, runner, sharding
from repro.experiments.cache import result_key
from repro.functional.emulator import run_program
from repro.integration.config import IntegrationConfig
from repro.isa import Opcode, StaticInst
from repro.isa.instruction import DynInst
from repro.rename.physical import PhysicalRegisterFile
from repro.variants import (
    UnknownVariantError,
    describe_variants,
    get_builder,
    variant_names,
)
from repro.workloads import build_workload

from test_golden_pipeline import CONFIGS, GOLDEN, GOLDEN_SCALE

NON_BASELINE = tuple(n for n in variant_names() if n != "baseline")

#: Fingerprint of the default MachineConfig without a ``variant`` field.
#: The field is elided from canonical JSON at its default, so adding it
#: left this value alone; only adding, removing or moving a config field
#: moves it.
PRE_VARIANT_FINGERPRINT = "8dd1d35851b78560"


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
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
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_ships_required_variants(self):
        names = variant_names()
        assert names[0] == "baseline"
        for required in ("no-integration", "oracle-bp", "no-cht",
                         "inorder-issue"):
            assert required in names
        assert len(NON_BASELINE) >= 4

    def test_unknown_variant_is_one_line_system_exit(self):
        with pytest.raises(UnknownVariantError) as excinfo:
            get_builder("trace-cache")
        assert isinstance(excinfo.value, SystemExit)
        message = str(excinfo.value)
        assert "trace-cache" in message and "baseline" in message
        assert "\n" not in message

    def test_descriptions_and_overridden_slots(self):
        listing = describe_variants()
        for name, info in listing.items():
            assert info["description"]
            for slot in info["overrides"]:
                assert slot in SLOT_NAMES
        assert listing["baseline"]["overrides"] == ()
        assert listing["oracle-bp"]["overrides"] == ("build_predictor",)
        assert listing["inorder-issue"]["overrides"] == ("build_scheduler",)
        assert listing["no-cht"]["overrides"] == ("build_cht",)
        assert listing["no-integration"]["overrides"] == (
            "build_integration",)

    def test_unknown_variant_fails_before_simulation(self):
        config = MachineConfig().with_variant("not-registered")
        program = build_workload("gzip", scale=0.05)
        with pytest.raises(UnknownVariantError):
            Processor(program, config)
        with pytest.raises(UnknownVariantError):
            runner.run_suite(["gzip"], {"x": MachineConfig()},
                             scale=0.05, variant="not-registered")
        # A bad variant carried *inside* a config must abort in the parent
        # with the same one-line error, never inside a pool worker.
        with pytest.raises(UnknownVariantError):
            runner.run_suite(["gzip"], {"x": config}, scale=0.05, jobs=2,
                             use_cache=False)


# ----------------------------------------------------------------------
# baseline: bit-identical to the seed machine
# ----------------------------------------------------------------------
class TestBaselineGolden:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("bench_name",
                         sorted({b for b, _ in GOLDEN}))
    def test_explicit_baseline_variant_matches_goldens(self, bench_name,
                                                       config_name):
        config = (MachineConfig()
                  .with_integration(CONFIGS[config_name])
                  .with_variant("baseline"))
        program = build_workload(bench_name, scale=GOLDEN_SCALE)
        stats = simulate(program, config, name=bench_name)
        expected = GOLDEN[(bench_name, config_name)]
        observed = {name: getattr(stats, name) for name in expected}
        assert observed == expected
        assert stats.variant == "baseline"

    def test_explicit_builder_overrides_config_variant(self):
        """Passing a builder wins over config.variant resolution."""
        program = build_workload("gzip", scale=GOLDEN_SCALE)
        config = (MachineConfig()
                  .with_integration(CONFIGS["full"])
                  .with_variant("no-integration"))
        stats = simulate(program, config, name="gzip",
                         builder=MachineBuilder())
        assert stats.integrated > 0   # baseline builder ran, not the stub


# ----------------------------------------------------------------------
# no-integration: the control machine
# ----------------------------------------------------------------------
class TestNoIntegration:
    @pytest.mark.parametrize("bench_name", sorted({b for b, _ in GOLDEN}))
    def test_matches_integration_disabled_goldens(self, bench_name):
        """Stubbing the logic slot is cycle-identical to disabling
        integration in the configuration: the control is trustworthy."""
        config = (MachineConfig()
                  .with_integration(CONFIGS["full"])
                  .with_variant("no-integration"))
        program = build_workload(bench_name, scale=GOLDEN_SCALE)
        stats = simulate(program, config, name=bench_name)
        expected = GOLDEN[(bench_name, "none")]
        observed = {name: getattr(stats, name) for name in expected}
        assert observed == expected

    def test_retires_same_architectural_state(self):
        program = build_workload("crafty", scale=0.15)
        reference = run_program(program)
        proc = Processor(program,
                         MachineConfig().with_variant("no-integration"))
        stats = proc.run()
        assert stats.integrated == 0
        assert stats.mis_integrations == 0
        assert stats.retired == reference.instructions
        assert proc.state.arch.regs == reference.state.regs
        assert list(proc.state.arch.output) == reference.output
        assert proc.state.arch.exit_code == reference.exit_code


# ----------------------------------------------------------------------
# oracle-bp: perfect control speculation
# ----------------------------------------------------------------------
class TestOracleBP:
    @settings(deadline=None, max_examples=8)
    @given(bench=st.sampled_from(sorted({b for b, _ in GOLDEN})),
           scale=st.sampled_from([0.1, 0.15, 0.2]))
    def test_never_retires_a_mispredicted_branch(self, bench, scale):
        """With integration off (no DIVA faults) the oracle front end must
        be perfect at retirement for any benchmark and scale."""
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.disabled())
                  .with_variant("oracle-bp"))
        program = build_workload(bench, scale=scale)
        proc = Processor(program, config)
        stats = proc.run()
        assert stats.retired_mispredicted_branches == 0
        assert stats.retired > 0
        # The same architectural state retires.
        reference = run_program(program)
        assert stats.retired == reference.instructions
        assert proc.state.arch.regs == reference.state.regs

    def test_with_integration_only_mis_integrations_flush(self):
        """Under full integration the only 'mispredictions' left are
        mis-integrated branches caught by DIVA."""
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.full())
                  .with_variant("oracle-bp"))
        program = build_workload("crafty", scale=GOLDEN_SCALE)
        stats = simulate(program, config, name="crafty")
        assert stats.retired == GOLDEN[("crafty", "full")]["retired"]
        assert (stats.retired_mispredicted_branches
                <= stats.mis_integrations)

    def test_truncated_stream_warns_and_falls_back(self):
        """If the reference-emulation budget runs out before the program
        halts, the oracle must say so loudly, not silently degrade; the
        off-stream prediction is the learned predictor's."""
        from repro.frontend.branch_predictor import (BranchPredictor,
                                                     BranchPredictorConfig)
        from repro.variants.oracle_bp import OracleBranchPredictor

        program = build_workload("gzip", scale=0.1)
        predictor = OracleBranchPredictor(BranchPredictorConfig(), program,
                                          max_instructions=0)
        learned = BranchPredictor(BranchPredictorConfig())
        branch = next(inst for inst in program if inst.info.is_branch)
        with pytest.warns(RuntimeWarning, match="truncated"):
            prediction = predictor.predict(branch)
        expected = learned.predict(branch)
        assert (prediction.taken, prediction.target, prediction.is_cond) == (
            expected.taken, expected.target, expected.is_cond)
        assert predictor.history == learned.history

    def test_stream_extends_lazily(self):
        """A short detailed run must not emulate the whole program: sliced
        oracle jobs only pay for the fetch window they actually cover."""
        program = build_workload("vortex", scale=0.5)
        total = run_program(program).instructions
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.disabled())
                  .with_variant("oracle-bp"))
        proc = Processor(program, config)
        proc.run(max_instructions=200)
        emulated = proc.state.predictor._emulated
        assert emulated < total
        assert emulated <= 200 + 4 * 4096   # window + a few lazy chunks

    def test_oracle_is_not_slower_than_baseline(self):
        config = MachineConfig().with_integration(CONFIGS["full"])
        program = build_workload("gzip", scale=GOLDEN_SCALE)
        base = simulate(program, config, name="gzip")
        oracle = simulate(program, config.with_variant("oracle-bp"),
                          name="gzip")
        assert oracle.cycles <= base.cycles


# ----------------------------------------------------------------------
# no-cht and inorder-issue: protocol-reusing variants
# ----------------------------------------------------------------------
class TestNoCHT:
    def test_never_constrains_a_load(self):
        config = MachineConfig().with_variant("no-cht")
        program = build_workload("mcf", scale=GOLDEN_SCALE)
        base = simulate(program, MachineConfig(), name="mcf")
        stats = simulate(program, config, name="mcf")
        assert stats.cht_hits == 0
        assert stats.retired == base.retired
        # Without the filter the machine can only squash more, never less.
        assert stats.memory_order_violations >= base.memory_order_violations
        assert stats.cht_trainings == stats.memory_order_violations


class TestInOrderIssue:
    def test_program_order_issue_is_never_faster(self):
        program = build_workload("crafty", scale=GOLDEN_SCALE)
        base = simulate(program, MachineConfig(), name="crafty")
        stats = simulate(program,
                         MachineConfig().with_variant("inorder-issue"),
                         name="crafty")
        assert stats.retired == base.retired
        assert stats.cycles >= base.cycles

    def test_select_respects_program_order(self):
        """Issue order (by issue cycle) must be monotone in seq for every
        cycle: no younger instruction issues while an older one waits."""
        from repro.variants.inorder import InOrderReservationStations

        prf = PhysicalRegisterFile(70)
        rs = InOrderReservationStations(8, prf=prf)
        late = prf.allocate()               # not ready until written
        older = DynInst(1, StaticInst(pc=4, op=Opcode.ADDQ, rd=1, ra=2,
                                      rb=3))
        older.src_pregs = (late,)
        younger = DynInst(2, StaticInst(pc=8, op=Opcode.ADDQ, rd=4, ra=5,
                                        rb=6))
        rs.insert(older)
        rs.insert(younger)                  # no sources: ready at once
        selected = rs.select(lambda d: True)
        assert selected == []   # stalled head blocks the ready younger op
        prf.set_value(late, 7)
        selected = rs.select(lambda d: True)
        assert [d.seq for d in selected] == [1, 2]
        assert rs.occupancy == 0


# ----------------------------------------------------------------------
# cache-key discipline across variants
# ----------------------------------------------------------------------
class TestVariantCacheKeys:
    def test_baseline_fingerprint_is_pre_variant_fingerprint(self):
        assert MachineConfig().fingerprint() == PRE_VARIANT_FINGERPRINT
        assert (MachineConfig().with_variant("baseline").fingerprint()
                == PRE_VARIANT_FINGERPRINT)

    def test_variant_elided_from_canonical_dict_at_default(self):
        assert "variant" not in MachineConfig().to_dict()
        assert (MachineConfig().with_variant("oracle-bp").to_dict()["variant"]
                == "oracle-bp")

    def test_pre_variant_config_dict_still_loads(self):
        """A config dict serialized before the variant field existed (no
        'variant' key) deserializes to the baseline variant."""
        payload = MachineConfig().to_dict()
        assert "variant" not in payload
        restored = MachineConfig.from_dict(payload)
        assert restored == MachineConfig()
        assert restored.variant == "baseline"

    def test_pre_variant_simstats_payload_still_loads(self):
        payload = SimStats(benchmark="gzip", config_name="x").to_dict()
        del payload["variant"]   # what a pre-variant cache entry looks like
        restored = SimStats.from_dict(payload)
        assert restored.benchmark == "gzip"
        assert restored.variant == ""

    def test_result_keys_distinct_across_all_variants(self):
        keys = {result_key("gzip", 0.2,
                           MachineConfig().with_variant(name))
                for name in variant_names()}
        assert len(keys) == len(variant_names())
        # ... and the baseline key is exactly the pre-variant key.
        assert result_key("gzip", 0.2, MachineConfig()) in keys

    def test_slice_and_merged_keys_distinct_across_variants(self):
        base = MachineConfig()
        other = base.with_variant("inorder-issue")
        for variant_config in (other,):
            assert (sharding.slice_key("gzip", 0.2, base, 4, 1.0, 0)
                    != sharding.slice_key("gzip", 0.2, variant_config,
                                          4, 1.0, 0))
            assert (sharding.merged_key("gzip", 0.2, base, 4, 1.0)
                    != sharding.merged_key("gzip", 0.2, variant_config,
                                           4, 1.0))

    def test_disk_cache_never_shadows_across_variants(self, isolated_cache):
        """Two variants of the same (benchmark, config): both simulate,
        both cache, both re-resolve to their own numbers."""
        config = MachineConfig()
        base = runner.run_benchmark("gzip", config, scale=0.1)
        inorder = runner.run_benchmark("gzip", config, scale=0.1,
                                       variant="inorder-issue")
        assert runner.telemetry.simulations == 2
        assert base.cycles != inorder.cycles
        runner._MEMORY_CACHE.clear()
        runner.telemetry.reset()
        base2 = runner.run_benchmark("gzip", config, scale=0.1)
        inorder2 = runner.run_benchmark(
            "gzip", config, scale=0.1, variant="inorder-issue")
        assert runner.telemetry.simulations == 0
        assert runner.telemetry.disk_hits == 2
        assert base2 == base
        assert inorder2 == inorder


# ----------------------------------------------------------------------
# end-to-end: run_suite, sharding, scenario matrix
# ----------------------------------------------------------------------
class TestVariantsEndToEnd:
    def test_all_non_baseline_variants_through_sharded_run_suite(
            self, isolated_cache):
        """Every non-baseline variant runs through the sharded engine;
        checkpoint plans are shared, results are variant-specific."""
        configs = {name: MachineConfig().with_variant(name)
                   for name in variant_names()}
        results = runner.run_suite(["gzip"], configs, scale=0.1, jobs=1,
                                   shards=2)
        retired = {results[name]["gzip"].retired
                   for name in variant_names()}
        assert len(retired) == 1        # same architectural stream
        cycles = {name: results[name]["gzip"].cycles
                  for name in variant_names()}
        assert cycles["inorder-issue"] > cycles["baseline"]
        for name in variant_names():
            assert results[name]["gzip"].variant == name

    def test_sharded_equals_unsharded_per_variant(self, isolated_cache):
        """shards=2 with full warm-up stays exact for every variant, and
        the variant's own predictor takes the warm state at shards=4."""
        for name in ("oracle-bp", "inorder-issue"):
            config = MachineConfig().with_variant(name)
            whole = runner.run_benchmark("gzip", config, scale=0.1,
                                         use_cache=False)
            merged = runner.run_suite(["gzip"], {name: config}, scale=0.1,
                                      jobs=1, shards=2,
                                      warmup_fraction=1.0)[name]["gzip"]
            assert merged.retired == whole.retired
            assert merged.cycles == whole.cycles
            assert merged.integrated == whole.integrated
            warmed = runner.run_benchmark("gzip", config, scale=0.1,
                                          shards=4)
            assert warmed.retired == whole.retired
            assert warmed.ipc == pytest.approx(whole.ipc, rel=0.03)

    def test_scenario_matrix_covers_registry(self, isolated_cache):
        def sweep():
            # The matrix sweeps every variant itself: ``variant`` must
            # not retarget it.
            return figures.run(["scenarios"], ["gzip"], scale=0.1, jobs=1,
                               variant="oracle-bp")["scenarios"]

        result = sweep()
        assert result.variants == list(variant_names())
        text = figures.report("scenarios", result)
        for name in variant_names():
            assert name in text
        assert result.ipc_delta("baseline") == pytest.approx(0.0)
        assert result.mean_misprediction_rate("oracle-bp") == 0.0
        assert result.mean_misprediction_rate("baseline") > 0.0
        assert result.mean_integration_rate("no-integration") == 0.0
        # Warm rerun must be pure cache replay.
        runner.telemetry.reset()
        runner._MEMORY_CACHE.clear()
        sweep()
        assert runner.telemetry.simulations == 0


# ----------------------------------------------------------------------
# env + CLI plumbing
# ----------------------------------------------------------------------
class TestVariantEnvAndCli:
    def test_default_variant_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_VARIANT", raising=False)
        assert runner.default_variant() is None

    def test_default_variant_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_VARIANT", "no-cht")
        assert runner.default_variant() == "no-cht"

    def test_default_variant_invalid_is_env_var_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_VARIANT", "warp-drive")
        with pytest.raises(runner.EnvVarError) as excinfo:
            runner.default_variant()
        assert "REPRO_VARIANT" in str(excinfo.value)
        assert "warp-drive" in str(excinfo.value)

    def test_cli_variants_listing(self, capsys):
        from repro.__main__ import main

        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        for name in variant_names():
            assert name in out
        assert "build_predictor" in out

    def test_cli_run_rejects_unknown_variant(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--benchmarks", "gzip", "--variant", "bogus"])
        assert "bogus" in str(excinfo.value)

    def test_cli_run_env_variant(self, isolated_cache, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_VARIANT", "no-integration")
        assert main(["run", "--benchmarks", "gzip", "--scale", "0.1",
                     "--configs", "full"]) == 0
        out = capsys.readouterr().out
        assert "variant: no-integration" in out

    def test_every_slot_is_overridden_by_some_variant(self):
        """A slot exists only because a variant replaces it."""
        overridden = {slot for info in describe_variants().values()
                      for slot in info["overrides"]}
        assert overridden == set(SLOT_NAMES)

    def test_builder_slot_list_is_exhaustive(self):
        """Every build_* method of MachineBuilder is a declared slot."""
        methods = {name for name in dir(MachineBuilder)
                   if name.startswith("build_")}
        assert methods == set(SLOT_NAMES)

    def test_every_variant_builds_the_stock_stages(self):
        """The stage graph is fixed: variants replace substrates only, so
        the driver's per-stage skip guards hold for every variant."""
        program = build_workload("gzip", scale=0.05)
        for name in variant_names():
            processor = Processor(program,
                                  MachineConfig().with_variant(name))
            assert type(processor.front_end) is FrontEnd
            assert type(processor.rename_integrate) is RenameIntegrate
            assert type(processor.issue_execute) is IssueExecute
            assert type(processor.commit_diva) is CommitDiva
