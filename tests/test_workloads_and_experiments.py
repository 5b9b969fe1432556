"""Tests for the synthetic SPEC-like workload generators, the statistics /
analysis helpers, and the experiment harness plumbing."""

import pytest

from repro.analysis import (
    arithmetic_mean,
    distance_breakdown,
    geometric_mean,
    refcount_breakdown,
    speedup,
    status_breakdown,
    type_breakdown,
)
from repro.analysis.metrics import format_table
from repro.core import MachineConfig, SimStats, simulate
from repro.core.stats import IntegrationType, ResultStatus, distance_bucket
from repro.experiments import runner
from repro.experiments import figure4
from repro.functional import Emulator
from repro.integration import IntegrationConfig, LispMode
from repro.workloads import SPEC_WORKLOADS, build_workload, workload_names
from repro.workloads.spec_like import WorkloadSpec, _Generator


class TestWorkloadGenerators:
    def test_all_sixteen_benchmarks_registered(self):
        names = workload_names()
        assert len(names) == 16
        for expected in ("bzip2", "crafty", "gcc", "gzip", "mcf", "parser",
                         "twolf", "vortex"):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_workload("spec2017")

    def test_generation_is_deterministic(self):
        first = build_workload("gcc", scale=0.2)
        second = build_workload("gcc", scale=0.2)
        assert len(first) == len(second)
        assert [str(i) for i in first] == [str(i) for i in second]

    def test_scale_controls_dynamic_length(self):
        short = Emulator(build_workload("gzip", scale=0.2)).run()
        long = Emulator(build_workload("gzip", scale=0.6)).run()
        assert long.instructions > short.instructions

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_halts_functionally(self, name):
        result = Emulator(build_workload(name, scale=0.1)).run(
            max_instructions=500_000)
        assert result.halted
        assert result.exit_code is not None
        assert result.instructions > 200

    def test_call_intensive_workloads_have_more_calls(self):
        vortex = Emulator(build_workload("vortex", scale=0.15)).run()
        gzip = Emulator(build_workload("gzip", scale=0.15)).run()
        assert (vortex.call_count / vortex.instructions
                > gzip.call_count / gzip.instructions)

    def test_mcf_is_load_heavy(self):
        mcf = Emulator(build_workload("mcf", scale=0.4)).run()
        gzip = Emulator(build_workload("gzip", scale=0.4)).run()
        assert (mcf.load_count / mcf.instructions
                > gzip.load_count / gzip.instructions)
        assert mcf.load_count / mcf.instructions > 0.08

    def test_spec_workload_specs_are_frozen_and_scalable(self):
        spec = SPEC_WORKLOADS["gcc"]
        scaled = spec.scaled(0.5)
        assert scaled.outer_iters == max(1, round(spec.outer_iters * 0.5))
        assert spec.outer_iters != 0

    def test_generator_plans_respect_call_depth(self):
        spec = WorkloadSpec(name="tmp", seed=1, description="",
                            num_funcs=6, call_depth=3)
        gen = _Generator(spec)
        levels = {plan.level for plan in gen.plans}
        assert max(levels) <= spec.call_depth - 1
        for plan in gen.plans:
            for callee in plan.callees:
                callee_plan = next(p for p in gen.plans if p.name == callee)
                assert callee_plan.level == plan.level + 1


class TestStatsAndAnalysis:
    def _run(self, integration=True):
        program = build_workload("crafty", scale=0.1)
        icfg = (IntegrationConfig.full() if integration
                else IntegrationConfig.disabled())
        return simulate(program, MachineConfig().with_integration(icfg),
                        name="crafty")

    def test_speedup_and_means(self):
        base = SimStats(cycles=1000, retired=100)
        better = SimStats(cycles=800, retired=100)
        assert speedup(base, better) == pytest.approx(0.25)
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([0.1, 0.1]) == pytest.approx(0.1)
        assert geometric_mean([]) == 0.0

    def test_distance_bucket_mapping(self):
        assert distance_bucket(1) == 4
        assert distance_bucket(5) == 16
        assert distance_bucket(1000) == 1024
        assert distance_bucket(100000) > 1024

    def test_breakdowns_normalise_to_one(self):
        stats = self._run()
        assert stats.integrated > 0
        types = type_breakdown(stats)
        total_types = sum(v for k, v in types.items()
                          if not k.endswith("_reverse"))
        assert total_types == pytest.approx(1.0, abs=1e-6)
        statuses = status_breakdown(stats)
        assert sum(statuses.values()) == pytest.approx(1.0, abs=1e-6)
        refcounts = refcount_breakdown(stats)
        assert sum(refcounts.values()) == pytest.approx(1.0, abs=1e-6)
        distances = distance_breakdown(stats)
        assert max(distances.values()) == pytest.approx(1.0, abs=1e-6)

    def test_stats_derived_properties(self):
        stats = self._run()
        assert 0 < stats.ipc < 4
        assert 0 <= stats.integration_rate <= 1
        assert stats.integrated == (stats.integrated_direct
                                    + stats.integrated_reverse)
        assert stats.avg_rs_occupancy >= 0
        summary = stats.summary()
        assert set(summary) >= {"ipc", "integration_rate", "cycles"}

    def test_format_table_alignment(self):
        text = format_table("T", ["a", "b"], [[1, 0.5], [20, None]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5


class TestExperimentHarness:
    def test_runner_cache_reuses_results(self):
        runner.clear_cache()
        cfg = MachineConfig().with_integration(IntegrationConfig.disabled())
        first = runner.run_benchmark("gzip", cfg, scale=0.1)
        second = runner.run_benchmark("gzip", cfg, scale=0.1)
        assert first is second
        third = runner.run_benchmark("gzip", cfg, scale=0.1, use_cache=False)
        assert third is not first
        assert third.cycles == first.cycles       # deterministic simulation

    def test_run_suite_shape(self):
        configs = {
            "none": MachineConfig().with_integration(
                IntegrationConfig.disabled()),
            "full": MachineConfig().with_integration(IntegrationConfig.full()),
        }
        results = runner.run_suite(["gzip"], configs, scale=0.1)
        assert set(results) == {"none", "full"}
        assert set(results["none"]) == {"gzip"}

    def test_figure4_config_mapping(self):
        squash = figure4.integration_config_for("squash")
        assert not squash.general_reuse and not squash.reverse
        reverse = figure4.integration_config_for("+reverse",
                                                 LispMode.ORACLE)
        assert reverse.reverse and reverse.lisp_mode is LispMode.ORACLE
        with pytest.raises(ValueError):
            figure4.integration_config_for("+magic")

    def test_figure4_small_run_and_report(self):
        matrix = {label: config
                  for label, config in figure4.configs().items()
                  if config.integration.lisp_mode is not LispMode.ORACLE}
        result = figure4.Figure4Result(
            ["gzip"], runner.run_suite(["gzip"], matrix, scale=0.1))
        speedups = result.speedups("+reverse")
        assert "gzip" in speedups and "GMean" in speedups
        tables = figure4.tables(result)
        assert len(tables) == 1                 # the realistic LISP only
        text = format_table(*tables[0])
        assert "gzip" in text and "+reverse spd" in text

    def test_default_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert runner.default_scale() == 0.25
