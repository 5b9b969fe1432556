"""Plumbing tests for the per-figure experiment modules (tiny runs).

These do not validate the paper's numbers (the benchmark harness under
``benchmarks/`` does that on realistic runs); they validate that each
experiment module wires configurations correctly, returns well-formed
results, and renders a report.
"""

import pytest

from repro.core import MachineConfig
from repro.experiments import ablations, diagnostics, figure5, figure6, figure7
from repro.integration import IntegrationConfig, LispMode

BENCH = ["gzip"]
SCALE = 0.1


@pytest.fixture(scope="module")
def tiny_kwargs():
    return dict(benchmarks=BENCH, scale=SCALE)


class TestFigure5Module:
    def test_run_and_report(self, tiny_kwargs):
        result = figure5.run(**tiny_kwargs)
        assert set(result.stats) == set(BENCH)
        assert "integration" in figure5.report(result)
        types = result.type_breakdowns()["gzip"]
        assert all(0.0 <= v <= 1.0 for v in types.values())


class TestFigure6Module:
    def test_associativity_and_size_sweeps(self, tiny_kwargs):
        result = figure6.run(associativities=(1, 4), sizes=(64, 1024),
                             **tiny_kwargs)
        assert set(result.assoc_results) == {"1-way", "4-way"}
        assert set(result.size_results) == {64, 1024}
        speedups = result.assoc_speedups()
        assert set(speedups) == {"1-way", "4-way"}
        report = figure6.report(result)
        assert "associativity" in report and "it size" in report.lower()


class TestFigure7Module:
    def test_variants_and_metrics(self, tiny_kwargs):
        result = figure7.run(variants=("base", "RS"), **tiny_kwargs)
        assert result.mean_speedup("base", "none") == pytest.approx(0.0)
        assert isinstance(result.executed_reduction(), float)
        assert result.rs_occupancy("none") >= 0
        assert "Figure 7" in figure7.report(result)

    def test_machine_variant_mapping(self):
        base = MachineConfig()
        assert figure7.machine_variant(base, "base") is base
        assert figure7.machine_variant(base, "RS").rs_entries == 20
        assert figure7.machine_variant(base, "IW").ports.issue_width == 3
        both = figure7.machine_variant(base, "IW+RS")
        assert both.rs_entries == 20 and both.combined_ldst_port
        with pytest.raises(ValueError):
            figure7.machine_variant(base, "XXL")


class TestDiagnosticsModule:
    def test_run_and_report(self, tiny_kwargs):
        result = diagnostics.run(**tiny_kwargs)
        latency = result.resolution_latency()
        assert set(latency) == {"without", "with"}
        assert isinstance(result.fetched_reduction(), float)
        assert "resolution" in diagnostics.report(result)


class TestAblationsModule:
    def test_named_configs_exist(self):
        configs = ablations.ablation_configs()
        assert "gen counters 0b" in configs
        assert "no reverse entries" in configs
        assert configs["no reverse entries"].reverse is False
        assert configs["lisp oracle"].lisp_mode is LispMode.ORACLE

    def test_small_ablation_run(self, tiny_kwargs):
        subset = {
            "full": IntegrationConfig.full(),
            "no reverse entries": IntegrationConfig.full(reverse=False),
        }
        result = ablations.run(configs=subset, **tiny_kwargs)
        assert result.mean_integration_rate("full") >= \
            result.mean_integration_rate("no reverse entries") - 0.02
        assert "ablation" in ablations.report(result)
