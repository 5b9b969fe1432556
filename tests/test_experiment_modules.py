"""Plumbing tests for the per-figure experiment modules (tiny runs).

These do not validate the paper's numbers (the benchmark harness under
``benchmarks/`` does that on realistic runs); they validate that each
figure module's matrix, result class and tables fit together: one
:func:`repro.experiments.figures.run` over every registered figure, and
every table rendered by the one table renderer.
"""

from pathlib import Path

import pytest

from repro.analysis import plots
from repro.core import MachineConfig
from repro.experiments import ablations, figure6, figure7, figures
from repro.integration import LispMode

BENCH = ["gzip"]
SCALE = 0.05


@pytest.fixture(scope="module")
def tiny():
    return figures.run(list(figures.FIGURES), BENCH, scale=SCALE)


class TestFigure5Module:
    def test_result_and_tables(self, tiny):
        result = tiny["5"]
        assert set(result.stats) == set(BENCH)
        assert "integration" in figures.report("5", result)
        types = result.type_breakdowns()["gzip"]
        assert all(0.0 <= v <= 1.0 for v in types.values())


class TestFigure6Module:
    def test_associativity_and_size_sweeps(self, tiny):
        result = tiny["6"]
        assert set(result.assoc_results) == {"1-way", "2-way", "4-way",
                                             "full"}
        assert set(result.size_results) == set(figure6.SIZES)
        assert set(result.assoc_speedups()) == set(result.assoc_results)
        report = figures.report("6", result)
        assert "associativity" in report and "it size" in report.lower()


class TestFigure7Module:
    def test_variants_and_metrics(self, tiny):
        result = tiny["7"]
        assert result.mean_speedup("base", "none") == pytest.approx(0.0)
        assert isinstance(result.executed_reduction(), float)
        assert result.rs_occupancy("none") >= 0
        assert "Figure 7" in figures.report("7", result)

    def test_machine_variant_mapping(self):
        base = MachineConfig()
        assert figure7.machine_variant(base, "base") is base
        assert figure7.machine_variant(base, "RS").rs_entries == 20
        assert figure7.machine_variant(base, "IW").ports.issue_width == 3
        both = figure7.machine_variant(base, "IW+RS")
        assert both.rs_entries == 20 and both.ports.combined_ldst_port
        with pytest.raises(ValueError):
            figure7.machine_variant(base, "XXL")


class TestDiagnosticsModule:
    def test_result_and_tables(self, tiny):
        result = tiny["diagnostics"]
        latency = result.resolution_latency()
        assert set(latency) == {"without", "with"}
        assert isinstance(result.fetched_reduction(), float)
        assert "resolution" in figures.report("diagnostics", result)


class TestAblationsModule:
    def test_named_configs_exist(self):
        points = ablations.ABLATIONS
        assert "gen counters 0b" in points
        assert points["no reverse entries"].reverse is False
        assert points["lisp oracle"].lisp_mode is LispMode.ORACLE
        assert list(ablations.configs()) == list(points)

    def test_ablation_tables(self, tiny):
        result = tiny["ablations"]
        assert result.mean_integration_rate("full (4b gen, 4b rc)") >= \
            result.mean_integration_rate("no reverse entries") - 0.02
        assert "ablation" in figures.report("ablations", result)


class _Axes:
    def __init__(self):
        self.series = []
        self.title = None

    def bar(self, positions, heights, width, label):
        self.series.append(label)
        assert all(isinstance(h, (int, float)) for h in heights)

    def set_xticks(self, ticks):
        pass

    def set_xticklabels(self, labels, **kwargs):
        self.labels = list(labels)

    def set_title(self, title, **kwargs):
        self.title = title

    def legend(self, **kwargs):
        pass


class _Figure:
    def savefig(self, path, **kwargs):
        Path(path).write_bytes(b"png")


class FakePyplot:
    """Just enough of ``matplotlib.pyplot`` for :func:`plots.render`."""

    def __init__(self):
        self.axes = []

    def subplots(self, nrows, ncols, squeeze, figsize):
        self.axes = [[_Axes()] for _ in range(nrows)]
        return _Figure(), self.axes

    def close(self, fig):
        pass


class TestEveryFigure:
    def test_tables_are_well_formed(self, tiny):
        for name, result in tiny.items():
            tables = figures.FIGURES[name].tables(result)
            assert tables, name
            for title, columns, rows in tables:
                assert title and rows, (name, title)
                assert all(len(row) == len(columns) for row in rows), title

    def test_every_figure_renders_through_one_renderer(
            self, tiny, tmp_path, monkeypatch):
        pyplot = FakePyplot()
        monkeypatch.setattr(plots, "_pyplot", lambda: pyplot)
        for name, result in tiny.items():
            tables = figures.FIGURES[name].tables(result)
            path = plots.render(name, tables, tmp_path)
            assert path.name == (f"figure{name}.png" if name.isdigit()
                                 else f"{name}.png")
            assert path.stat().st_size > 0
            assert [ax.title for (ax,) in pyplot.axes] == \
                [title for title, _, _ in tables]
            # Every table has at least one numeric column to draw, and
            # every bar group in a panel is told apart by its label.
            for (ax,) in pyplot.axes:
                assert ax.series, (name, ax.title)
                assert len(set(ax.labels)) == len(ax.labels), (name, ax.title)
