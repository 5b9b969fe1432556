"""Matplotlib-gated figure rendering.

The heavy rendering test runs only where matplotlib is installed
(``pytest.importorskip``); the gating behaviour -- a one-line
:class:`SystemExit` instead of an ImportError traceback -- is asserted
everywhere, in whichever direction matches the environment.
"""

import pytest

from repro.analysis import plots
from repro.experiments import cache as cache_mod
from repro.experiments import runner


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.setattr(runner, "_DISK_CACHE", None)
    runner._MEMORY_CACHE.clear()
    runner.telemetry.reset()
    yield tmp_path
    runner._MEMORY_CACHE.clear()
    monkeypatch.setattr(runner, "_DISK_CACHE", None)


class TestGating:
    def test_missing_dependency_error_is_one_line_system_exit(self):
        err = plots.MissingDependencyError("matplotlib", "--plot-dir")
        assert isinstance(err, SystemExit)
        assert "matplotlib" in str(err)
        assert "\n" not in str(err)

    def test_pyplot_gate_matches_environment(self):
        if plots.matplotlib_available():
            assert plots._pyplot() is not None
        else:
            with pytest.raises(plots.MissingDependencyError):
                plots._pyplot()

    @pytest.mark.skipif(plots.matplotlib_available(),
                        reason="matplotlib installed: gate cannot trip")
    def test_cli_plot_dir_fails_with_one_liner(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--figures", "4", "--benchmarks", "gzip",
                  "--scale", "0.1", "--plot-dir", str(tmp_path)])
        assert "matplotlib" in str(excinfo.value)


class TestRendering:
    def test_figure_panels_render_from_cached_stats(self, isolated_cache,
                                                    tmp_path):
        """Render every panel from one small sweep; on a warm cache this
        performs zero additional simulations."""
        pytest.importorskip("matplotlib")
        from repro.experiments import figures

        outdir = tmp_path / "plots"

        def render_all():
            results = figures.run(list(figures.FIGURES), ["gzip"],
                                  scale=0.1, jobs=1)
            for name, result in results.items():
                path = plots.render(
                    name, figures.FIGURES[name].tables(result), outdir)
                assert path.is_file() and path.stat().st_size > 0

        render_all()
        # Everything needed is now cached: re-rendering simulates nothing.
        runner.telemetry.reset()
        runner._MEMORY_CACHE.clear()
        render_all()
        assert runner.telemetry.simulations == 0
