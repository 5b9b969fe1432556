"""The parallel, disk-cached experiment engine.

Covers the tentpole acceptance criteria: ``run_suite`` with ``jobs > 1``
returns bit-identical :class:`SimStats` to the serial path, a warm on-disk
cache replays a whole sweep with zero simulations, and the CLI wires
``--jobs``/``--scale``/``--benchmarks`` through to the engine.
"""

import pytest

from repro.core import MachineConfig
from repro.experiments import cache as cache_mod
from repro.experiments import figure4, runner
from repro.integration.config import IntegrationConfig, LispMode


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a fresh directory and start cold."""
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.setattr(runner, "_DISK_CACHE", None)
    runner._MEMORY_CACHE.clear()
    runner.telemetry.reset()
    yield tmp_path
    runner._MEMORY_CACHE.clear()
    monkeypatch.setattr(runner, "_DISK_CACHE", None)


SUITE_CONFIGS = {
    "none": MachineConfig().with_integration(IntegrationConfig.disabled()),
    "full": MachineConfig().with_integration(IntegrationConfig.full()),
}


class TestParallelEquivalence:
    def test_serial_and_parallel_results_identical(self, isolated_cache):
        benchmarks = list(runner.SMOKE_BENCHMARKS)
        serial = runner.run_suite(benchmarks, SUITE_CONFIGS, scale=0.1,
                                  jobs=1)
        runner.clear_cache(disk=True)
        parallel = runner.run_suite(benchmarks, SUITE_CONFIGS, scale=0.1,
                                    jobs=4)
        for config_name in SUITE_CONFIGS:
            for benchmark in benchmarks:
                assert (serial[config_name][benchmark]
                        == parallel[config_name][benchmark]), (
                    f"{config_name}/{benchmark} differs between serial and "
                    f"parallel runs")

    def test_parallel_populates_memory_and_disk_caches(self, isolated_cache):
        runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.1, jobs=2)
        assert runner.telemetry.simulations == 2
        runner.telemetry.reset()
        # Memory-warm: no simulations, no disk reads.
        runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.1, jobs=2)
        assert runner.telemetry.simulations == 0
        assert runner.telemetry.memory_hits == 2

    def test_duplicate_configs_are_deduplicated(self, isolated_cache):
        configs = dict(SUITE_CONFIGS)
        configs["full-again"] = MachineConfig().with_integration(
            IntegrationConfig.full())
        results = runner.run_suite(["gzip"], configs, scale=0.1, jobs=1)
        assert runner.telemetry.simulations == 2   # not 3
        assert results["full-again"]["gzip"] is results["full"]["gzip"]


class TestDiskCache:
    def test_warm_figure4_sweep_runs_zero_simulations(self, isolated_cache):
        """The acceptance criterion: a repeated Figure 4 sweep on a warm
        disk cache completes without a single simulation."""
        benchmarks = ["gzip", "mcf"]
        matrix = {label: config
                  for label, config in figure4.configs().items()
                  if config.integration.lisp_mode is not LispMode.ORACLE}

        def sweep():
            return figure4.Figure4Result(benchmarks, runner.run_suite(
                benchmarks, matrix, scale=0.1, jobs=2))

        cold = sweep()
        assert runner.telemetry.simulations > 0
        # Drop the in-process memo; keep the disk.
        runner.clear_cache(disk=False)
        runner.telemetry.reset()
        warm = sweep()
        assert runner.telemetry.simulations == 0
        assert runner.telemetry.disk_hits > 0
        for ext in figure4.EXTENSION_CONFIGS:
            assert (warm.speedups(ext, "realistic")
                    == cold.speedups(ext, "realistic"))

    def test_scale_participates_in_cache_key(self, isolated_cache):
        a = runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1)
        b = runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.15)
        assert runner.telemetry.simulations == 2
        assert a.retired != b.retired

    def test_corrupt_cache_entry_is_recovered(self, isolated_cache):
        stats = runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1)
        key = cache_mod.result_key("gzip", 0.1, SUITE_CONFIGS["none"])
        cache = runner._disk_cache()
        cache.path_for(key).write_bytes(b"garbage, not valid JSON")
        runner.clear_cache(disk=False)
        runner.telemetry.reset()
        again = runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1)
        assert runner.telemetry.simulations == 1   # resimulated, no crash
        assert again == stats

    def test_cache_info_and_clear(self, isolated_cache):
        runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1)
        cache = runner._disk_cache()
        info = cache.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_cache_entries_are_json_and_roundtrip(self, isolated_cache):
        """The cache stores canonical JSON, never pickle: loading a shared
        or tampered entry must not be able to execute code.  Entries carry
        a sha256 integrity trailer after the JSON body (one line, verified
        on load) -- unsealing must both validate it and expose plain JSON."""
        import json

        from repro.experiments.cache import unseal_entry

        stats = runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1)
        paths = list(isolated_cache.rglob("*.json"))
        assert len(paths) == 1
        body = unseal_entry(paths[0].read_bytes())
        assert body is not None                      # trailer present, valid
        payload = json.loads(body)                   # plain JSON underneath
        from repro.core import SimStats

        assert SimStats.from_dict(payload) == stats

    def test_unwritable_cache_dir_does_not_lose_results(
            self, isolated_cache, monkeypatch):
        """Cache writes are best-effort: an unusable cache directory must
        not abort the sweep after the simulations already ran."""
        blocker = isolated_cache / "blocker"
        blocker.write_text("a file where the cache dir should be")
        monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(blocker / "cache"))
        monkeypatch.setattr(runner, "_DISK_CACHE", None)
        results = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.1,
                                   jobs=1)
        assert results["none"]["gzip"].retired > 0
        assert runner.telemetry.simulations == 2

    def test_disk_cache_can_be_disabled(self, isolated_cache):
        # ``--no-cache``: neither cache layer is read or written.
        runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1,
                             use_cache=False)
        assert not list(isolated_cache.rglob("*.json"))
        assert len(runner._MEMORY_CACHE) == 0
        assert runner.telemetry.simulations == 1


class TestCli:
    def test_run_subcommand(self, isolated_cache, capsys):
        from repro.__main__ import main

        rc = main(["run", "--benchmarks", "gzip", "--scale", "0.1",
                   "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gzip" in out
        assert "2 simulations" in out

    def test_run_rejects_unknown_benchmark(self, isolated_cache):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "--benchmarks", "nope", "--scale", "0.1"])

    def test_figures_flags_do_not_leak_into_the_environment(
            self, isolated_cache, monkeypatch):
        import os

        from repro.__main__ import main

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "local")
        before = dict(os.environ)
        with pytest.raises(SystemExit, match="unknown figures"):
            main(["figures", "--figures", "nope", "--shards", "3",
                  "--backend", "distributed"])
        assert dict(os.environ) == before
        assert runner.default_shards() == 1

    def test_figures_make_one_suite_call_and_one_execute(
            self, isolated_cache, monkeypatch, capsys):
        """Several figures are one plan: ``run_suite`` plans once and the
        backend executes once, whichever backend runs the jobs."""
        from repro.__main__ import main
        from repro.distrib.backend import DistributedBackend, LocalBackend

        calls = []

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(runner, "plan_suite")
        counting(LocalBackend, "execute")
        counting(DistributedBackend, "execute")
        assert main(["figures", "--figures", "4,6,7", "--benchmarks", "gzip",
                     "--scale", "0.05", "--jobs", "1"]) == 0
        assert "Figure 7" in capsys.readouterr().out
        assert calls == ["plan_suite", "execute"]
        assert runner.telemetry.simulations > 0

        from repro.experiments import figures

        calls.clear()
        runner.clear_cache(disk=True)
        results = figures.run(["5", "diagnostics", "cpistack"], ["gzip"],
                              scale=0.05, backend="distributed")
        assert calls == ["plan_suite", "execute"]
        assert (results["5"].stats["gzip"]
                == results["diagnostics"].results["integration"]["gzip"])

    def test_figures_no_cache_simulates_on_a_warm_cache(
            self, isolated_cache, capsys):
        from repro.__main__ import main

        argv = ["figures", "--figures", "5", "--benchmarks", "gzip",
                "--scale", "0.05"]
        assert main(argv) == 0
        runner.telemetry.reset()
        assert main(argv) == 0
        assert runner.telemetry.simulations == 0
        assert main(argv + ["--no-cache"]) == 0
        assert runner.telemetry.simulations == 1
        assert "1 simulations" in capsys.readouterr().out

    def test_cache_subcommands(self, isolated_cache, capsys):
        from repro.__main__ import main

        runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.1)
        assert main(["cache", "info"]) == 0
        assert "entries:      1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_jobs_zero_means_cpu_count(self):
        import os

        assert runner.default_jobs(0) == (os.cpu_count() or 1)
        assert runner.default_jobs(3) == 3
