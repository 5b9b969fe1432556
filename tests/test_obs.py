"""The observability layer: tracing, CPI stacks, metrics, dashboard.

Three properties anchor the layer:

* **tracing is truthful** -- the tracer's event counts equal the
  engine's own counters (retire events == ``stats.retired``, squash
  events == ``stats.squashed``) on arbitrary branchy programs, and an
  *active* tracer never changes results (it only forces elision off);
* **the CPI stack is a partition of time** -- every cycle is blamed on
  exactly one bucket, so the stack sums to ``cycles`` and is
  bit-identical across elision settings and scheduling
  (pool vs serial, sharded vs not for the same geometry);
* **each counter has one home** -- run telemetry is a plain record the
  ``--verbose`` summary renders directly, and the dashboard's
  sliding-window rate is a pure function of the samples in the worker's
  stats file and the time of rendering.
"""

import json
import os
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.core import MachineConfig, SimStats, simulate
from repro.distrib.queue import JobQueue
from repro.integration.config import IntegrationConfig
from repro.isa import ProgramBuilder
from repro.obs.cpi import CPI_BUCKETS, CPI_RETIRED, classify_stall
from repro.obs.dashboard import sliding_rate
from repro.obs.trace import PipelineTracer
from repro.workloads import build_workload

FULL = MachineConfig().with_integration(IntegrationConfig.full())


@contextmanager
def _env(**overrides):
    """Set/unset environment variables for one run (hypothesis-safe)."""
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


@st.composite
def branchy_programs(draw):
    """Small random programs with real mispredictions and memory traffic."""
    builder = ProgramBuilder(name="obs-branchy")
    regs = ["t0", "t1", "t2", "s0"]
    builder.label("main")
    for reg in regs:
        builder.li(reg, draw(st.integers(min_value=0, max_value=63)))
    blocks = draw(st.integers(min_value=2, max_value=4))
    for block in range(blocks):
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            kind = draw(st.integers(min_value=0, max_value=2))
            rd = draw(st.sampled_from(regs))
            ra = draw(st.sampled_from(regs))
            if kind == 0:
                builder.rr(draw(st.sampled_from(["addq", "xor", "cmplt"])),
                           rd, ra, draw(st.sampled_from(regs)))
            elif kind == 1:
                offset = 8 * draw(st.integers(min_value=0, max_value=3))
                builder.stq(ra, offset, "gp")
            else:
                offset = 8 * draw(st.integers(min_value=0, max_value=3))
                builder.load("ldq", rd, offset, "gp")
        builder.cbr(draw(st.sampled_from(["beq", "bne"])),
                    draw(st.sampled_from(regs)), f"join{block}")
        builder.ri("addqi", draw(st.sampled_from(regs)),
                   draw(st.sampled_from(regs)), 1)
        builder.label(f"join{block}")
    builder.mov("a0", "t0")
    builder.syscall(0)
    return builder.build(entry="main")


# ----------------------------------------------------------------------
# Level 1: pipeline event tracing
# ----------------------------------------------------------------------
class TestTracing:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=branchy_programs())
    def test_event_counts_match_engine_counters(self, program):
        tracer = PipelineTracer(collect=True)
        stats = simulate(program, FULL, name="obs-rand", tracer=tracer)
        tracer.close()
        assert tracer.retires == stats.retired
        assert tracer.squashes == stats.squashed
        assert tracer.fetches == stats.fetched
        assert tracer.issues == stats.issued

    def test_tracing_never_changes_results(self):
        """An active tracer forces elision off; everything else is
        bit-identical to the untraced run."""
        program = build_workload("gzip", scale=0.05)
        with _env(REPRO_ELIDE=None):
            plain = simulate(program, FULL, name="obs-plain")
            tracer = PipelineTracer(collect=False)
            traced = simulate(program, FULL, name="obs-plain",
                              tracer=tracer)
            tracer.close()
        assert traced.cycles_elided == 0
        da, db = plain.to_dict(), traced.to_dict()
        da.pop("cycles_elided"), db.pop("cycles_elided")
        assert da == db

    def test_retire_and_squash_partition_renamed_instructions(self):
        program = build_workload("mcf", scale=0.05)
        tracer = PipelineTracer(collect=True)
        stats = simulate(program, FULL, name="obs-mcf", tracer=tracer)
        tracer.close()
        assert stats.squashed > 0, "no recovery exercised"
        kinds = {e["event"] for e in tracer.events}
        assert {"fetch", "rename", "dispatch", "issue", "complete",
                "retire", "squash"} <= kinds

    def test_trace_files_jsonl_and_konata(self, tmp_path):
        program = build_workload("gzip", scale=0.05)
        jsonl = tmp_path / "t.jsonl"
        konata = tmp_path / "t.kanata"
        with PipelineTracer(jsonl_path=str(jsonl),
                            konata_path=str(konata)) as tracer:
            stats = simulate(program, FULL, name="obs-files",
                             tracer=tracer)
        events = [json.loads(line)
                  for line in jsonl.read_text().splitlines()]
        assert sum(e["event"] == "retire" for e in events) == stats.retired
        lines = konata.read_text().splitlines()
        assert lines[0] == "Kanata\t0004"
        retired_records = sum(
            line.startswith("R\t") and line.endswith("\t0")
            for line in lines)
        assert retired_records == stats.retired
        flushed_records = sum(
            line.startswith("R\t") and line.endswith("\t1")
            for line in lines)
        # Squashed work plus whatever was in flight when the program
        # halted (close() finalizes it as flushed): every fetched
        # instruction leaves the trace exactly once.
        assert flushed_records >= stats.squashed
        assert retired_records + flushed_records == stats.fetched

    def test_trace_cli_smoke(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "cli"
        rc = main(["trace", "gzip", "--scale", "0.02",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "retired" in printed
        assert (tmp_path / "cli.jsonl").exists()
        assert (tmp_path / "cli.kanata").exists()


# ----------------------------------------------------------------------
# Level 2: CPI stall stacks
# ----------------------------------------------------------------------
class TestCpiStack:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=branchy_programs(),
           elide=st.sampled_from(["0", "1"]))
    def test_stack_partitions_cycles(self, program, elide):
        with _env(REPRO_ELIDE=elide):
            stats = simulate(program, FULL, name="obs-cpi")
        assert sum(stats.cpi_stack.values()) == stats.cycles
        assert set(stats.cpi_stack) <= set(CPI_BUCKETS)
        assert stats.cpi_stack[CPI_RETIRED] > 0
        assert 0 not in stats.cpi_stack.values(), \
            "zero-valued buckets must stay absent (serialization identity)"

    def test_stack_identical_with_and_without_elision(self):
        # The driver axis (driver loop vs Processor.step) is covered by the
        # equivalence fingerprints, which include cpi_stack.
        program = build_workload("mcf", scale=0.05)
        runs = {}
        for elide in ("1", "0"):
            with _env(REPRO_ELIDE=elide):
                runs[elide] = simulate(program, FULL, name="obs-axes")
        assert dict(runs["1"].cpi_stack) == dict(runs["0"].cpi_stack)
        assert runs["1"].cycles_elided > 0, \
            "no span elided; the elision axis is vacuous"

    def test_stack_attributes_recovery_and_memory(self):
        """A squash-heavy run blames recovery; integration converts some
        of it into replay."""
        program = build_workload("crafty", scale=0.05)
        stats = simulate(program, FULL, name="obs-blame")
        assert stats.squashed > 0
        assert stats.cpi_stack.get("squash_recovery", 0) > 0
        assert stats.cpi_stack.get("integration_replay", 0) > 0

    def test_classify_stall_reads_only_quiescent_state(self):
        """classify_stall is pure w.r.t. the machine: calling it twice on
        an idle state returns the same bucket and mutates nothing."""
        from repro.core.pipeline import Processor

        program = build_workload("gzip", scale=0.02)
        proc = Processor(program, FULL)
        for _ in range(50):
            proc.step()
        before = proc.state.stats.to_dict()
        assert classify_stall(proc.state) == classify_stall(proc.state)
        assert proc.state.stats.to_dict() == before

    def test_stack_roundtrips_serialization(self):
        program = build_workload("gzip", scale=0.02)
        stats = simulate(program, FULL, name="obs-ser")
        clone = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone.cpi_stack == stats.cpi_stack
        assert all(isinstance(key, str) for key in clone.cpi_stack)

    def test_merge_is_lossless(self):
        program = build_workload("gzip", scale=0.02)
        a = simulate(program, FULL, name="obs-merge")
        b = simulate(program, FULL, name="obs-merge")
        merged = SimStats.merge_all([a, b])
        for bucket in CPI_BUCKETS:
            assert merged.cpi_stack.get(bucket, 0) == \
                a.cpi_stack.get(bucket, 0) + b.cpi_stack.get(bucket, 0)

    def test_stack_identical_across_scheduling(self, tmp_path, monkeypatch):
        """Pool scheduling and sharding geometry are cache/driver
        mechanics: the same work yields the same merged stack."""
        from repro.experiments import cache as cache_mod
        from repro.experiments import runner, sharding

        def fresh(tag):
            monkeypatch.setenv(cache_mod.ENV_CACHE_DIR,
                               str(tmp_path / tag))
            monkeypatch.setattr(runner, "_DISK_CACHE", None)
            runner._MEMORY_CACHE.clear()
            sharding.clear_plan_memo()

        fresh("serial")
        serial = runner.run_suite(["gzip"], {"full": FULL}, scale=0.1,
                                  jobs=1, shards=2)["full"]["gzip"]
        fresh("pool")
        pooled = runner.run_suite(["gzip"], {"full": FULL}, scale=0.1,
                                  jobs=2, shards=2)["full"]["gzip"]
        assert dict(serial.cpi_stack) == dict(pooled.cpi_stack)
        assert sum(serial.cpi_stack.values()) == serial.cycles


# ----------------------------------------------------------------------
# Level 3: run telemetry and dashboard
# ----------------------------------------------------------------------
class TestMetrics:
    def test_run_telemetry_record(self):
        from repro.experiments.runner import RUN_COUNTERS, RunTelemetry

        telemetry = RunTelemetry()
        telemetry.simulations += 3
        telemetry.memory_hits = 2
        assert telemetry.to_dict()["memory_hits"] == 2
        assert list(telemetry.to_dict()) == [name for name, _ in RUN_COUNTERS]
        with pytest.raises(AttributeError):
            telemetry.bogus_counter = 1
        telemetry.reset()
        assert telemetry.simulations == 0

    def test_format_run_summary_headline(self):
        from repro.experiments.runner import RunTelemetry, format_run_summary

        counts = RunTelemetry()
        counts.simulations = 4
        counts.memory_hits = 1
        counts.disk_hits = 2
        text = format_run_summary(counts)
        # The leading blank line separates the summary from run output.
        assert text.lstrip("\n").startswith("4 simulations")
        assert "1 memory hits" in text and "2 disk hits" in text
        verbose = format_run_summary(counts, verbose=True)
        assert "  local simulations:   4" in verbose.splitlines()

    def test_sliding_rate(self):
        samples = [[0.0, 0], [30.0, 5], [60.0, 20]]
        assert sliding_rate(samples, now=60.0) == pytest.approx(20.0)
        assert sliding_rate(samples[1:], now=60.0) == pytest.approx(30.0)
        # Measured up to the moment of rendering, not the last sample.
        assert sliding_rate(samples, now=120.0) == pytest.approx(10.0)
        assert sliding_rate(samples[:1], now=60.0) is None
        assert sliding_rate([], now=60.0) is None
        # Malformed samples are skipped, never raised.
        assert sliding_rate([None, [0.0, 0], "xy", [1.0], [30.0, 5]],
                            now=30.0) == pytest.approx(10.0)
        # A frozen clock can't produce a rate.
        assert sliding_rate([[5.0, 1], [5.0, 2]], now=5.0) is None

    def test_record_worker_keeps_the_last_window_of_samples(self, tmp_path):
        from repro.distrib.queue import RATE_WINDOW

        queue = JobQueue(tmp_path / "q")
        for i in range(RATE_WINDOW + 5):
            queue.record_worker("w1", {"executed": i, "cache_hits": 1})
        stats = queue.status().workers["w1"]
        samples = stats["samples"]
        assert len(samples) == RATE_WINDOW
        assert [done for _, done in samples] == list(
            range(6, RATE_WINDOW + 6))           # oldest first
        assert samples == sorted(samples)
        assert samples[-1][0] == stats["updated_at"]
        # An unreadable stats file starts the window afresh.
        (queue.root / "workers" / "w1.json").write_text("{torn")
        queue.record_worker("w1", {"executed": 1})
        assert len(queue.status().workers["w1"]["samples"]) == 1

    def test_dashboard_renders_sliding_window(self, tmp_path):
        from repro.obs import dashboard

        queue = JobQueue(tmp_path / "q")
        queue.record_worker("w1", {"executed": 6, "cache_hits": 2,
                                   "failed": 0, "started_at": 0.0})
        path = queue.root / "workers" / "w1.json"
        body = json.loads(path.read_text())
        body["samples"] = [[10.0 * i, 2 * i] for i in range(4)]
        path.write_text(json.dumps(body))
        text = dashboard.render_status(queue, now=30.0)
        assert "pending:  0" in text
        assert "w1" in text and "jobs/min" in text
        assert "12.0/min now" in text     # 6 jobs over 30s of samples
        assert "25% hit rate" in text

    def test_idle_worker_window_rate_falls(self, tmp_path):
        from repro.obs import dashboard

        queue = JobQueue(tmp_path / "q")
        for done in range(3):
            queue.record_worker("w1", {"executed": done})
        first = queue.status().workers["w1"]["samples"][0][0]
        assert "2.0/min now" in dashboard.render_status(queue,
                                                        now=first + 60.0)
        assert "1.0/min now" in dashboard.render_status(queue,
                                                        now=first + 120.0)

    def test_stats_without_samples_render_a_dash(self, tmp_path):
        from repro.obs import dashboard

        # The stats file as written before it carried samples.
        queue = JobQueue(tmp_path / "q")
        workers = queue.root / "workers"
        workers.mkdir(parents=True)
        (workers / "w1.json").write_text(json.dumps({
            "executed": 3, "cache_hits": 0, "failed": 0, "reclaimed": 0,
            "lost": 0, "fenced": 0, "io_errors": 0, "started_at": 0.0,
            "worker": "w1", "updated_at": 30.0}))
        line = [row for row in dashboard.render_status(
            queue, now=60.0).splitlines() if row.lstrip().startswith("w1")]
        assert len(line) == 1
        assert "3 job(s)" in line[0] and "/min now" not in line[0]
        assert line[0].split("jobs/min")[1].split()[0] == "-"

    def test_watch_bounded_refreshes(self, tmp_path):
        from repro.obs import dashboard

        queue = JobQueue(tmp_path / "q")
        frames = []
        slept = []
        drawn = dashboard.watch(queue, interval=0.5, refreshes=2,
                                out=frames.append, clear=False,
                                sleep=slept.append)
        assert drawn == 2 and len(frames) == 2
        assert slept == [0.5]             # no sleep after the last frame
        assert "repro status --watch" in frames[0]
