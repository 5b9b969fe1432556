"""The reliability layer: fault specs, fs wrappers, retry, fencing, fleet.

Unit-level coverage for ``repro/reliability/`` and the hardened failure
semantics it enables in the cache/queue/worker stack:

* the ``REPRO_FAULTS`` spec grammar (parse errors, selector semantics,
  category/path matching, deterministic schedules);
* the fs wrappers (torn writes, injected errnos, ``SimulatedCrash``
  being uncatchable by ``except Exception``);
* bounded retry with deterministic jitter, and its env knobs;
* sha256 integrity trailers and quarantine-to-``corrupt/`` on the cache;
* lease fencing: a worker that lost its lease never publishes or
  done-renames a reclaimed job (the done-rename race, directed);
* the ``repro fleet`` supervisor's restart policy with fake handles;
* the distributed backend's adaptive idle poll and pool fallback;
* ``repro status`` degrading cleanly on missing dirs and corrupt stats.

The full crash-point x fault matrix over real simulations lives in
``tests/test_chaos.py``.
"""

import errno
import json
import os
import time

import pytest

from repro.core import MachineConfig, SimStats
from repro.distrib import backend as backend_mod
from repro.distrib import worker as worker_mod
from repro.distrib.backend import DistributedBackend
from repro.distrib.queue import JobQueue, LeaseLostError
from repro.experiments import cache as cache_mod
from repro.experiments import runner
from repro.experiments.cache import ResultCache, seal_entry, unseal_entry
from repro.experiments.runner import SimJob
from repro.integration.config import IntegrationConfig
from repro.reliability import (
    FaultPlan,
    FaultSpecError,
    FleetSupervisor,
    SimulatedCrash,
    backoff_delay,
    crashpoint,
    install_plan,
    plan_from_env,
    reset_plan,
    with_retries,
)
from repro.reliability import fs


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    """No fault plan leaks into (or out of) any test."""
    reset_plan()
    yield
    reset_plan()


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(runner, "_DISK_CACHE", None)
    runner._MEMORY_CACHE.clear()
    runner.telemetry.reset()
    yield tmp_path
    runner._MEMORY_CACHE.clear()
    runner.clear_cache()
    monkeypatch.setattr(runner, "_DISK_CACHE", None)


# ----------------------------------------------------------------------
# fault spec grammar
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_multi_rule_spec(self):
        plan = FaultPlan.parse(
            "rename:queue/claimed:nth=3:crash;write:@cache:nth=1:torn; "
            "read:*:after=2:eio")
        assert [r.describe() for r in plan.rules] == [
            "rename:queue/claimed:nth=3:crash",
            "write:@cache:nth=1:torn",
            "read:*:after=2:eio",
        ]

    @pytest.mark.parametrize("spec, message", [
        ("rename:claimed:crash", "4 ':'-separated fields"),
        ("chmod:*:always:eio", "unknown fault op"),
        ("write:*:sometimes:eio", "unknown selector"),
        ("write:*:nth=x:eio", "integer argument"),
        ("write:*:nth=0:eio", "must be >= 1"),
        ("write:*:always:explode", "unknown action"),
        ("write:*:always:delay=soon", "seconds argument"),
        ("write:*:always:delay=-1", "must be >= 0"),
        ("read:*:always:torn", "only applies to write"),
        ("", "empty fault spec"),
        (" ; ", "empty fault spec"),
    ])
    def test_parse_errors(self, spec, message):
        with pytest.raises(FaultSpecError, match=message):
            FaultPlan.parse(spec)

    def test_selector_semantics(self):
        nth = FaultPlan.parse("read:*:nth=2:eio")
        assert [nth.check("read", "p", "cache") is not None
                for _ in range(4)] == [False, True, False, False]
        after = FaultPlan.parse("read:*:after=2:eio")
        assert [after.check("read", "p", "cache") is not None
                for _ in range(4)] == [False, False, True, True]
        every = FaultPlan.parse("read:*:every=2:eio")
        assert [every.check("read", "p", "cache") is not None
                for _ in range(4)] == [False, True, False, True]

    def test_category_and_path_matching(self):
        plan = FaultPlan.parse("write:@cache:always:eio")
        assert plan.check("write", "/x/entry.json", "queue") is None
        assert plan.check("write", "/x/entry.json", "cache") is not None
        assert plan.check("read", "/x/entry.json", "cache") is None
        # Renames match against "SRC::DST" so either side can be targeted.
        renames = FaultPlan.parse("rename:claimed:nth=1:eio")
        assert renames.check("rename", "q/pending/j::q/claimed/j",
                             "queue") is not None

    def test_every_matching_rule_counts_first_firing_wins(self):
        plan = FaultPlan.parse("write:*:nth=1:eio;write:*:nth=2:enospc")
        first = plan.check("write", "p", "cache")
        assert first is not None and first.action == "eio"
        second = plan.check("write", "p", "cache")
        assert second is not None and second.action == "enospc"
        assert plan.check("write", "p", "cache") is None
        assert plan.total_fired() == 2

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "write:@cache:nth=1:torn")
        plan = plan_from_env()
        assert plan is not None and len(plan.rules) == 1
        monkeypatch.setenv("REPRO_FAULTS", "write:@cache:nth=1")
        with pytest.raises(runner.EnvVarError, match="REPRO_FAULTS"):
            plan_from_env()

    def test_crashpoint_fires_and_validates_names(self):
        crashpoint("after-claim")              # no plan installed: no-op
        install_plan(FaultPlan.parse("point:after-claim:nth=1:crash"))
        with pytest.raises(SimulatedCrash):
            crashpoint("after-claim")
        crashpoint("after-claim")              # rule exhausted
        with pytest.raises(AssertionError, match="unregistered crash point"):
            crashpoint("no-such-step")

    def test_simulated_crash_evades_except_exception(self):
        install_plan(FaultPlan.parse("point:before-publish:always:crash"))
        with pytest.raises(SimulatedCrash):
            try:
                crashpoint("before-publish")
            except Exception:            # the worker's failure handler shape
                pytest.fail("SimulatedCrash must not be catchable here")


# ----------------------------------------------------------------------
# fs wrappers
# ----------------------------------------------------------------------
class TestFsWrappers:
    def test_no_plan_operations_pass_through(self, tmp_path):
        path = tmp_path / "f"
        fs.write_bytes(path, b"payload", "cache", durable=True)
        assert fs.read_bytes(path, "cache") == b"payload"
        fs.rename(path, tmp_path / "g", "cache")
        fs.unlink(tmp_path / "g", "cache")
        fs.unlink(tmp_path / "g", "cache", missing_ok=True)
        with pytest.raises(FileNotFoundError):
            fs.unlink(tmp_path / "g", "cache")

    def test_torn_write_persists_half_and_succeeds(self, tmp_path):
        install_plan(FaultPlan.parse("write:*:nth=1:torn"))
        path = tmp_path / "f"
        fs.write_bytes(path, b"12345678", "cache")
        assert path.read_bytes() == b"1234"    # silent corruption
        fs.write_bytes(path, b"12345678", "cache")
        assert path.read_bytes() == b"12345678"

    def test_injected_errnos(self, tmp_path):
        install_plan(FaultPlan.parse(
            "write:*:nth=1:eio;rename:*:nth=1:enospc"))
        with pytest.raises(OSError) as io_err:
            fs.write_bytes(tmp_path / "f", b"x", "cache")
        assert io_err.value.errno == errno.EIO
        (tmp_path / "f").write_bytes(b"x")
        with pytest.raises(OSError) as nospc:
            fs.rename(tmp_path / "f", tmp_path / "g", "cache")
        assert nospc.value.errno == errno.ENOSPC
        assert (tmp_path / "f").exists()       # the rename never happened

    def test_delay_action_then_succeeds(self, tmp_path):
        install_plan(FaultPlan.parse("read:*:nth=1:delay=0"))
        (tmp_path / "f").write_bytes(b"slow")
        assert fs.read_bytes(tmp_path / "f", "cache") == b"slow"


# ----------------------------------------------------------------------
# bounded retry with deterministic jitter
# ----------------------------------------------------------------------
class TestRetry:
    def test_backoff_is_deterministic_and_bounded(self):
        for attempt in range(4):
            delay = backoff_delay("cache-write:abcd", attempt, 0.05)
            assert delay == backoff_delay("cache-write:abcd", attempt, 0.05)
            assert 0.5 * 0.05 * 2 ** attempt <= delay <= 0.05 * 2 ** attempt
        assert (backoff_delay("op-a", 0, 0.05)
                != backoff_delay("op-b", 0, 0.05))

    def test_transient_errors_are_retried(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "injected")
            return "ok"

        runner.telemetry.reset()
        assert with_retries(flaky, op="t", retry_max=3, retry_base=0.01,
                            sleep=slept.append) == "ok"
        assert calls["n"] == 3
        assert slept == [backoff_delay("t", 0, 0.01),
                         backoff_delay("t", 1, 0.01)]
        assert runner.telemetry.io_retries == 2

    def test_enoent_is_a_protocol_signal_not_retried(self):
        calls = {"n": 0}

        def racer():
            calls["n"] += 1
            raise OSError(errno.ENOENT, "someone else won")

        with pytest.raises(OSError):
            with_retries(racer, op="t", retry_max=3, retry_base=0.01,
                         sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_exhaustion_raises_the_last_error(self):
        calls = {"n": 0}

        def hopeless():
            calls["n"] += 1
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError) as err:
            with_retries(hopeless, op="t", retry_max=2, retry_base=0.0,
                         sleep=lambda _s: None)
        assert err.value.errno == errno.ENOSPC
        assert calls["n"] == 3                 # initial + 2 retries

    def test_env_knobs_are_validated(self, monkeypatch):
        from repro.reliability.retry import (
            default_retry_base,
            default_retry_max,
        )

        monkeypatch.setenv("REPRO_RETRY_MAX", "5")
        assert default_retry_max() == 5
        monkeypatch.setenv("REPRO_RETRY_MAX", "-1")
        with pytest.raises(runner.EnvVarError, match="REPRO_RETRY_MAX"):
            default_retry_max()
        monkeypatch.setenv("REPRO_RETRY_MAX", "three")
        with pytest.raises(runner.EnvVarError, match="REPRO_RETRY_MAX"):
            default_retry_max()
        monkeypatch.setenv("REPRO_RETRY_BASE", "0.2")
        assert default_retry_base() == 0.2
        monkeypatch.setenv("REPRO_RETRY_BASE", "-1")
        with pytest.raises(runner.EnvVarError, match="REPRO_RETRY_BASE"):
            default_retry_base()


# ----------------------------------------------------------------------
# cache integrity: sha256 trailers + quarantine
# ----------------------------------------------------------------------
class TestCacheIntegrity:
    def test_seal_unseal_roundtrip_and_tamper_detection(self):
        body = b'{"x": 1}'
        sealed = seal_entry(body)
        assert unseal_entry(sealed) == (body, True)
        tampered = sealed.replace(b'"x": 1', b'"x": 2')
        assert unseal_entry(tampered) == (None, False)
        # Legacy trailer-less entries still load, just unverified.
        assert unseal_entry(body) == (body, False)

    def test_torn_write_is_quarantined_then_recomputed(self, tmp_path,
                                                       capsys):
        install_plan(FaultPlan.parse("write:@cache:nth=1:torn"))
        cache = ResultCache(tmp_path)
        runner.telemetry.reset()
        key = "aa" * 32
        assert cache.store_payload(key, {"x": 1})      # torn, silently
        assert cache.load_payload(key) is None         # detected at read
        assert runner.telemetry.corrupt_quarantined == 1
        assert "quarantined corrupt entry" in capsys.readouterr().err
        corrupt = list((tmp_path / "corrupt").iterdir())
        assert len(corrupt) == 1                       # evidence survives
        # The slot is free again: a recompute re-publishes and verifies.
        assert cache.store_payload(key, {"x": 1})
        assert cache.load_payload(key) == {"x": 1}
        info = cache.info()
        assert info["corrupt"] == 1 and info["entries"] == 1

    def test_persistent_write_failure_returns_false(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX", "0")
        install_plan(FaultPlan.parse("write:@cache:always:eio"))
        cache = ResultCache(tmp_path)
        assert cache.store_payload("aa" * 32, {"x": 1}) is False
        assert not list(tmp_path.rglob("*.tmp"))       # no stranded tmp

    def test_single_transient_eio_is_absorbed(self, tmp_path):
        install_plan(FaultPlan.parse("write:@cache:nth=1:eio"))
        cache = ResultCache(tmp_path)
        runner.telemetry.reset()
        assert cache.store_payload("aa" * 32, {"x": 1})
        assert runner.telemetry.io_retries >= 1
        assert cache.load_payload("aa" * 32) == {"x": 1}


# ----------------------------------------------------------------------
# lease fencing (the done-rename race, directed)
# ----------------------------------------------------------------------
class TestLeaseFencing:
    def test_reclaimed_jobs_original_worker_loses_every_check(self,
                                                              tmp_path):
        """The satellite race: worker A's lease expires mid-job, B reclaims
        and re-claims it; A wakes up late.  Every mutation A attempts must
        be fenced off -- heartbeat raises, complete/fail are no-ops, and
        B's claimed file (the same filename!) is untouched."""
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        queue.submit({"key": "k1"})
        stale = queue.claim("worker-a")
        time.sleep(0.1)                         # A sleeps through its TTL
        assert queue.reclaim_expired() == 1
        fresh = queue.claim("worker-b")
        assert fresh is not None
        with pytest.raises(LeaseLostError):
            queue.heartbeat(stale)
        assert queue.owns(stale) is False
        assert queue.complete(stale) is False   # fenced: done-rename no-op
        assert fresh.path.exists()              # B's claim is intact
        assert queue.fail(stale, "late failure") == "lost"
        assert fresh.path.exists()
        assert queue.complete(fresh)            # B finishes normally
        status = queue.status()
        assert (status.pending, status.claimed,
                status.done, status.dead) == (0, 0, 1, 0)

    def test_heartbeat_on_fully_released_job_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        queue.submit({"key": "k1"})
        job = queue.claim("worker-a")
        time.sleep(0.1)
        assert queue.reclaim_expired() == 1     # back to pending, no lease
        with pytest.raises(LeaseLostError):
            queue.heartbeat(job)
        # ...so the stale worker cannot fence out the *next* claimer.
        rescue = queue.claim("worker-b")
        assert rescue is not None and queue.owns(rescue)

    def test_suspect_flag_after_heartbeat_silence(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.2)
        queue.submit({"key": "k1"})
        job = queue.claim("w1")
        clock = {"t": 100.0}
        beater = worker_mod._HeartbeatThread(queue, job,
                                             clock=lambda: clock["t"])
        assert not beater.suspect               # fresh
        clock["t"] = 100.0 + 0.11               # > ttl/2 without a beat
        assert beater.suspect
        beater.lost = True
        assert beater.suspect

    def test_process_one_fences_publish_after_losing_lease(
            self, tmp_path, monkeypatch):
        """End to end through process_one: A's heartbeats fail (wedged
        writer), its lease expires mid-execution, B reclaims and finishes;
        A's publish must be a no-op and counted as fenced."""
        queue_a = JobQueue(tmp_path / "q", lease_ttl=0.2)
        queue_b = JobQueue(tmp_path / "q", lease_ttl=0.2)
        cache = ResultCache(tmp_path / "cache")
        queue_a.submit({"key": "k1"})
        job = queue_a.claim("worker-a")
        assert job is not None

        def failing_heartbeat(_job, force=False):
            raise OSError(errno.EIO, "wedged lease writer")

        monkeypatch.setattr(queue_a, "heartbeat", failing_heartbeat)

        def slow_execute(_payload):
            time.sleep(0.3)                     # the lease goes stale
            assert queue_b.reclaim_expired() == 1
            rescued = queue_b.claim("worker-b")
            assert rescued is not None
            assert queue_b.complete(rescued)
            return SimStats()

        monkeypatch.setattr(worker_mod, "execute_payload", slow_execute)
        published = []
        monkeypatch.setattr(
            cache, "store",
            lambda key, stats: published.append(key) or True)
        runner.telemetry.reset()
        summary = worker_mod.WorkerSummary(worker="worker-a")
        worker_mod.process_one(queue_a, cache, job, summary)
        assert summary.fenced == 1
        assert summary.executed == 1            # it did run the job...
        assert not published                    # ...but never published
        assert runner.telemetry.fenced == 1
        status = queue_a.status()
        assert (status.pending, status.claimed,
                status.done, status.dead) == (0, 0, 1, 0)


# ----------------------------------------------------------------------
# queue hardening: corrupt metadata degrades, never crashes
# ----------------------------------------------------------------------
class TestQueueHardening:
    def test_corrupt_lease_fields_degrade_to_reclaim(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        queue.submit({"key": "k1"})
        job = queue.claim("w1")
        job.lease_path.write_text(
            '{"worker": "w1", "heartbeat_at": "??", "ttl": []}')
        status = queue.status()                 # no traceback
        assert status.claimed == 1
        # heartbeat_at degrades to 0.0 -> the lease reads as long expired.
        assert queue.reclaim_expired() == 1
        rescued = queue.claim("w2")
        assert rescued is not None and queue.complete(rescued)

    def test_corrupt_attempt_counters_degrade(self, tmp_path):
        queue = JobQueue(tmp_path / "q", max_attempts=2)
        queue.submit({"key": "k1", "attempts": "many",
                      "max_attempts": None})
        job = queue.claim("w1")
        assert queue.fail(job, "boom") == "pending"   # treated as attempt 1
        job = queue.claim("w1")
        assert queue.fail(job, "boom") == "dead"


# ----------------------------------------------------------------------
# fleet supervisor (fake worker handles)
# ----------------------------------------------------------------------
class _ExitHandle:
    """A child that has already exited with ``code``."""

    def __init__(self, code):
        self.code = code

    def poll(self):
        return self.code

    def terminate(self):
        pass

    def kill(self):
        pass


class _LiveHandle:
    """A child that runs until terminated (then exits ``exit_code``)."""

    def __init__(self, exit_code=0):
        self.exit_code = exit_code
        self.terminated = False
        self.killed = False

    def poll(self):
        return self.exit_code if self.terminated else None

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


class TestFleetSupervisor:
    def test_all_workers_drain(self):
        spawned = []

        def spawn(index, clean):
            spawned.append((index, clean))
            return _ExitHandle(0)

        summary = FleetSupervisor(count=3, spawn=spawn,
                                  sleep=lambda _s: None).run()
        assert (summary.drained, summary.failed,
                summary.restarts) == (3, 0, 0)
        assert summary.ok
        assert spawned == [(0, False), (1, False), (2, False)]

    def test_crashed_worker_restarts_with_faults_stripped(self):
        spawned = []

        def spawn(index, clean):
            spawned.append((index, clean))
            return _ExitHandle(70 if len(spawned) == 1 else 0)

        summary = FleetSupervisor(count=1, spawn=spawn, backoff_base=0.0,
                                  sleep=lambda _s: None).run()
        assert (summary.drained, summary.restarts) == (1, 1)
        assert summary.ok
        # The restarted child is spawned clean (REPRO_FAULTS stripped).
        assert spawned == [(0, False), (0, True)]

    def test_restart_bound_marks_the_slot_failed(self):
        summary = FleetSupervisor(
            count=1, spawn=lambda _i, _c: _ExitHandle(3),
            max_restarts=2, backoff_base=0.0, sleep=lambda _s: None).run()
        assert (summary.drained, summary.failed,
                summary.restarts) == (0, 1, 2)
        assert not summary.ok
        assert "failed" in summary.describe()

    def test_graceful_stop_terminates_and_drains(self):
        handles = []

        def spawn(_index, _clean):
            handle = _LiveHandle(exit_code=0)
            handles.append(handle)
            return handle

        supervisor = FleetSupervisor(count=2, spawn=spawn,
                                     sleep=lambda _s: None)
        supervisor.stop()                       # SIGTERM arrived
        summary = supervisor.run()
        assert summary.stopped and summary.ok
        assert summary.drained == 2
        assert all(h.terminated and not h.killed for h in handles)

    def test_stragglers_are_killed_after_grace(self):
        class _Wedged(_LiveHandle):
            def poll(self):
                return None                     # ignores SIGTERM

        handle = _Wedged()
        supervisor = FleetSupervisor(count=1,
                                     spawn=lambda _i, _c: handle,
                                     grace=0.05, poll_interval=0.01)
        supervisor.stop()
        summary = supervisor.run()
        assert handle.killed
        assert summary.failed == 1 and summary.stopped


# ----------------------------------------------------------------------
# distributed backend: adaptive poll + graceful degradation
# ----------------------------------------------------------------------
class TestBackendResilience:
    def test_idle_poll_backs_off_and_resets_on_progress(
            self, isolated_cache, monkeypatch):
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.05, drain=False)
        key1, key2 = "aa" * 32, "bb" * 32
        jobs = [SimJob(key1, "irrelevant", MachineConfig(), 0.1, 1),
                SimJob(key2, "irrelevant", MachineConfig(), 0.1, 1)]
        cache = ResultCache()
        sleeps = []

        class _Enough(Exception):
            pass

        def fake_sleep(seconds):
            sleeps.append(round(seconds, 6))
            if len(sleeps) == 3:
                cache.store(key1, SimStats())   # a remote worker lands one
            if len(sleeps) == 6:
                raise _Enough

        monkeypatch.setattr(backend_mod.time, "sleep", fake_sleep)
        with pytest.raises(_Enough):
            backend.execute(jobs, use_cache=True)
        # Exponential idle backoff, reset by the mid-wait progress.
        assert sleeps == [0.05, 0.1, 0.2, 0.05, 0.1, 0.2]

    def test_unusable_queue_root_falls_back_to_pool(self, isolated_cache,
                                                    capsys):
        """An unusable queue root degrades the run to the local backend."""
        blocker = isolated_cache / "blocker"
        blocker.write_bytes(b"not a directory")
        backend = DistributedBackend(queue_dir=blocker / "q",
                                     fallback_jobs=1)
        plan = runner.plan_suite(
            ["gzip"],
            {"none": MachineConfig()},
            0.06, 1, 1.0, use_cache=True)
        outcomes = backend.execute(plan.jobs, use_cache=True)
        assert len(outcomes) == 1
        assert next(iter(outcomes.values())).retired > 0
        err = capsys.readouterr().err
        assert "queue root unusable" in err
        assert "falling back to the local backend" in err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cache_writes_are_reported(self, isolated_cache,
                                              monkeypatch, capsys, jobs):
        """Every job whose disk-cache write fails is counted and warned
        about, whether it ran in this process or in a pool child."""
        monkeypatch.setenv("REPRO_RETRY_MAX", "0")
        install_plan(FaultPlan.parse("write:@cache:always:eio"))
        configs = {
            "none": MachineConfig().with_integration(
                IntegrationConfig.disabled()),
            "full": MachineConfig().with_integration(IntegrationConfig.full()),
        }
        results = runner.run_suite(["gzip"], configs, scale=0.06, jobs=jobs)
        assert results["full"]["gzip"].retired > 0
        assert runner.telemetry.cache_degraded == 2
        err = capsys.readouterr().err
        assert err.count("disk cache write failed") == 2


# ----------------------------------------------------------------------
# repro status: clean degradation (satellite)
# ----------------------------------------------------------------------
class TestStatusCli:
    def test_status_on_missing_queue_dir_is_clean(self, isolated_cache,
                                                  capsys):
        from repro.__main__ import main

        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "queue directory does not exist yet" in out
        assert "pending:  0" in out and "dead:     0" in out

    def test_status_survives_corrupt_worker_stats(self, isolated_cache,
                                                  capsys):
        from repro.__main__ import main

        queue = JobQueue(isolated_cache / "queue")
        queue.submit({"key": "k1"})
        stats_path = isolated_cache / "queue" / "workers" / "w1.json"
        stats_path.write_text(json.dumps({
            "worker": "w1", "executed": "many", "cache_hits": None,
            "failed": [], "reclaimed": {}, "started_at": "dawn"}))
        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "w1" in out and "pending:  1" in out

    def test_cache_info_reports_quarantined_entries(self, isolated_cache,
                                                    capsys):
        from repro.__main__ import main

        install_plan(FaultPlan.parse("write:@cache:nth=1:torn"))
        cache = ResultCache()
        cache.store_payload("aa" * 32, {"x": 1})
        assert cache.load_payload("aa" * 32) is None   # quarantines
        reset_plan()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out and "quarantined" in out
