"""Chaos suite: the crash-point x fault matrix over real simulations.

The payoff test for the reliability layer.  Every scenario injects a
deterministic fault schedule (``FaultPlan``) into the *real* cache/queue/
worker stack, lets recovery run, and asserts the three invariants the
protocol promises:

1. **no lost jobs** -- the queue drains to ``done`` with zero dead
   letters and zero stragglers;
2. **no double-counted stats** -- resolving the sweep afterwards touches
   the cache only (``telemetry.simulations == 0``);
3. **bit-identical results** -- the merged SimStats equal a fault-free
   reference run, field for field.

Covered: a worker crashing at each named protocol step (with a rescue
worker reclaiming the lease), torn cache writes recovered through
quarantine + stale-done-marker resubmission, transient queue EIO
absorbed by bounded retry, the ``repro worker`` CLI's crash exit code,
hypothesis-generated fault schedules against the drain invariant, and a
``repro fleet`` subprocess surviving an injected crash via supervised
restart.  Unit-level reliability coverage lives in
``tests/test_reliability.py``.
"""

import os
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MachineConfig
from repro.distrib import worker as worker_mod
from repro.distrib.backend import DistributedBackend
from repro.distrib.queue import JobQueue
from repro.experiments import cache as cache_mod
from repro.experiments import runner
from repro.experiments.cache import ResultCache
from repro.integration.config import IntegrationConfig
from repro.reliability import (
    CRASH_POINTS,
    FaultPlan,
    SimulatedCrash,
    install_plan,
    reset_plan,
)

SUITE = {
    "none": MachineConfig().with_integration(IntegrationConfig.disabled()),
}
SCALE = 0.06
LEASE_TTL = 0.3


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    reset_plan()
    yield
    reset_plan()


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Fresh cache + queue roots; cold in-process state."""
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


def _reference_then_cold(shards=1):
    """Fault-free reference results, then a cold cache with the same
    sweep pending again."""
    reference = runner.run_suite(["gzip"], SUITE, scale=SCALE,
                                 shards=shards)
    runner.clear_cache(disk=True)
    runner._MEMORY_CACHE.clear()
    # ``None``: the default warm-up, the one ``run_suite`` resolves.
    plan = runner.plan_suite(["gzip"], SUITE, SCALE, shards, None,
                             use_cache=True)
    assert plan.jobs
    return reference, plan.jobs


def _submit_all(queue, jobs):
    for job in jobs:
        assert queue.submit(worker_mod.make_payload(job), est_work=job.work)


def _assert_resolved_from_cache(reference, shards=1):
    """Invariants 2 + 3: the sweep resolves without a single simulation
    and the merged stats match the fault-free reference bit for bit."""
    runner._MEMORY_CACHE.clear()
    runner.telemetry.reset()
    results = runner.run_suite(["gzip"], SUITE, scale=SCALE,
                               shards=shards)
    assert runner.telemetry.simulations == 0
    assert results == reference


def _drained(status, done):
    return (status.pending, status.claimed,
            status.done, status.dead) == (0, 0, done, 0)


# ----------------------------------------------------------------------
# the crash-point matrix
# ----------------------------------------------------------------------
class TestCrashMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_at_every_protocol_step_loses_nothing(
            self, isolated_cache, point):
        reference, jobs = _reference_then_cold()
        queue = JobQueue(isolated_cache / "queue", lease_ttl=LEASE_TTL)
        _submit_all(queue, jobs)
        install_plan(FaultPlan.parse(f"point:{point}:nth=1:crash"))

        if point == "mid-heartbeat":
            # A crash inside the heartbeat thread kills only the thread:
            # the worker itself finishes the job (re-verifying ownership
            # before publishing, since its lease may have gone stale).
            summary = worker_mod.run_worker(
                queue=queue, cache=ResultCache(), worker_id="crashy",
                max_jobs=len(jobs), poll_interval=0.02,
                idle_timeout=0.5)
            assert summary.executed == len(jobs)
            assert summary.fenced == 0
        else:
            with pytest.raises(SimulatedCrash):
                worker_mod.run_worker(
                    queue=queue, cache=ResultCache(), worker_id="crashy",
                    max_jobs=len(jobs), poll_interval=0.02,
                    idle_timeout=0.5)
            reset_plan()
            time.sleep(LEASE_TTL + 0.05)       # the lease goes stale
            rescue = worker_mod.run_worker(
                queue=queue, cache=ResultCache(), worker_id="rescue",
                poll_interval=0.02, idle_timeout=0.5)
            assert rescue.reclaimed >= 1
            assert rescue.jobs_done == len(jobs)
            if point == "after-publish-before-done":
                # The result survived the crash: the rescue worker must
                # resolve it from the cache, not re-simulate.
                assert rescue.cache_hits == len(jobs)

        assert _drained(queue.status(), done=len(jobs))
        _assert_resolved_from_cache(reference)

    def test_sharded_crash_merges_bit_identical(self, isolated_cache):
        """The crash lands mid-way through a sharded sweep; the merged
        SimStats must still match the fault-free reference exactly."""
        reference, jobs = _reference_then_cold(shards=2)
        assert len(jobs) >= 2              # one job per slice
        queue = JobQueue(isolated_cache / "queue", lease_ttl=LEASE_TTL)
        _submit_all(queue, jobs)
        install_plan(
            FaultPlan.parse("point:after-publish-before-done:nth=1:crash"))
        with pytest.raises(SimulatedCrash):
            worker_mod.run_worker(
                queue=queue, cache=ResultCache(), worker_id="crashy",
                max_jobs=len(jobs), poll_interval=0.02,
                idle_timeout=0.5)
        reset_plan()
        time.sleep(LEASE_TTL + 0.05)
        rescue = worker_mod.run_worker(
            queue=queue, cache=ResultCache(), worker_id="rescue",
            poll_interval=0.02, idle_timeout=0.5)
        assert rescue.reclaimed >= 1
        assert _drained(queue.status(), done=len(jobs))
        _assert_resolved_from_cache(reference, shards=2)


# ----------------------------------------------------------------------
# data faults through the full stack
# ----------------------------------------------------------------------
class TestDataFaults:
    def test_torn_cache_write_recovers_via_resubmission(
            self, isolated_cache, capsys):
        """A torn result write passes silently at publish time, the
        integrity check quarantines it at read time, and the waiting
        submitter resubmits the job behind the stale done marker."""
        reference, jobs = _reference_then_cold()
        runner.telemetry.reset()
        install_plan(FaultPlan.parse("write:@cache:nth=1:torn"))
        backend = DistributedBackend(queue_dir=isolated_cache / "queue",
                                     lease_ttl=LEASE_TTL,
                                     poll_interval=0.05, timeout=60)
        results = runner.run_suite(["gzip"], SUITE, scale=SCALE,
                                   backend=backend)
        assert results == reference
        assert runner.telemetry.corrupt_quarantined >= 1
        assert list((isolated_cache / "corrupt").iterdir())
        assert "quarantined corrupt entry" in capsys.readouterr().err
        queue = JobQueue(isolated_cache / "queue")
        status = queue.status()
        assert (status.pending, status.claimed, status.dead) == (0, 0, 0)
        _assert_resolved_from_cache(reference)

    def test_transient_queue_eio_is_absorbed_by_retry(self,
                                                      isolated_cache):
        reference, jobs = _reference_then_cold()
        runner.telemetry.reset()
        install_plan(FaultPlan.parse(
            "write:@queue:nth=1:eio;fsync:@queue:nth=1:eio"))
        backend = DistributedBackend(queue_dir=isolated_cache / "queue",
                                     lease_ttl=LEASE_TTL,
                                     poll_interval=0.05, timeout=60)
        results = runner.run_suite(["gzip"], SUITE, scale=SCALE,
                                   backend=backend)
        assert results == reference
        assert runner.telemetry.io_retries >= 1
        status = JobQueue(isolated_cache / "queue").status()
        assert (status.pending, status.claimed, status.dead) == (0, 0, 0)


# ----------------------------------------------------------------------
# the worker CLI's crash contract
# ----------------------------------------------------------------------
class TestWorkerCliCrash:
    def test_injected_crash_exits_70_and_job_is_rescuable(
            self, isolated_cache, capsys):
        from repro.__main__ import main

        queue_dir = isolated_cache / "queue"
        queue = JobQueue(queue_dir, lease_ttl=0.1)
        assert queue.submit({"key": "k-crash"})
        install_plan(FaultPlan.parse("point:after-claim:nth=1:crash"))
        rc = main(["worker", "--queue-dir", str(queue_dir),
                   "--idle-timeout", "0.2", "--poll-interval", "0.02",
                   "--quiet"])
        assert rc == 70                         # distinct crash signal
        assert "worker crashed" in capsys.readouterr().err
        assert queue.status().claimed == 1      # abandoned mid-claim
        reset_plan()
        time.sleep(0.15)                        # claimed-file mtime ages out
        assert queue.reclaim_expired() == 1
        job = queue.claim("rescue")
        assert job is not None and queue.complete(job)
        assert _drained(queue.status(), done=1)


# ----------------------------------------------------------------------
# hypothesis-generated fault schedules
# ----------------------------------------------------------------------
_FAULT_OPS = st.sampled_from(["rename", "write", "unlink", "any"])
_FAULT_MATCHES = st.sampled_from(["*", "@queue", "@lease", "claimed",
                                  "pending"])


@st.composite
def _fault_schedules(draw):
    n_rules = draw(st.integers(min_value=1, max_value=3))
    rules = []
    for _ in range(n_rules):
        op = draw(_FAULT_OPS)
        match = draw(_FAULT_MATCHES)
        nth = draw(st.integers(min_value=1, max_value=6))
        rules.append(f"{op}:{match}:nth={nth}:eio")
    return ";".join(rules)


class TestFaultScheduleInvariants:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_jobs=st.integers(min_value=1, max_value=5),
           spec=_fault_schedules())
    def test_queue_drains_every_job_exactly_once(self, tmp_path, n_jobs,
                                                 spec):
        """Under any generated schedule of transient queue faults, every
        submitted job completes exactly once: none lost, none
        dead-lettered, none duplicated."""
        reset_plan()
        queue = JobQueue(tmp_path / f"q-{uuid.uuid4().hex[:8]}",
                         lease_ttl=0.05, max_attempts=10)
        keys = [f"key-{i:03d}" for i in range(n_jobs)]
        for key in keys:
            assert queue.submit({"key": key})
        install_plan(FaultPlan.parse(spec))
        completed = []
        deadline = time.monotonic() + 20.0
        try:
            while len(completed) < n_jobs:
                assert time.monotonic() < deadline, \
                    f"drain wedged under {spec!r}: {completed}"
                try:
                    queue.reclaim_expired()
                    job = queue.claim("drainer")
                except OSError:
                    time.sleep(0.06)
                    continue
                if job is None:
                    time.sleep(0.06)
                    continue
                if queue.complete(job):
                    completed.append(job.key)
        finally:
            reset_plan()
        assert sorted(completed) == keys
        assert _drained(queue.status(), done=n_jobs)


# ----------------------------------------------------------------------
# fleet supervision end to end (subprocess)
# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_fleet_survives_injected_crash_by_restarting(
            self, isolated_cache):
        """`repro fleet` against a one-shot crash plan: the first worker
        dies at the claim step, the supervisor restarts it with the fault
        plan stripped, and the restarted worker drains the queue."""
        reference, jobs = _reference_then_cold()
        queue_dir = isolated_cache / "queue"
        queue = JobQueue(queue_dir, lease_ttl=LEASE_TTL)
        _submit_all(queue, jobs)

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(isolated_cache)
        env["REPRO_FAULTS"] = "point:after-claim:nth=1:crash"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "-n", "1",
             "--queue-dir", str(queue_dir),
             "--lease-ttl", str(LEASE_TTL),
             "--idle-timeout", "2", "--poll-interval", "0.05",
             "--max-restarts", "3"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "restarting" in proc.stderr      # the crash was supervised
        assert _drained(queue.status(), done=len(jobs))
        _assert_resolved_from_cache(reference)
