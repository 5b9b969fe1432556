"""The distributed execution subsystem: queue protocol, backends, CLI.

Covers the tentpole acceptance criteria:

* the filesystem queue never double-claims under concurrency (hypothesis),
  reclaims crashed workers' leases, and dead-letters after bounded retry;
* the local backend on one and on two workers and the distributed backend
  produce identical merged SimStats;
* a sweep submitted via ``repro submit`` and drained by two independent
  worker *processes* (sharing only the cache directory) matches the local
  backend bit for bit, and a killed worker's job is neither lost nor
  duplicated;
* the satellite command ``repro cache gc`` (age/size bounds, orphaned
  ``*.tmp`` sweep, queue subtree immunity).
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MachineConfig
from repro.distrib import backend as backend_mod
from repro.distrib import worker as worker_mod
from repro.distrib.backend import (
    BackendError,
    DistributedBackend,
    LocalBackend,
    resolve_backend,
)
from repro.distrib.queue import JobQueue, job_id_for
from repro.experiments import cache as cache_mod
from repro.experiments import runner, sharding
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimJob
from repro.integration.config import IntegrationConfig
from repro.workloads import spec_like


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Fresh cache + queue roots; cold in-process state."""
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(runner, "_DISK_CACHE", None)
    runner._MEMORY_CACHE.clear()
    runner.telemetry.reset()
    yield tmp_path
    runner._MEMORY_CACHE.clear()
    runner.clear_cache()
    monkeypatch.setattr(runner, "_DISK_CACHE", None)


SUITE_CONFIGS = {
    "none": MachineConfig().with_integration(IntegrationConfig.disabled()),
    "full": MachineConfig().with_integration(IntegrationConfig.full()),
}


def _dummy_jobs(queue, count):
    for i in range(count):
        assert queue.submit({"key": f"key-{i:04d}"}, est_work=i)


# ----------------------------------------------------------------------
# queue protocol
# ----------------------------------------------------------------------
class TestQueueProtocol:
    def test_submit_is_deduplicated_while_in_flight(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        assert queue.submit({"key": "k1"}, est_work=5)
        assert not queue.submit({"key": "k1"}, est_work=5)   # pending
        job = queue.claim("w1")
        assert not queue.submit({"key": "k1"}, est_work=5)   # claimed
        assert queue.complete(job)
        # After done, a resubmission is honored: submitters probe the
        # cache first, so reaching submit() again means the result was
        # evicted and the done marker is stale (see
        # test_stale_done_marker_does_not_block_resubmission).
        assert queue.submit({"key": "k1"}, est_work=5)

    def test_claim_order_is_longest_first(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        for key, work in (("small", 10), ("big", 1000), ("mid", 100)):
            queue.submit({"key": key}, est_work=work)
        order = [queue.claim("w").payload["key"] for _ in range(3)]
        assert order == ["big", "mid", "small"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jobs=st.integers(1, 24), claimers=st.integers(2, 8))
    def test_concurrent_claimers_never_double_claim(self, tmp_path, jobs,
                                                    claimers):
        """N threads hammering claim() each get a disjoint set of jobs and
        between them exactly drain the queue."""
        queue = JobQueue(tmp_path / f"q-{jobs}-{claimers}-{time.time_ns()}")
        _dummy_jobs(queue, jobs)

        def drain(worker):
            got = []
            while True:
                job = queue.claim(worker)
                if job is None:
                    return got
                got.append(job.payload["key"])
        with ThreadPoolExecutor(max_workers=claimers) as pool:
            grabbed = list(pool.map(drain, [f"w{i}" for i in range(claimers)]))
        flat = [key for keys in grabbed for key in keys]
        assert sorted(flat) == sorted(f"key-{i:04d}" for i in range(jobs))
        assert len(flat) == len(set(flat))      # no double claims
        assert queue.status().pending == 0

    def test_lease_expiry_reclaims_crashed_worker(self, tmp_path):
        """A claimed job whose owner dies (no heartbeat, no complete) comes
        back to pending with one attempt burned, and is claimable again."""
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        queue.submit({"key": "k1"})
        job = queue.claim("crashed-worker")
        assert job is not None
        assert queue.reclaim_expired() == 0       # lease still fresh
        time.sleep(0.1)
        assert queue.reclaim_expired() == 1
        assert queue.status().pending == 1
        again = queue.claim("rescue-worker")
        assert again is not None
        assert again.payload["attempts"] == 1
        assert "lease expired" in again.payload["errors"][-1]
        assert queue.complete(again)
        assert queue.status().done == 1

    def test_live_lease_is_never_stolen(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.2)
        queue.submit({"key": "k1"})
        job = queue.claim("w1")
        for _ in range(3):
            time.sleep(0.1)
            queue.heartbeat(job)
            assert queue.reclaim_expired() == 0

    def test_retry_then_dead_letter(self, tmp_path):
        queue = JobQueue(tmp_path / "q", max_attempts=2)
        queue.submit({"key": "k1"})
        job = queue.claim("w1")
        assert queue.fail(job, "boom 1") == "pending"   # retry
        job = queue.claim("w1")
        assert job.payload["attempts"] == 1
        assert queue.fail(job, "boom 2") == "dead"      # bound reached
        assert queue.claim("w1") is None
        status = queue.status()
        assert (status.pending, status.claimed, status.dead) == (0, 0, 1)
        (dead,) = queue.dead_jobs()
        assert dead.key == "k1"
        assert dead.attempts == 2
        assert ["boom 1", "boom 2"] == dead.errors

    def test_losing_the_done_race_is_harmless(self, tmp_path):
        """complete() after a reclaim returns False instead of corrupting
        state -- the canonical duplicated-execution scenario."""
        queue = JobQueue(tmp_path / "q", lease_ttl=0.01)
        queue.submit({"key": "k1"})
        slow = queue.claim("slow-worker")
        time.sleep(0.05)
        assert queue.reclaim_expired() == 1
        fast = queue.claim("fast-worker")
        assert queue.complete(fast)
        assert not queue.complete(slow)           # lost the race, no crash
        status = queue.status()
        assert (status.pending, status.claimed, status.done) == (0, 0, 1)

    def test_job_id_embeds_descending_work_prefix(self):
        small = job_id_for("aaaa", 10)
        big = job_id_for("bbbb", 100000)
        assert sorted([small, big]) == [big, small]   # big sorts first

    def test_corrupt_job_file_is_dead_lettered(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit({"key": "k1"})
        (path,) = list((tmp_path / "q" / "pending").iterdir())
        path.write_bytes(b"not json")
        assert queue.claim("w1") is None
        assert queue.status().dead == 1
        # The key survives via the filename, so a blocking submitter's
        # dead-letter watch can still match the job.
        (dead,) = queue.dead_jobs()
        assert dead.key == "k1"
        assert queue.find_dead(dead.job_id).key == "k1"

    def test_stale_done_marker_does_not_block_resubmission(self, tmp_path):
        """done/ dedup must yield when the cached result was evicted:
        submitters only reach submit() after a cache miss, so a done
        marker there is stale and the job must run again."""
        queue = JobQueue(tmp_path / "q")
        queue.submit({"key": "k1"}, est_work=7)
        job = queue.claim("w1")
        assert queue.complete(job)
        assert queue.status().done == 1
        # Same sweep resubmitted after `cache gc` evicted the result:
        assert queue.submit({"key": "k1"}, est_work=7)
        status = queue.status()
        assert (status.pending, status.done) == (1, 0)
        # ...while a dead letter still blocks (poison stays dead).
        dead_q = JobQueue(tmp_path / "q2", max_attempts=1)
        dead_q.submit({"key": "k2"})
        assert dead_q.fail(dead_q.claim("w1"), "poison") == "dead"
        assert not dead_q.submit({"key": "k2"})

    def test_prune_terminal_spares_live_work(self, tmp_path):
        queue = JobQueue(tmp_path / "q", max_attempts=1)
        for i in range(4):
            queue.submit({"key": f"k{i}"}, est_work=i)
        done = queue.claim("w1")
        queue.complete(done)
        assert queue.fail(queue.claim("w1"), "boom") == "dead"
        live = queue.claim("w1")                  # stays claimed
        queue.record_worker("w1", {"executed": 1})
        assert queue.prune_terminal() >= 3        # done + dead + workers
        status = queue.status()
        assert (status.pending, status.claimed) == (1, 1)
        assert (status.done, status.dead) == (0, 0)
        assert not status.workers
        assert live is not None                   # claimed job untouched
        # Age-bounded prune keeps young records.
        queue.complete(live)
        assert queue.prune_terminal(max_age_seconds=3600) == 0
        assert queue.status().done == 1

    def test_purge_empties_every_state(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _dummy_jobs(queue, 3)
        job = queue.claim("w1")
        queue.complete(job)
        queue.record_worker("w1", {"executed": 1})
        assert queue.purge() == 3
        status = queue.status()
        assert (status.pending, status.claimed, status.done,
                status.dead) == (0, 0, 0, 0)
        assert not status.workers


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    def _run(self, backend, shards=1, jobs=1):
        return runner.run_suite(["gzip", "mcf"], SUITE_CONFIGS, scale=0.08,
                                jobs=jobs, shards=shards, backend=backend)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_pool_distributed_identical(self, isolated_cache, shards):
        reference = self._run(LocalBackend(1), shards=shards)
        runner.clear_cache(disk=True)
        pooled = self._run(LocalBackend(2), shards=shards, jobs=2)
        runner.clear_cache(disk=True)
        distributed = self._run(
            DistributedBackend(queue_dir=isolated_cache / "q",
                               poll_interval=0.01),
            shards=shards)
        for config_name in SUITE_CONFIGS:
            for benchmark in ("gzip", "mcf"):
                assert (reference[config_name][benchmark]
                        == pooled[config_name][benchmark])
                assert (reference[config_name][benchmark]
                        == distributed[config_name][benchmark])

    def test_distributed_backend_drains_inline(self, isolated_cache):
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01)
        results = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08,
                                   backend=backend)
        assert results["none"]["gzip"].retired > 0
        assert runner.telemetry.simulations == 2       # drained locally
        assert runner.telemetry.remote_jobs == 0
        status = backend.queue().status()
        assert status.done == 2 and status.depth == 0

    def test_distributed_drain_records_simulated_cycles(self,
                                                        isolated_cache):
        """A job the inline drain executes folds its cycle counts into the
        run telemetry, as the local backend does (the --verbose
        elided fraction is computed from them)."""
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01)
        results = runner.run_suite(["gzip"], {"full": SUITE_CONFIGS["full"]},
                                   scale=0.08, backend=backend)
        stats = results["full"]["gzip"]
        assert runner.telemetry.simulations == 1
        assert runner.telemetry.cycles_simulated == stats.cycles > 0
        assert runner.telemetry.cycles_elided == stats.cycles_elided

    def test_distributed_counts_remote_jobs(self, isolated_cache):
        """Jobs executed by another worker (simulated by publishing their
        results to the shared cache after submission) land in remote_jobs,
        not in simulations -- keeping the --verbose summary truthful."""
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.08, 1, 1.0,
                                 use_cache=True)
        assert len(plan.jobs) == 2
        # The "remote worker": resolve the planned jobs out-of-band.
        cache = ResultCache()
        for job in plan.jobs:
            cache.store(job.key, worker_mod.execute_payload(
                worker_mod.make_payload(job)))
        runner.telemetry.reset()
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01, drain=False,
                                     timeout=60)
        outcomes = backend.execute(plan.jobs, use_cache=True)
        assert len(outcomes) == 2
        assert runner.telemetry.remote_jobs == 2
        assert runner.telemetry.simulations == 0

    def test_distributed_reclaims_abandoned_lease(self, isolated_cache):
        """A job claimed by a dead worker is reclaimed and finished by the
        backend's inline drain; telemetry records the reclaim."""
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     lease_ttl=0.05, poll_interval=0.01)
        queue = backend.queue()
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.08, 1, 1.0,
                                 use_cache=True)
        backend.submit(plan.jobs, use_cache=True)
        crashed = queue.claim("crashed-worker")
        assert crashed is not None
        time.sleep(0.1)                  # let the lease expire, no heartbeat
        results = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08,
                                   backend=backend)
        assert results["none"]["gzip"].retired > 0
        assert runner.telemetry.leases_reclaimed >= 1
        status = queue.status()
        assert status.done == 2 and status.depth == 0

    def test_dead_letter_aborts_the_wait(self, isolated_cache):
        """An impossible job must fail the submit-side wait with the error
        history, not hang it."""
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01)
        bogus = [SimJob("deadbeef" * 8, "no-such-benchmark", MachineConfig(),
                        0.1, 1)]
        with pytest.raises(RuntimeError, match="dead-lettered"):
            backend.execute(bogus, use_cache=True)
        status = backend.queue().status()
        assert status.dead == 1 and status.depth == 0

    def test_local_drain_probes_linearly(self, isolated_cache, monkeypatch):
        """Draining N jobs in one process loads each result a bounded
        number of times (the job itself, then its one probe), instead of
        re-probing every pending key after every job."""
        plan = runner.plan_suite(["gzip", "mcf"], SUITE_CONFIGS, 0.02, 4,
                                 1.0, use_cache=True)
        jobs = len(plan.jobs)
        assert jobs == 16
        loads = []
        real_load = ResultCache.load

        def counting_load(self, key):
            loads.append(key)
            return real_load(self, key)

        monkeypatch.setattr(ResultCache, "load", counting_load)
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01)
        outcomes = backend.execute(plan.jobs, use_cache=True)
        assert len(outcomes) == jobs
        assert len(loads) <= 2 * jobs + 1

    def test_local_dead_letter_names_the_job(self, isolated_cache):
        """A job that dead-letters while the submitter drains it aborts the
        wait with its key, even with healthy jobs alongside."""
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.02, 1, 1.0,
                                 use_cache=True)
        bogus_key = "deadbeef" * 8
        bogus = SimJob(bogus_key, "no-such-benchmark", MachineConfig(), 0.1,
                       1 << 40)
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01, timeout=60)
        with pytest.raises(RuntimeError, match="dead-lettered") as raised:
            backend.execute([bogus] + plan.jobs, use_cache=True)
        assert bogus_key[:16] in str(raised.value)
        assert backend.queue().status().dead == 1

    def test_resubmit_after_cache_eviction_reruns(self, isolated_cache):
        """`cache gc` evicting a result behind a done/ marker must not
        wedge the next submission of the same sweep (the stale-done-marker
        hang): the job re-enqueues and re-executes."""
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01, timeout=30)
        reference = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08,
                                     backend=backend)
        assert backend.queue().status().done == 2
        # Evict everything the sweep cached; the queue keeps its markers.
        assert ResultCache().clear() > 0
        runner.clear_cache()                       # in-process memo too
        runner.telemetry.reset()
        again = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08,
                                 backend=backend)
        assert runner.telemetry.simulations == 2   # re-ran, no hang
        assert again == reference

    def test_timeout_is_progress_based(self, isolated_cache):
        """With no workers and drain=False the (no-progress) timeout
        fires; progress made by a worker mid-wait resets it (here: the
        whole sweep resolves before the short timeout can fire again)."""
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01, drain=False,
                                     timeout=0.3)
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.08, 1, 1.0,
                                 use_cache=True)
        started = time.time()
        with pytest.raises(TimeoutError, match="no progress"):
            backend.execute(plan.jobs, use_cache=True)
        assert time.time() - started < 10

    def test_distributed_requires_the_disk_cache(self, isolated_cache):
        backend = DistributedBackend(queue_dir=isolated_cache / "q")
        with pytest.raises(BackendError):
            runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08,
                             use_cache=False, backend=backend)

    def test_resolve_backend_names_and_fallbacks(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, jobs=1).jobs == 1
        assert resolve_backend(None, jobs=4).jobs == 4
        local = resolve_backend("local", jobs=2)
        assert isinstance(local, LocalBackend) and local.jobs == 2
        assert isinstance(resolve_backend("distributed", jobs=1),
                          DistributedBackend)
        instance = LocalBackend(1)
        assert resolve_backend(instance, jobs=8) is instance
        for name in ("bogus", "serial", "pool"):
            with pytest.raises(BackendError, match="local, distributed"):
                resolve_backend(name, jobs=1)
        monkeypatch.setenv("REPRO_BACKEND", "local")
        from_env = resolve_backend(None, jobs=4)
        assert isinstance(from_env, LocalBackend) and from_env.jobs == 4
        for name in ("nonsense", "serial", "pool"):
            monkeypatch.setenv("REPRO_BACKEND", name)
            with pytest.raises(runner.EnvVarError):
                resolve_backend(None, jobs=1)


# ----------------------------------------------------------------------
# built programs
# ----------------------------------------------------------------------
@pytest.fixture()
def build_calls(monkeypatch):
    """Benchmarks passed to ``build_workload``, whichever module calls it."""
    calls = []
    real = spec_like.build_workload

    def counting(name, scale=1.0):
        calls.append(name)
        return real(name, scale=scale)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "build_workload", None) is real):
            monkeypatch.setattr(module, "build_workload", counting)
    sharding.program_for.cache_clear()
    yield calls
    sharding.program_for.cache_clear()


class TestProgramMemo:
    def test_distributed_sweep_builds_each_program_once(self, isolated_cache,
                                                        build_calls):
        """Planning and all 24 slice jobs of 3 benchmarks x 2 configs x 4
        shards share one build per benchmark, although the queue hands the
        slices out longest first across the benchmarks."""
        names = ["gzip", "mcf", "vpr.r"]
        backend = DistributedBackend(queue_dir=isolated_cache / "q",
                                     poll_interval=0.01)
        results = runner.run_suite(names, SUITE_CONFIGS,
                                   scale=0.05, shards=4, backend=backend)
        assert runner.telemetry.slices_simulated == 24
        assert results["full"]["mcf"].retired > 0
        assert sorted(build_calls) == names
        # Nothing wrote to the shared programs.
        for name in names:
            shared = sharding.program_for(name, 0.05)
            fresh = spec_like.build_workload(name, scale=0.05)
            assert shared.data == fresh.data
            assert list(shared) == list(fresh)

    def test_clear_cache_empties_the_memo(self, build_calls):
        first = sharding.program_for("gzip", 0.02)
        assert sharding.program_for("gzip", 0.02) is first
        assert sharding.program_for.cache_info().currsize == 1
        runner.clear_cache()
        assert sharding.program_for.cache_info().currsize == 0
        assert sharding.program_for("gzip", 0.02) is not first
        assert build_calls == ["gzip", "gzip"]

    def test_memo_holds_at_most_its_bound(self, build_calls):
        """The memo keeps every registered benchmark at one scale, and
        evicts the least recently used program beyond that."""
        names = spec_like.workload_names()
        assert len(names) == sharding.PROGRAM_MEMO_ENTRIES
        for name in names + names:
            sharding.program_for(name, 0.02)
        assert build_calls == names
        sharding.program_for(names[0], 0.03)
        assert (sharding.program_for.cache_info().currsize
                == sharding.PROGRAM_MEMO_ENTRIES)
        # names[0] at 0.02 was the least recently used.
        sharding.program_for(names[1], 0.02)
        sharding.program_for(names[0], 0.02)
        assert build_calls == names + [names[0], names[0]]


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_worker_drains_submitted_sweep(self, isolated_cache):
        backend = DistributedBackend(queue_dir=isolated_cache / "q")
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.08, 1, 1.0,
                                 use_cache=True)
        submitted = backend.submit(plan.jobs, use_cache=True)
        assert len(submitted) == 2
        summary = worker_mod.run_worker(
            queue=backend.queue(), cache=ResultCache(),
            idle_timeout=0.2, poll_interval=0.02)
        assert summary.executed == 2
        assert summary.failed == 0
        # The results are now resolvable without simulating: the blocking
        # submit-side contract.
        runner._MEMORY_CACHE.clear()
        runner.telemetry.reset()
        results = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08)
        assert runner.telemetry.simulations == 0
        assert results["none"]["gzip"].retired > 0

    def test_worker_skips_already_cached_jobs(self, isolated_cache):
        reference = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.08)
        queue = JobQueue(isolated_cache / "q")
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.08, 1, 1.0,
                                 use_cache=False)   # bypass probe: 2 jobs
        DistributedBackend(queue_dir=queue.root).submit(
            plan.jobs, use_cache=True)
        summary = worker_mod.run_worker(queue=queue, cache=ResultCache(),
                                        idle_timeout=0.2, poll_interval=0.02)
        assert summary.cache_hits == 2 and summary.executed == 0
        assert reference["none"]["gzip"].retired > 0

    def test_worker_dead_letters_poison_job(self, isolated_cache):
        queue = JobQueue(isolated_cache / "q", max_attempts=2)
        queue.submit({"key": "k1", "benchmark": "no-such-benchmark",
                      "scale": 0.1, "config": MachineConfig().to_dict(),
                      "work": 1})
        summary = worker_mod.run_worker(queue=queue, cache=ResultCache(),
                                        idle_timeout=0.2, poll_interval=0.02)
        assert summary.failed == 2                 # initial + one retry
        assert summary.executed == 0
        (dead,) = queue.dead_jobs()
        assert dead.attempts == 2

    def test_payload_roundtrip_slice_and_whole(self, isolated_cache):
        from repro.workloads import build_workload

        for shards in (1, 2):
            plan = runner.plan_suite(["gzip"],
                                     {"none": SUITE_CONFIGS["none"]},
                                     0.08, shards, 1.0, use_cache=True)
            job = plan.jobs[-1]
            assert (job.slice_spec is None) == (shards == 1)
            payload = worker_mod.make_payload(job)
            payload = json.loads(json.dumps(payload))   # through JSON
            assert worker_mod.job_from_payload(payload) == job
            direct = runner.run_job(
                job, build_workload(job.benchmark, scale=job.scale))
            assert worker_mod.execute_payload(payload) == direct

    def test_payload_roundtrip_keeps_warm_state(self, isolated_cache):
        from repro.workloads import build_workload

        plan = runner.plan_suite(["gzip"], {"none": SUITE_CONFIGS["none"]},
                                 0.08, 4, 0.25, use_cache=True)
        warm_jobs = [job for job in plan.jobs if job.warm is not None]
        # Every slice but the first starts after instruction 0.
        assert len(warm_jobs) == 3
        for job in warm_jobs:
            payload = json.loads(json.dumps(worker_mod.make_payload(job)))
            clone = worker_mod.job_from_payload(payload)
            assert clone == job
            assert clone.warm.to_dict() == job.warm.to_dict()
        job = warm_jobs[0]
        direct = runner.run_job(
            job, build_workload(job.benchmark, scale=job.scale))
        payload = json.loads(json.dumps(worker_mod.make_payload(job)))
        assert (worker_mod.execute_payload(payload).to_dict()
                == direct.to_dict())


# ----------------------------------------------------------------------
# two independent OS processes sharing only the cache dir (acceptance)
# ----------------------------------------------------------------------
class TestMultiprocessFleet:
    def test_two_worker_processes_drain_a_submitted_sweep(
            self, isolated_cache):
        reference = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.06,
                                     jobs=2)
        runner.clear_cache(disk=True)
        plan = runner.plan_suite(["gzip"], SUITE_CONFIGS, 0.06, 1, 1.0,
                                 use_cache=True)
        backend = DistributedBackend(queue_dir=isolated_cache / "queue")
        assert len(backend.submit(plan.jobs, use_cache=True)) == 2

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(isolated_cache)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--idle-timeout", "2", "--poll-interval", "0.05",
                 "--queue-dir", str(isolated_cache / "queue"), "--quiet"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)]
        for proc in workers:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()

        status = backend.queue().status()
        assert status.done == 2 and status.depth == 0 and status.dead == 0
        # Bit-identical to the pool backend, resolved purely from cache.
        runner._MEMORY_CACHE.clear()
        runner.telemetry.reset()
        fleet = runner.run_suite(["gzip"], SUITE_CONFIGS, scale=0.06)
        assert runner.telemetry.simulations == 0
        for config_name in SUITE_CONFIGS:
            assert fleet[config_name]["gzip"] == reference[config_name]["gzip"]


# ----------------------------------------------------------------------
# satellite: cache gc
# ----------------------------------------------------------------------
class TestCacheGc:
    def _store(self, cache, key, payload, age_seconds=0.0):
        cache.store_payload(key, payload)
        if age_seconds:
            past = time.time() - age_seconds
            os.utime(cache.path_for(key), (past, past))

    def test_orphaned_tmp_files_are_swept_after_grace(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache, "aa" * 32, {"x": 1})
        fresh = tmp_path / "aa" / "fresh.tmp"
        stale = tmp_path / "aa" / "stale.tmp"
        fresh.write_bytes(b"live writer")
        stale.write_bytes(b"killed writer debris")
        past = time.time() - 7200
        os.utime(stale, (past, past))
        stats = cache.gc(tmp_grace_seconds=3600)
        assert stats["tmp_removed"] == 1
        assert fresh.exists() and not stale.exists()
        assert stats["entries_kept"] == 1

    def test_age_bound(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache, "aa" * 32, {"old": 1}, age_seconds=7 * 86400)
        self._store(cache, "bb" * 32, {"new": 1})
        stats = cache.gc(max_age_seconds=86400)
        assert stats["aged_out"] == 1
        assert cache.load_payload("bb" * 32) == {"new": 1}
        assert cache.load_payload("aa" * 32) is None

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index, key in enumerate(("aa" * 32, "bb" * 32, "cc" * 32)):
            self._store(cache, key, {"blob": "x" * 200},
                        age_seconds=(3 - index) * 1000)
        total = sum(cache.path_for(k).stat().st_size
                    for k in ("aa" * 32, "bb" * 32, "cc" * 32))
        keep_two = total - 10          # forces exactly one eviction
        stats = cache.gc(max_bytes=keep_two)
        assert stats["evicted_for_size"] == 1
        assert cache.load_payload("aa" * 32) is None     # oldest went
        assert cache.load_payload("bb" * 32) is not None
        assert cache.load_payload("cc" * 32) is not None

    def test_size_bound_survives_undeletable_entries(self, tmp_path,
                                                     monkeypatch):
        """A failed unlink must stay in the totals (the cache is still
        over budget) and eviction must move on to the next-oldest."""
        cache = ResultCache(tmp_path)
        keys = ("aa" * 32, "bb" * 32, "cc" * 32)
        for index, key in enumerate(keys):
            self._store(cache, key, {"blob": "x" * 200},
                        age_seconds=(3 - index) * 1000)
        undeletable = cache.path_for(keys[0])
        real_unlink = ResultCache._unlink

        def sticky_unlink(path):
            if path == undeletable:
                return False
            return real_unlink(path)

        monkeypatch.setattr(ResultCache, "_unlink",
                            staticmethod(sticky_unlink))
        stats = cache.gc(max_bytes=0)
        assert stats["evicted_for_size"] == 2     # the two deletable ones
        assert stats["entries_kept"] == 1         # the sticky one remains
        assert stats["bytes_kept"] > 0            # ...and is still counted
        assert undeletable.exists()

    def test_gc_and_clear_never_touch_the_queue(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache, "aa" * 32, {"x": 1}, age_seconds=7 * 86400)
        queue = JobQueue(tmp_path / "queue")
        queue.submit({"key": "precious"})
        stats = cache.gc(max_age_seconds=1, max_bytes=0)
        assert stats["entries_kept"] == 0
        assert queue.status().pending == 1          # job survived gc
        assert cache.clear() == 0                   # nothing left to clear
        assert queue.status().pending == 1          # ...and clear spared it
        assert cache.info()["entries"] == 0         # info excludes queue too

    def test_store_payload_cleans_tmp_on_interrupt(self, tmp_path,
                                                   monkeypatch):
        """A KeyboardInterrupt mid-write must not strand a .tmp file."""
        cache = ResultCache(tmp_path)
        real_replace = os.replace

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.store_payload("aa" * 32, {"x": 1})
        monkeypatch.setattr(os, "replace", real_replace)
        assert not list(tmp_path.rglob("*.tmp"))


# ----------------------------------------------------------------------
# CLI: submit / worker / status / verbose summaries
# ----------------------------------------------------------------------
class TestCli:
    def test_fleet_on_empty_queue_drains_and_summarises(
            self, isolated_cache, monkeypatch, capsys):
        """`repro fleet` in process: its one worker subprocess finds the
        queue empty, idles out, and the supervisor reports the drain."""
        from repro.__main__ import main

        src = str(Path(__file__).resolve().parents[1] / "src")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        assert main(["fleet", "-n", "1", "--idle-timeout", "0.5", "--quiet",
                     "--queue-dir", str(isolated_cache / "queue")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fleet: 1 worker(s) draining")
        assert lines[-1].startswith("fleet: ")

    def test_submit_worker_status_roundtrip(self, isolated_cache, capsys):
        from repro.__main__ import main

        rc = main(["submit", "--benchmarks", "gzip", "--scale", "0.06",
                   "--no-wait"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "submitted 2 job(s)" in out
        assert "(0 result(s) already cached)" in out

        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "pending:  2" in out

        assert main(["worker", "--idle-timeout", "0.3",
                     "--poll-interval", "0.02", "--quiet"]) == 0
        capsys.readouterr()

        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "pending:  0" in out and "done:     2" in out
        assert "jobs/min" in out

        # Resubmitting the drained sweep finds every cell cached.
        assert main(["submit", "--benchmarks", "gzip", "--scale", "0.06",
                     "--no-wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted 0 job(s)" in out
        assert "(2 result(s) already cached)" in out

        # Blocking submit on the warm cache: zero simulations, real table.
        runner._MEMORY_CACHE.clear()
        runner.telemetry.reset()
        assert main(["submit", "--benchmarks", "gzip", "--scale", "0.06",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "0 simulations" in out
        assert "remote jobs" in out
        assert "gzip" in out

        # Safe cleanup first: only terminal records go.
        assert main(["status", "--prune"]) == 0
        assert "pruned" in capsys.readouterr().out
        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "done:     0" in out and "pending:  0" in out

        assert main(["status", "--purge"]) == 0
        assert "purged" in capsys.readouterr().out

    def test_run_backend_flag_distributed(self, isolated_cache, capsys):
        from repro.__main__ import main

        rc = main(["run", "--benchmarks", "gzip", "--scale", "0.06",
                   "--backend", "distributed", "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 simulations" in out          # inline drain executed both
        assert "local simulations:   2" in out

    def test_submit_wait_with_drain(self, isolated_cache, capsys):
        from repro.__main__ import main

        rc = main(["submit", "--benchmarks", "gzip", "--scale", "0.06",
                   "--drain", "--timeout", "120"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "2 simulations" in out

    def test_cache_gc_cli(self, isolated_cache, capsys):
        from repro.__main__ import main

        runner.run_benchmark("gzip", SUITE_CONFIGS["none"], scale=0.06)
        stale = isolated_cache / "zz_orphan.tmp"
        stale.write_bytes(b"debris")
        past = time.time() - 7200
        os.utime(stale, (past, past))
        assert main(["cache", "gc"]) == 0
        out = capsys.readouterr().out
        assert "orphaned tmp:      1 removed" in out
        assert not stale.exists()

    def test_backend_env_var_is_validated(self, isolated_cache, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(SystemExit, match="REPRO_BACKEND"):
            main(["run", "--benchmarks", "gzip", "--scale", "0.06"])
