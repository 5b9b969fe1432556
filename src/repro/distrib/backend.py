"""Execution backends: where the experiment engine's jobs actually run.

:func:`repro.experiments.runner.run_suite` plans a longest-first list of
:class:`~repro.experiments.runner.SimJob` records -- each one
deterministic, content-addressed simulation -- and hands the whole list to
an :class:`ExecutionBackend`.  Two implementations cover one machine and
one fleet:

* :class:`LocalBackend` -- this process when there is one worker or one
  job; otherwise a ``multiprocessing`` pool whose ``imap_unordered`` over the
  longest-first list lets short jobs backfill stragglers.
* :class:`DistributedBackend` -- publish every job into the durable
  filesystem :class:`~repro.distrib.queue.JobQueue` and block until every
  result is resolvable from the shared
  :class:`~repro.experiments.cache.ResultCache`; any fleet of
  ``repro worker`` processes sharing the cache directory drains the queue.
  With ``drain=True`` (the default) the submitting process also works the
  queue between cache polls, so a distributed run completes even with no
  external workers -- they just make it faster.

Either way a job is simulated by
:func:`repro.experiments.runner.run_job`, on the program
:func:`repro.experiments.sharding.program_for` built for the checkpoint
plan or for an earlier job on the same benchmark.  Selection:
``run_suite(backend=...)`` accepts a backend instance or a name; ``None``
falls back to ``REPRO_BACKEND`` and finally to the local backend.

All backends return the same ``{cache key: SimStats}`` mapping and, because
simulation is deterministic, identical bits -- the backend-equivalence
tests pin that.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple, Union

from repro.core import SimStats
from repro.distrib.queue import JobQueue, job_id_for, worker_identity
from repro.experiments import runner
from repro.experiments.runner import SimJob
from repro.experiments.sharding import program_for

BACKEND_NAMES = ("local", "distributed")
ENV_BACKEND = "REPRO_BACKEND"

#: Ceiling for the distributed wait-loop's adaptive poll interval: idle
#: polls back off exponentially from ``poll_interval`` up to this, and
#: any progress (a claim, a resolved key) resets the backoff.
POLL_INTERVAL_CAP = 5.0


class BackendError(SystemExit):
    """A backend mis-configuration, reported as a one-line CLI error."""


class ExecutionBackend(Protocol):
    """Anything that can run a planned job list to completion."""

    name: str

    def execute(self, jobs: List[SimJob],
                use_cache: bool) -> Dict[str, SimStats]:
        """Run every job and return ``{key: stats}`` for all of them."""
        ...


def _pool_job(job: SimJob,
              use_cache: bool) -> Tuple[str, bool, SimStats, bool]:
    """Run one job in a pool child: ``(key, simulated, stats, stored)``.

    Re-checks the disk cache in the child (cheap insurance against jobs
    cached by a concurrent process) and persists the result before handing
    it back, so a crashed parent loses nothing; ``stored`` is False when
    that write failed, for the parent to report.
    """
    disk = runner._disk_cache() if use_cache else None
    if disk is not None:
        stats = disk.load(job.key)
        if isinstance(stats, SimStats):
            return job.key, False, stats, True
    stats = runner.run_job(job, program_for(job.benchmark, job.scale))
    stored = disk is None or disk.store(job.key, stats)
    return job.key, True, stats, stored


def _pool_context():
    """Prefer fork (cheap, inherits sys.path) where available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class LocalBackend:
    """This machine: in-process for one worker or one job, else a pool."""

    name = "local"

    def __init__(self, jobs: int):
        self.jobs = max(1, int(jobs))

    def execute(self, jobs: List[SimJob],
                use_cache: bool) -> Dict[str, SimStats]:
        if self.jobs <= 1 or len(jobs) <= 1:
            return self._run_here(jobs, use_cache)
        outcomes: Dict[str, SimStats] = {}
        with _pool_context().Pool(processes=min(self.jobs, len(jobs))) as pool:
            for key, simulated, stats, stored in pool.imap_unordered(
                    partial(_pool_job, use_cache=use_cache), jobs):
                if simulated:
                    runner._record_simulation(stats)
                else:
                    runner.telemetry.disk_hits += 1
                if use_cache:
                    # The child already wrote the disk cache (or failed to).
                    runner._cache_store(key, stats, to_disk=False)
                    if not stored:
                        runner._disk_write_failed(key)
                outcomes[key] = stats
        return outcomes

    @staticmethod
    def _run_here(jobs: List[SimJob],
                  use_cache: bool) -> Dict[str, SimStats]:
        outcomes: Dict[str, SimStats] = {}
        for job in jobs:
            stats = runner.run_job(job, program_for(job.benchmark, job.scale))
            if use_cache:
                runner._cache_store(job.key, stats)
            outcomes[job.key] = stats
        return outcomes


class DistributedBackend:
    """Publish jobs to the shared queue; gather results from the cache.

    The queue and the result namespaces both live under the (shared) cache
    root, so a fleet needs exactly one knob -- ``REPRO_CACHE_DIR`` -- to
    cooperate.  ``drain=True`` (default) makes the submitter work the
    queue too; ``drain=False`` is pure submit-and-wait, the mode behind
    ``repro submit`` when a dedicated fleet does the work.  ``timeout``
    bounds the wait (None = forever); dead-lettered jobs abort the wait
    with their failure history rather than hanging it.

    Degradation: when the queue root is unusable (submission itself fails
    with an ``OSError`` that survives the retries), the run falls back to
    a :class:`LocalBackend` of ``fallback_jobs`` workers with a
    one-line warning instead of dying -- the sweep completes, it just
    stops being distributed.
    """

    name = "distributed"

    def __init__(self, queue_dir: Optional[Path] = None,
                 lease_ttl: Optional[float] = None,
                 poll_interval: float = 0.5,
                 drain: bool = True,
                 timeout: Optional[float] = None,
                 fallback_jobs: int = 1):
        self.queue_dir = queue_dir
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.drain = drain
        self.timeout = timeout
        self.fallback_jobs = max(1, int(fallback_jobs))

    def queue(self) -> JobQueue:
        return JobQueue(root=self.queue_dir, lease_ttl=self.lease_ttl)

    # ------------------------------------------------------------------
    def submit(self, jobs: List[SimJob],
               use_cache: bool) -> Dict[str, SimJob]:
        """Enqueue every job (deduplicating); returns ``{key: job}``."""
        from repro.distrib.worker import make_payload

        if not use_cache:
            raise BackendError(
                "the distributed backend requires the shared disk cache "
                "(it is the result plane); do not combine it with "
                "--no-cache")
        queue = self.queue()
        submitted: Dict[str, SimJob] = {}
        for job in jobs:
            queue.submit(make_payload(job), est_work=job.work)
            submitted[job.key] = job
        return submitted

    def execute(self, jobs: List[SimJob],
                use_cache: bool) -> Dict[str, SimStats]:
        from repro.distrib.worker import WorkerSummary, make_payload, process_one
        from repro.experiments.cache import ResultCache

        if not jobs:
            return {}
        try:
            pending = self.submit(jobs, use_cache)
        except OSError as exc:
            # Queue root unusable (permissions, dead mount, full disk):
            # degrade to this machine rather than losing the sweep.
            print(f"repro: warning: queue root unusable ({exc}); "
                  f"falling back to the local backend "
                  f"({self.fallback_jobs} jobs)", file=sys.stderr)
            return LocalBackend(self.fallback_jobs).execute(jobs, use_cache)
        job_ids = {job.key: job_id_for(job.key, job.work) for job in jobs}
        queue = self.queue()
        cache = ResultCache()
        summary = WorkerSummary(worker=worker_identity())
        outcomes: Dict[str, SimStats] = {}
        local_keys = set()
        last_progress = time.time()
        current_poll = self.poll_interval
        while pending:
            progressed = False
            claimed = None
            failed = False
            if self.drain:
                try:
                    job = queue.claim(summary.worker)
                except OSError:
                    summary.io_errors += 1
                    job = None
                if job is not None:
                    executed_before = summary.executed
                    failed_before = summary.failed
                    process_one(queue, cache, job, summary)
                    if summary.executed > executed_before:
                        local_keys.add(job.key)
                    failed = summary.failed > failed_before
                    progressed = True
                    claimed = job
            try:
                reclaimed = queue.reclaim_expired()
            except OSError:
                summary.io_errors += 1
                reclaimed = 0
            if reclaimed:
                runner.telemetry.leases_reclaimed += reclaimed
                summary.reclaimed += reclaimed
            # After a local job, probe only that job's key (and its dead
            # letter if it failed); the full pending scan runs only when
            # the local drain claimed nothing, which keeps a sweep's probes
            # linear in its job count.
            if claimed is None:
                watched = list(pending)
            elif claimed.key in pending:
                watched = [claimed.key]
            else:
                watched = []
            for key in watched:
                stats = cache.load(key)
                if stats is not None:
                    if key not in local_keys:
                        runner.telemetry.remote_jobs += 1
                    runner._cache_store(key, stats, to_disk=False)
                    outcomes[key] = stats
                    del pending[key]
                    progressed = True
            if pending and not progressed:
                # A done marker whose result does not load means the entry
                # was lost *after* the publish-before-done step: a torn
                # write caught (and quarantined) by the integrity check,
                # or a `cache gc` eviction racing the wait.  Resubmitting
                # is the recovery: submit() treats the done marker as
                # stale, unlinks it and re-enqueues the job.
                for key in list(pending):
                    marker = (queue.state_dir("done")
                              / f"{job_ids[key]}.json")
                    if not marker.exists():
                        continue
                    job = pending[key]
                    try:
                        if queue.submit(make_payload(job),
                                        est_work=job.work):
                            progressed = True
                    except OSError:
                        summary.io_errors += 1
            if claimed is None or failed:
                # Watch only this run's own job ids (one existence probe
                # each), not the whole dead/ directory -- a long-lived
                # queue may carry dead letters from unrelated sweeps.
                dead = [d for d in (queue.find_dead(job_ids[key])
                                    for key in watched if key in pending)
                        if d is not None]
                if dead:
                    lines = []
                    for d in dead:
                        tail = (d.errors or ["unknown"])[-1].strip()
                        last = tail.splitlines()[-1] if tail else "unknown"
                        lines.append(f"  {d.key[:16]} after {d.attempts} "
                                     f"attempts: {last}")
                    raise RuntimeError(
                        f"{len(dead)} job(s) dead-lettered in {queue.root}"
                        + "\n" + "\n".join(lines))
            now = time.time()
            if progressed:
                last_progress = now
                current_poll = self.poll_interval
            elif pending:
                # The timeout is progress-based, not absolute: a healthy
                # fleet mid-way through long jobs keeps resetting it.
                if (self.timeout is not None
                        and now - last_progress > self.timeout):
                    raise TimeoutError(
                        f"distributed run made no progress for "
                        f"{self.timeout:g}s with {len(pending)} job(s) "
                        f"unresolved in {queue.root} (no live workers?)")
                # Adaptive idle poll: exponential backoff up to the cap,
                # reset on any progress, so a submit-and-wait against a
                # busy fleet does not spin at 2 Hz for hours.
                time.sleep(current_poll)
                current_poll = min(
                    current_poll * 2.0,
                    max(POLL_INTERVAL_CAP, self.poll_interval))
        if summary.jobs_done or summary.reclaimed or summary.failed:
            # Only drains that actually did something publish worker
            # stats; a pure submit-and-wait leaves no per-run debris.
            try:
                queue.record_worker(summary.worker, summary.to_dict())
            except OSError:
                pass
        return outcomes


def default_backend() -> Optional[str]:
    """Backend name from ``REPRO_BACKEND`` (None = unset)."""
    raw = os.environ.get(ENV_BACKEND, "").strip().lower()
    if not raw:
        return None
    if raw not in BACKEND_NAMES:
        raise runner.EnvVarError(ENV_BACKEND, raw,
                                 f"one of {', '.join(BACKEND_NAMES)}")
    return raw


def resolve_backend(backend: Union[str, ExecutionBackend, None],
                    jobs: int) -> ExecutionBackend:
    """Turn a backend spec into an instance.

    Precedence: an explicit instance or name wins; ``None`` falls back to
    ``REPRO_BACKEND``; with neither set, the local backend with ``jobs``
    workers runs the jobs.
    """
    if backend is None:
        backend = default_backend()
    if backend is None:
        return LocalBackend(jobs)
    if isinstance(backend, str):
        name = backend.strip().lower()
        if name == "local":
            return LocalBackend(jobs)
        if name == "distributed":
            return DistributedBackend(fallback_jobs=jobs)
        raise BackendError(
            f"unknown backend {backend!r} "
            f"(available: {', '.join(BACKEND_NAMES)})")
    return backend
