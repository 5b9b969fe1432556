"""Execution backends: where the experiment engine's jobs actually run.

:func:`repro.experiments.runner.run_suite` plans a list of (estimated-work,
job) pairs -- each job one deterministic, content-addressed simulation --
and hands the whole list to an :class:`ExecutionBackend`.  Three
implementations cover one process, one machine and one fleet:

* :class:`SerialBackend` -- run every job in-process, sharing one
  :class:`Program` instance per benchmark across slice jobs.
* :class:`PoolBackend` -- the ``multiprocessing`` pool: ``imap_unordered``
  over the longest-first job list so short jobs backfill stragglers.  This
  is the historical ``jobs > 1`` path, behavior-preserving.
* :class:`DistributedBackend` -- publish every job into the durable
  filesystem :class:`~repro.distrib.queue.JobQueue` and block until every
  result is resolvable from the shared
  :class:`~repro.experiments.cache.ResultCache`; any fleet of
  ``repro worker`` processes sharing the cache directory drains the queue.
  With ``drain=True`` (the default) the submitting process also works the
  queue between cache polls, so a distributed run completes even with no
  external workers -- they just make it faster.

Selection: ``run_suite(backend=...)`` accepts a backend instance or a name;
``None`` falls back to ``REPRO_BACKEND`` and finally to the classic
pool-or-serial choice implied by ``jobs``.

All backends return the same ``{cache key: SimStats}`` mapping and, because
simulation is deterministic, identical bits -- the backend-equivalence
tests pin that.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple, Union

from repro.core import SimStats
from repro.distrib.queue import JobQueue, job_id_for, worker_identity

BACKEND_NAMES = ("serial", "pool", "distributed")
ENV_BACKEND = "REPRO_BACKEND"

#: Ceiling for the distributed wait-loop's adaptive poll interval: idle
#: polls back off exponentially from ``poll_interval`` up to this, and
#: any progress (a claim, a resolved key) resets the backoff.
POLL_INTERVAL_CAP = 5.0

#: One plannable job, as built by ``run_suite``:
#: (key, benchmark, config, scale, use_cache, slice_spec, checkpoint).
Job = Tuple[str, str, object, float, bool, object, object]
#: (estimated work, job) -- the estimate orders execution longest-first.
SizedJob = Tuple[int, Job]


class BackendError(SystemExit):
    """A backend mis-configuration, reported as a one-line CLI error."""


class ExecutionBackend(Protocol):
    """Anything that can run a planned job list to completion."""

    name: str

    def execute(self, jobs_list: List[SizedJob],
                use_cache: bool) -> Dict[str, SimStats]:
        """Run every job and return ``{key: stats}`` for all of them."""
        ...


def _ordered(jobs_list: List[SizedJob]) -> List[Job]:
    return [job for _, job in
            sorted(jobs_list, key=lambda item: item[0], reverse=True)]


class SerialBackend:
    """Everything in this process, one job at a time."""

    name = "serial"

    def execute(self, jobs_list: List[SizedJob],
                use_cache: bool) -> Dict[str, SimStats]:
        from repro.experiments import runner, sharding
        from repro.workloads import build_workload

        outcomes: Dict[str, SimStats] = {}
        # One Program instance per benchmark: slice jobs of the same
        # benchmark (across every config) share it instead of regenerating.
        programs: Dict[Tuple[str, float], object] = {}
        for job in _ordered(jobs_list):
            key, benchmark, config, scale, _, slice_spec, checkpoint = job
            if slice_spec is None:
                stats = runner._simulate(benchmark, config, scale)
            else:
                program = programs.get((benchmark, scale))
                if program is None:
                    program = build_workload(benchmark, scale=scale)
                    programs[(benchmark, scale)] = program
                runner.telemetry.simulations += 1
                stats = runner._record_cycles(
                    sharding.simulate_slice(program, config, slice_spec,
                                            checkpoint, name=benchmark))
            if use_cache:
                runner._cache_store(key, stats)
            outcomes[key] = stats
        return outcomes


class PoolBackend:
    """A local ``multiprocessing`` pool of ``jobs`` worker processes."""

    name = "pool"

    def __init__(self, jobs: int):
        self.jobs = max(1, int(jobs))

    def execute(self, jobs_list: List[SizedJob],
                use_cache: bool) -> Dict[str, SimStats]:
        from repro.experiments import runner

        ordered = _ordered(jobs_list)
        if self.jobs <= 1 or len(ordered) <= 1:
            return SerialBackend().execute(jobs_list, use_cache)
        outcomes: Dict[str, SimStats] = {}
        ctx = runner._pool_context()
        with ctx.Pool(processes=min(self.jobs, len(ordered))) as pool:
            for key, simulated, stats in pool.imap_unordered(
                    runner._pool_worker, ordered):
                if simulated:
                    runner.telemetry.simulations += 1
                    runner._record_cycles(stats)
                else:
                    runner.telemetry.disk_hits += 1
                if use_cache:
                    # The worker already persisted to disk.
                    runner._cache_store(key, stats, to_disk=False)
                outcomes[key] = stats
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
    an in-process :class:`PoolBackend` of ``fallback_jobs`` workers with a
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
    def submit(self, jobs_list: List[SizedJob],
               use_cache: bool) -> Dict[str, Job]:
        """Enqueue every job (deduplicating); returns ``{key: job}``."""
        from repro.distrib.worker import make_payload
        from repro.experiments.cache import disk_cache_enabled

        if not use_cache or not disk_cache_enabled():
            raise BackendError(
                "the distributed backend requires the shared disk cache "
                "(it is the result plane); do not combine it with "
                "--no-cache / REPRO_DISK_CACHE=0")
        queue = self.queue()
        submitted: Dict[str, Job] = {}
        for est_work, job in sorted(jobs_list, key=lambda item: item[0],
                                    reverse=True):
            key, benchmark, config, scale, _, slice_spec, checkpoint = job
            queue.submit(
                make_payload(key, benchmark, config, scale,
                             slice_spec=slice_spec, checkpoint=checkpoint),
                est_work=est_work)
            submitted[key] = job
        return submitted

    def execute(self, jobs_list: List[SizedJob],
                use_cache: bool) -> Dict[str, SimStats]:
        from repro.distrib.worker import WorkerSummary, make_payload, process_one
        from repro.experiments import runner
        from repro.experiments.cache import ResultCache

        if not jobs_list:
            return {}
        try:
            pending = self.submit(jobs_list, use_cache)
        except OSError as exc:
            # Queue root unusable (permissions, dead mount, full disk):
            # degrade to an in-process pool rather than losing the sweep.
            print(f"repro: warning: queue root unusable ({exc}); "
                  f"falling back to the pool backend "
                  f"({self.fallback_jobs} jobs)", file=sys.stderr)
            return PoolBackend(self.fallback_jobs).execute(
                jobs_list, use_cache)
        job_ids = {key: job_id_for(key, est)
                   for est, (key, *_rest) in jobs_list}
        est_work = {key: est for est, (key, *_rest) in jobs_list}
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
                    _key, benchmark, config, scale, _uc, spec, ckpt = job
                    try:
                        if queue.submit(
                                make_payload(key, benchmark, config, scale,
                                             slice_spec=spec,
                                             checkpoint=ckpt),
                                est_work=est_work[key]):
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
    from repro.experiments.runner import EnvVarError

    raw = os.environ.get(ENV_BACKEND, "").strip().lower()
    if not raw:
        return None
    if raw not in BACKEND_NAMES:
        raise EnvVarError(ENV_BACKEND, raw,
                          f"one of {', '.join(BACKEND_NAMES)}")
    return raw


def resolve_backend(backend: Union[str, ExecutionBackend, None],
                    jobs: int) -> ExecutionBackend:
    """Turn a backend spec into an instance.

    Precedence: an explicit instance or name wins; ``None`` falls back to
    ``REPRO_BACKEND``; with neither set, the classic behavior-preserving
    choice applies -- a pool when ``jobs > 1``, else serial.
    """
    if backend is None:
        backend = default_backend()
    if backend is None:
        return PoolBackend(jobs) if jobs > 1 else SerialBackend()
    if isinstance(backend, str):
        name = backend.strip().lower()
        if name == "serial":
            return SerialBackend()
        if name == "pool":
            return PoolBackend(jobs)
        if name == "distributed":
            return DistributedBackend(fallback_jobs=jobs)
        raise BackendError(
            f"unknown backend {backend!r} "
            f"(available: {', '.join(BACKEND_NAMES)})")
    return backend
