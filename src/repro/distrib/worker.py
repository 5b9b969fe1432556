"""The worker loop behind ``repro worker``, and the job payload format.

A *job payload* is a :class:`~repro.experiments.runner.SimJob` as
self-contained JSON: benchmark name, workload scale, the full canonical
:class:`~repro.core.MachineConfig` dict (which carries the variant), the
estimated work, and -- for sharded work units -- the slice geometry plus
the architectural checkpoint to resume from and the warm cache and
predictor state to restore.  :func:`make_payload` and
:func:`job_from_payload` are the only conversions.  Self-containment is
the point: a worker needs nothing but the payload and the shared cache
directory; it never re-plans checkpoints or talks to the submitter.

Execution is idempotent by construction.  The payload carries the result's
content address (the same ``result_key``/``slice_key`` the in-process
engine uses), the worker probes the shared
:class:`~repro.experiments.cache.ResultCache` under that key before
simulating, and publishes its result there before marking the job done --
so duplicated execution (a reclaimed-then-finished job, a resubmitted
sweep) costs at most wasted CPU, never wrong or double-counted results.

The loop heartbeats its lease from a daemon thread while the (long,
synchronous) simulation call runs, reclaims expired leases of crashed
peers on every idle poll, and after every job rewrites its
``workers/<id>.json`` for ``repro status``: the counters of its
:class:`WorkerSummary` plus the recent ``(t, jobs_done)`` samples the
dashboard's window rate is measured over (see
:meth:`~repro.distrib.queue.JobQueue.record_worker`).

Fencing: the heartbeat thread tracks its own health (consecutive write
failures, a lease observed to belong to someone else), and a worker whose
lease has been silent for half the TTL re-verifies ownership before
publishing.  A worker that lost its lease treats the job as *fenced* --
no publish, no done-rename -- so a reclaimed job can never be
double-finished by its original, slept-through-the-TTL owner.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core import MachineConfig, SimStats
from repro.distrib.queue import (
    ClaimedJob,
    JobQueue,
    LeaseLostError,
    worker_identity,
)
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimJob, run_job, telemetry
from repro.experiments.sharding import SliceSpec, program_for
from repro.experiments.warming import WarmState
from repro.functional.emulator import Checkpoint
from repro.reliability.faults import SimulatedCrash, crashpoint
# Unused here: perfbench's span instrumentation wraps
# ``worker.build_workload`` by name.
from repro.workloads import build_workload  # noqa: F401

#: Fraction of the lease TTL between heartbeats while a job runs.
HEARTBEAT_FRACTION = 0.25

# ----------------------------------------------------------------------
# job payloads
# ----------------------------------------------------------------------
def make_payload(job: SimJob) -> Dict[str, Any]:
    """Serialize one job into a self-contained JSON payload."""
    payload: Dict[str, Any] = {
        "key": job.key,
        "benchmark": job.benchmark,
        "scale": float(job.scale),
        "config": job.config.to_dict(),
        "work": job.work,
    }
    if job.slice_spec is not None:
        payload["slice"] = job.slice_spec.to_dict()
        payload["slice"]["checkpoint"] = (job.checkpoint.to_dict()
                                          if job.checkpoint else None)
        payload["slice"]["warm"] = job.warm.to_dict() if job.warm else None
    return payload


def job_from_payload(payload: Dict[str, Any]) -> SimJob:
    """The job a payload describes (the inverse of :func:`make_payload`)."""
    sliced = payload.get("slice")
    spec = SliceSpec.from_dict(sliced) if sliced else None
    checkpoint = (Checkpoint.from_dict(sliced["checkpoint"])
                  if sliced and sliced.get("checkpoint") else None)
    warm = (WarmState.from_dict(sliced["warm"])
            if sliced and sliced.get("warm") else None)
    return SimJob(key=payload["key"], benchmark=payload["benchmark"],
                  config=MachineConfig.from_dict(payload["config"]),
                  scale=float(payload["scale"]), work=int(payload["work"]),
                  slice_spec=spec, checkpoint=checkpoint, warm=warm)


def execute_payload(payload: Dict[str, Any]) -> SimStats:
    """Run the simulation a payload describes (no cache interaction)."""
    job = job_from_payload(payload)
    return run_job(job, program_for(job.benchmark, job.scale))


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
@dataclass
class WorkerSummary:
    """What one :func:`run_worker` invocation did."""

    worker: str = ""
    executed: int = 0        # jobs simulated by this worker
    cache_hits: int = 0      # jobs resolved from the shared cache instead
    failed: int = 0          # failed attempts recorded (retried or dead)
    reclaimed: int = 0       # expired leases this worker reclaimed
    lost: int = 0            # completions that lost the done-rename race
    fenced: int = 0          # jobs abandoned after losing the lease
    io_errors: int = 0       # queue IO errors survived by the drain loop
    started_at: float = field(default_factory=time.time)

    @property
    def jobs_done(self) -> int:
        return self.executed + self.cache_hits

    def to_dict(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed": self.failed,
            "reclaimed": self.reclaimed,
            "lost": self.lost,
            "fenced": self.fenced,
            "io_errors": self.io_errors,
            "started_at": self.started_at,
        }

    def exit_line(self) -> str:
        """The drain loop's closing log line."""
        return (f"worker {self.worker} exiting: {self.executed} executed, "
                f"{self.cache_hits} cache hits, {self.failed} failed, "
                f"{self.reclaimed} leases reclaimed")


class _HeartbeatThread:
    """Daemon thread refreshing one job's lease while it executes.

    Tracks its own health instead of swallowing errors forever:

    * a transient ``OSError`` bumps ``failures`` and retries next beat;
    * :class:`LeaseLostError` (the lease now names another worker) sets
      ``lost`` and stops beating -- the job is no longer ours;
    * :attr:`suspect` turns true once the lease has gone unrefreshed for
      half the TTL, telling the worker to re-verify ownership with
      :meth:`JobQueue.owns` before it publishes anything.
    """

    def __init__(self, queue: JobQueue, job: ClaimedJob,
                 clock: Callable[[], float] = time.monotonic):
        self._queue = queue
        self._job = job
        self._stop = threading.Event()
        self._clock = clock
        self._last_ok = clock()
        self.failures = 0          # consecutive failed beats
        self.lost = False          # lease observed to belong to someone else
        interval = max(0.05, queue.lease_ttl * HEARTBEAT_FRACTION)
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True)

    @property
    def suspect(self) -> bool:
        """The lease may have expired under us; re-verify before publish."""
        if self.lost:
            return True
        return (self._clock() - self._last_ok) >= self._queue.lease_ttl / 2.0

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                crashpoint("mid-heartbeat")
                self._queue.heartbeat(self._job)
            except LeaseLostError:
                self.lost = True
                return
            except OSError:
                self.failures += 1
                continue
            except SimulatedCrash:
                # An injected crash in the beater cannot unwind the main
                # thread; going permanently silent has the same observable
                # effect -- the lease stops refreshing and expires.
                return
            self.failures = 0
            self._last_ok = self._clock()

    def __enter__(self) -> "_HeartbeatThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def process_one(queue: JobQueue, cache: ResultCache, job: ClaimedJob,
                summary: WorkerSummary) -> None:
    """Execute one claimed job end to end (shared with the inline drain).

    Publishes the result to the shared cache *before* the ``done``
    transition; a failure (simulation error, unreadable payload) is
    recorded via :meth:`JobQueue.fail`, which retries or dead-letters.

    Fencing: if the heartbeat lost the lease -- or went silent long
    enough that it *might* have -- ownership is re-verified before the
    publish, and a fenced worker walks away without touching the cache
    entry, the claimed file or the lease.  A publish that still fails
    after retries is recorded as a failed attempt rather than marked
    done: a done marker whose result never reached the cache would hang
    the blocking submitter forever.
    """
    fenced = False
    with _HeartbeatThread(queue, job) as beater:
        try:
            stats = cache.load(job.key) if job.key else None
            if stats is not None:
                summary.cache_hits += 1
            else:
                stats = execute_payload(job.payload)
                summary.executed += 1
                if beater.lost or (beater.suspect and not queue.owns(job)):
                    fenced = True
                else:
                    crashpoint("before-publish")
                    if job.key and not cache.store(job.key, stats):
                        summary.failed += 1
                        queue.fail(job, "cache publish failed after retries")
                        return
                    crashpoint("after-publish-before-done")
        except SimulatedCrash:
            raise
        except Exception:
            summary.failed += 1
            queue.fail(job, traceback.format_exc(limit=8))
            return
    if fenced:
        summary.fenced += 1
        telemetry.fenced += 1
        return
    if not queue.complete(job):
        summary.lost += 1


def run_worker(queue: Optional[JobQueue] = None,
               cache: Optional[ResultCache] = None,
               worker_id: Optional[str] = None,
               max_jobs: Optional[int] = None,
               idle_timeout: Optional[float] = None,
               poll_interval: float = 0.2,
               log: Optional[Callable[[str], None]] = None,
               stop: Optional[threading.Event] = None) -> WorkerSummary:
    """Drain jobs from ``queue`` until told (or timed) out.

    ``max_jobs`` bounds how many jobs this worker takes (None = no bound);
    ``idle_timeout`` exits after that many seconds without claimable work
    (None = wait forever, the long-lived fleet mode); ``stop`` requests a
    graceful drain between jobs (the ``repro fleet`` SIGTERM path).
    Expired peers' leases are reclaimed on every idle poll, and transient
    queue IO errors back the loop off instead of killing the worker.
    Returns the summary that is also published to ``workers/<id>.json``
    for ``repro status``.
    """
    queue = queue if queue is not None else JobQueue()
    cache = cache if cache is not None else ResultCache()
    summary = WorkerSummary(worker=worker_id or worker_identity())
    idle_since: Optional[float] = None
    emit = log or (lambda message: None)
    emit(f"worker {summary.worker} draining {queue.root}")
    try:
        while max_jobs is None or summary.jobs_done < max_jobs:
            if stop is not None and stop.is_set():
                emit(f"worker {summary.worker} stop requested; draining out")
                break
            try:
                summary.reclaimed += queue.reclaim_expired()
                job = queue.claim(summary.worker)
            except OSError as exc:
                summary.io_errors += 1
                emit(f"  queue IO error ({exc}); backing off")
                time.sleep(poll_interval)
                continue
            if job is None:
                now = time.time()
                if idle_since is None:
                    idle_since = now
                if (idle_timeout is not None
                        and now - idle_since >= idle_timeout):
                    break
                time.sleep(poll_interval)
                continue
            idle_since = None
            emit(f"  job {job.key[:16]} "
                 f"({job.payload.get('benchmark', '?')})")
            process_one(queue, cache, job, summary)
            try:
                queue.record_worker(summary.worker, summary.to_dict())
            except OSError:
                pass                    # stats are advisory, never fatal
    except KeyboardInterrupt:
        emit(f"worker {summary.worker} interrupted")
    try:
        queue.record_worker(summary.worker, summary.to_dict())
    except OSError:
        pass
    emit(summary.exit_line())
    return summary
