"""A durable, filesystem-backed job queue for cooperating worker fleets.

The queue is a directory tree (by default ``<cache root>/queue``, i.e. next
to the content-addressed result cache the workers publish into) that any
number of worker processes may share -- on one machine or across machines
over a network filesystem.  Every transition is a single atomic
``os.rename`` on one JSON file, so the protocol needs no locks, no server
and no database:

.. code-block:: text

    <queue root>/
        pending/<job-id>.json    submitted, unclaimed work
        claimed/<job-id>.json    work owned by exactly one live worker
        leases/<job-id>.json     the owner's lease: worker id + heartbeat
        done/<job-id>.json       terminal: result published to the cache
        dead/<job-id>.json       terminal: failed max_attempts times
        workers/<worker>.json    per-worker throughput stats and rate
                                 samples (status only)

*Claiming* is ``rename(pending/X, claimed/X)``: the filesystem guarantees
exactly one of N concurrent claimers wins (the rest see ``FileNotFoundError``
and move on), which is the whole mutual-exclusion story.  The winner then
writes a *lease* recording its identity and heartbeat time, and re-writes it
periodically while it works.

*Reclamation* makes the queue crash-safe: any worker (or the submitter) may
scan ``claimed/`` for jobs whose lease is missing or whose heartbeat is
older than the lease TTL, and atomically steal them back via a rename
through a privately-named temp file.  A reclaim counts as a failed attempt,
so a poison job that keeps killing workers ends up in ``dead/`` (the
dead-letter state, with its failure history) instead of looping forever.

Because results are published to the content-addressed cache *before* the
``claimed -> done`` transition, the queue never needs to move data: losing
the done-rename race (the job was reclaimed and finished elsewhere) is
harmless -- both executions produced identical bits under the same key.

Job IDs embed a zero-padded descending-work prefix so a sorted directory
listing yields jobs longest-first, preserving the pool backend's
backfill-the-stragglers scheduling across the fleet.

Clocks: lease expiry compares worker wall clocks through file contents, so
fleets spanning machines need clocks synchronised to well within the lease
TTL (the 60 s default tolerates ordinary NTP drift).
"""

from __future__ import annotations

import errno
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.experiments.cache import cache_dir
from repro.reliability import fs
from repro.reliability.faults import crashpoint
from repro.reliability.retry import with_retries

#: Seconds a claimed job may go without a heartbeat before any other
#: process may reclaim it.  Heartbeats run at a fraction of this, so only a
#: genuinely dead (or badly wedged) worker ever loses a lease.
DEFAULT_LEASE_TTL = 60.0

#: Attempts (initial execution + retries, including crash reclaims) before
#: a job is dead-lettered.
DEFAULT_MAX_ATTEMPTS = 3

#: ``(t, jobs_done)`` samples a worker's stats file keeps, one per
#: :meth:`JobQueue.record_worker`; ``repro status`` measures each
#: worker's window rate over them.
RATE_WINDOW = 8

_STATES = ("pending", "claimed", "done", "dead")


class LeaseLostError(Exception):
    """This worker's lease on a job now belongs to someone else.

    Raised by :meth:`JobQueue.heartbeat` when the lease file names a
    different worker: the job was reclaimed (lease expiry) and re-claimed
    while this worker ran it.  The fencing contract is that the original
    worker must treat the job as lost -- no publish, no done-rename, no
    lease writes -- and let the new owner finish it.
    """


def worker_identity() -> str:
    """A fleet-unique worker id: host, pid and a random suffix."""
    host = socket.gethostname().split(".")[0] or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _as_float(value: object, default: float) -> float:
    """Defensive float parse: corrupt lease/job fields degrade, not crash."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def _as_int(value: object, default: int) -> int:
    """Defensive int parse (see :func:`_as_float`)."""
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def job_id_for(key: str, est_work: int) -> str:
    """Derive the job's filename stem from its cache key and size.

    The id starts with a zero-padded *descending* work prefix so that the
    sorted ``pending/`` listing enumerates jobs longest-first, and ends
    with the (unique) content-address so resubmitting a sweep while jobs
    are still in flight deduplicates instead of duplicating work.
    """
    inverse = max(0, 10 ** 12 - 1 - int(est_work))
    return f"{inverse:012d}-{key}"


def key_of_job_id(job_id: str) -> str:
    """Recover the cache key from a job id (inverse of :func:`job_id_for`).

    Needed when the job *file* is unreadable (corruption) but the identity
    must survive into the dead-letter record so blocking submitters can
    still match it against their pending keys.
    """
    _, _, key = job_id.partition("-")
    return key


@dataclass
class ClaimedJob:
    """A job this process owns: the payload plus lease bookkeeping."""

    job_id: str
    payload: Dict[str, Any]
    worker: str
    path: Path                     # claimed/<job-id>.json
    lease_path: Path

    @property
    def key(self) -> str:
        return self.payload.get("key", "")


@dataclass
class DeadJob:
    """One dead-lettered job, for status output and submit-side errors."""

    job_id: str
    key: str
    attempts: int
    errors: List[str] = field(default_factory=list)


@dataclass
class QueueStatus:
    """A point-in-time snapshot for ``repro status``."""

    root: str
    pending: int
    claimed: int
    done: int
    dead: int
    #: (worker id, lease age in seconds, job id) per live claim.
    leases: List[Tuple[str, float, str]] = field(default_factory=list)
    #: worker id -> stats dict from ``workers/<id>.json``.
    workers: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """Jobs not yet in a terminal state."""
        return self.pending + self.claimed


class JobQueue:
    """One queue directory; every method is safe under fleet concurrency.

    The root defaults to ``<cache root>/queue``: pointing a fleet at one
    ``REPRO_CACHE_DIR`` gives the workers both the queue and the result
    namespaces with a single knob.
    """

    def __init__(self, root: Optional[Path] = None,
                 lease_ttl: Optional[float] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self.root = Path(root) if root is not None else cache_dir() / "queue"
        self.lease_ttl = (DEFAULT_LEASE_TTL if lease_ttl is None
                          else float(lease_ttl))
        self.max_attempts = max(1, int(max_attempts))

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    def state_dir(self, state: str) -> Path:
        return self.root / state

    def _lease_path(self, job_id: str) -> Path:
        return self.root / "leases" / f"{job_id}.json"

    def _ensure_layout(self) -> None:
        for state in _STATES + ("leases", "workers", "tmp"):
            (self.root / state).mkdir(parents=True, exist_ok=True)

    def _list(self, state: str) -> List[Path]:
        try:
            names = sorted(os.listdir(self.state_dir(state)))
        except OSError:
            return []
        return [self.state_dir(state) / name for name in names
                if name.endswith(".json")]

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(path.read_bytes().decode("utf-8"))
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _write_json(self, path: Path, payload: Dict[str, Any],
                    category: str = "queue") -> None:
        """Atomic write via a privately-named temp file in ``tmp/``.

        Routed through the fault-injection layer under ``category`` and
        retried (bounded, deterministic jitter) on transient errnos; a
        fault that survives the retries propagates as ``OSError``.
        """
        tmp = self.root / "tmp" / f"{uuid.uuid4().hex}.tmp"
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        durable = category == "queue"
        try:
            with_retries(
                lambda: fs.write_bytes(tmp, data, category, durable=durable),
                op=f"queue-write:{path.name}")
            with_retries(lambda: fs.replace(tmp, path, category),
                         op=f"queue-publish:{path.name}")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------
    def submit(self, payload: Dict[str, Any], est_work: int = 0) -> bool:
        """Enqueue one job; returns False if it is already in flight.

        ``payload`` must carry the content-address under ``"key"``; the
        job id is derived from it, so resubmitting the same sweep while an
        earlier submission is still draining (pending/claimed) or after it
        poisoned the queue (dead) is a no-op per job.  A *done* marker,
        however, does not block: submitters only emit a job after probing
        the result cache, so reaching submit() with a done marker present
        means the cached result has since been evicted (``cache gc``) --
        the marker is stale and the job must run again.
        """
        self._ensure_layout()
        job_id = job_id_for(payload["key"], est_work)
        for state in ("pending", "claimed", "dead"):
            if (self.state_dir(state) / f"{job_id}.json").exists():
                return False
        done_marker = self.state_dir("done") / f"{job_id}.json"
        if done_marker.exists():
            try:
                os.unlink(done_marker)
            except OSError:
                pass
        body = dict(payload)
        body.setdefault("attempts", 0)
        body.setdefault("max_attempts", self.max_attempts)
        body.setdefault("submitted_at", time.time())
        body.setdefault("errors", [])
        self._write_json(self.state_dir("pending") / f"{job_id}.json", body)
        return True

    # ------------------------------------------------------------------
    # claim / lease / heartbeat
    # ------------------------------------------------------------------
    def claim(self, worker: str) -> Optional[ClaimedJob]:
        """Atomically take one pending job (longest first), or None.

        The rename *is* the lock: of N concurrent claimers of one file,
        the filesystem lets exactly one rename succeed.  The lease is
        written immediately after, so there is a tiny window in which a
        claimed job has no lease yet; :meth:`reclaim_expired` therefore
        treats lease-less claims as expired only once they are older than
        the TTL (by claimed-file mtime), never instantly.
        """
        self._ensure_layout()
        for path in self._list("pending"):
            job_id = path.stem
            dest = self.state_dir("claimed") / path.name
            try:
                fs.rename(path, dest, "queue")
            except OSError as exc:
                if exc.errno in (errno.ENOENT, errno.EPERM, errno.EACCES):
                    continue           # another claimer won this file
                raise
            # The worst-case crash window: the claim rename has landed but
            # no lease exists yet, so only the claimed file's mtime
            # protects the job until reclamation kicks in after a TTL.
            crashpoint("after-claim")
            payload = self._read_json(dest)
            if payload is None:
                # Corrupt job file: dead-letter it rather than crash-loop.
                # The key is recovered from the filename so a blocking
                # submitter's dead-letter check still matches it.
                self._write_json(self.state_dir("dead") / path.name,
                                 {"key": key_of_job_id(job_id),
                                  "attempts": 0,
                                  "errors": ["unreadable job file"]})
                try:
                    os.unlink(dest)
                except OSError:
                    pass
                continue
            claimed = ClaimedJob(job_id=job_id, payload=payload,
                                 worker=worker, path=dest,
                                 lease_path=self._lease_path(job_id))
            try:
                self.heartbeat(claimed, force=True)
            except OSError:
                # Transient FS error writing the lease: the claim itself
                # already succeeded (we own claimed/<id>.json), and until a
                # heartbeat lands the claimed file's mtime protects the job
                # from reclamation for a full TTL.
                pass
            return claimed
        return None

    def heartbeat(self, job: ClaimedJob, force: bool = False) -> None:
        """Refresh the lease; called periodically while the job runs.

        Unless ``force`` (the initial write right after the claim rename,
        when ownership is unambiguous), the current lease is read first
        and a lease naming a *different* worker raises
        :class:`LeaseLostError` instead of being overwritten: a worker
        that slept through its TTL must never steal the lease back from
        whoever legitimately reclaimed and re-claimed the job.
        """
        if not force:
            lease = self._read_json(job.lease_path)
            if lease is not None and str(lease.get("worker", "")) != job.worker:
                raise LeaseLostError(
                    f"lease for {job.job_id} now held by "
                    f"{lease.get('worker')!r} (was {job.worker!r})")
            if lease is None and not job.path.exists():
                # Reclaimed and not yet re-claimed: the claimed file moved
                # away and the lease is gone.  Writing a fresh lease here
                # would fence *the next* legitimate claimer out.
                raise LeaseLostError(
                    f"job {job.job_id} no longer claimed by anyone")
        self._write_json(job.lease_path, {
            "worker": job.worker,
            "job_id": job.job_id,
            "heartbeat_at": time.time(),
            "ttl": self.lease_ttl,
        }, category="lease")

    def owns(self, job: ClaimedJob) -> bool:
        """Re-verify ownership without touching anything (fencing probe)."""
        lease = self._read_json(job.lease_path)
        if lease is not None:
            return str(lease.get("worker", "")) == job.worker
        # No lease: owner iff the claimed file is still in place (the
        # claim->lease window, or a lost lease write).
        return job.path.exists()

    def _drop_lease(self, job_id: str) -> None:
        try:
            fs.unlink(self._lease_path(job_id), "lease", missing_ok=True)
        except OSError:
            pass

    def _drop_lease_if_owned(self, job: ClaimedJob) -> None:
        """Drop the lease only if it is still ours: after losing a rename
        race the lease file may already belong to the new claimant, and
        unlinking it would expose *their* claim to instant reclamation."""
        lease = self._read_json(job.lease_path)
        if lease is None or str(lease.get("worker", "")) == job.worker:
            self._drop_lease(job.job_id)

    # ------------------------------------------------------------------
    # completion / failure / reclamation
    # ------------------------------------------------------------------
    def complete(self, job: ClaimedJob) -> bool:
        """Transition ``claimed -> done``.

        Returns False when the job was reclaimed while this worker ran it.
        That is not an error: the result was already published to the
        content-addressed cache, and whichever process re-ran the job
        produced identical bits under the same key.

        Fenced: the lease is re-read first, and a lease held by another
        worker means this worker lost the job -- it must not rename the
        claimed file (which, after a reclaim *and* re-claim, is the new
        owner's file under the same name) and must not touch the lease.
        """
        lease = self._read_json(job.lease_path)
        if lease is not None and str(lease.get("worker", "")) != job.worker:
            return False
        done = self.state_dir("done") / job.path.name
        try:
            fs.rename(job.path, done, "queue")
        except OSError:
            self._drop_lease_if_owned(job)
            return False
        self._drop_lease(job.job_id)
        return True

    def fail(self, job: ClaimedJob, error: str) -> str:
        """Record a failed attempt; returns the new state.

        Below the attempt bound the job is re-queued (``"pending"``);
        at the bound it is dead-lettered (``"dead"``) with its error
        history, where ``repro status`` and the blocking submitter can see
        it.  If the job was reclaimed while running, the owner lost the
        file and the failure is moot (``"lost"``) -- fenced exactly like
        :meth:`complete`.
        """
        lease = self._read_json(job.lease_path)
        if lease is not None and str(lease.get("worker", "")) != job.worker:
            return "lost"
        return self._retire(job.path, job.payload, error,
                            job_id=job.job_id)

    def _retire(self, owned_path: Path, payload: Dict[str, Any],
                error: str, job_id: str) -> str:
        """Move an exclusively-owned job file to pending or dead."""
        body = dict(payload)
        body["attempts"] = _as_int(body.get("attempts", 0), 0) + 1
        errors = list(body.get("errors", []))
        errors.append(error[:500])
        body["errors"] = errors[-10:]
        state = ("dead" if body["attempts"] >=
                 _as_int(body.get("max_attempts", self.max_attempts),
                         self.max_attempts)
                 else "pending")
        tmp = self.root / "tmp" / f"{uuid.uuid4().hex}.retire.tmp"
        try:
            fs.rename(owned_path, tmp, "queue")
        except OSError:
            self._drop_lease(job_id)
            return "lost"
        try:
            self._write_json(self.state_dir(state) / owned_path.name, body)
        except OSError:
            # The requeue write failed even after retries.  Undo the
            # rename (raw os.rename: the recovery path must not route
            # back through fault injection) so the job survives as
            # claimed -- a later reclaim pass will retry the retire --
            # rather than vanishing into tmp/.
            try:
                os.rename(tmp, owned_path)
            except OSError:
                pass
            raise
        try:
            os.unlink(tmp)
        except OSError:
            pass
        self._drop_lease(job_id)
        return state

    def reclaim_expired(self, now: Optional[float] = None) -> int:
        """Steal back claimed jobs whose lease expired; returns the count.

        Any process may call this (workers do on every idle poll, the
        blocking submitter between cache polls).  The exclusive step is
        again a rename -- ``claimed/X -> tmp/<private>`` -- so N concurrent
        reclaimers of one expired job cannot double-requeue it.  Each
        reclaim counts as a failed attempt, which is what bounds a
        worker-killing poison job.
        """
        self._ensure_layout()
        now = time.time() if now is None else now
        reclaimed = 0
        for path in self._list("claimed"):
            job_id = path.stem
            lease = self._read_json(self._lease_path(job_id))
            if lease is not None:
                age = now - _as_float(lease.get("heartbeat_at", 0.0), 0.0)
                if age <= _as_float(lease.get("ttl", self.lease_ttl),
                                    self.lease_ttl):
                    continue
                holder = str(lease.get("worker", "unknown"))
            else:
                # No lease: either the claimer died in the claim->lease
                # window or the lease file was lost.  Use the claimed
                # file's age so a freshly claimed job is never stolen.
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age <= self.lease_ttl:
                    continue
                holder = "unknown"
            payload = self._read_json(path)
            if payload is None:
                continue
            state = self._retire(
                path, payload,
                f"lease expired after {age:.1f}s (held by {holder})",
                job_id=job_id)
            if state in ("pending", "dead"):
                reclaimed += 1
        return reclaimed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def iter_jobs(self, state: str) -> Iterator[Dict[str, Any]]:
        for path in self._list(state):
            payload = self._read_json(path)
            if payload is not None:
                payload = dict(payload)
                payload["job_id"] = path.stem
                yield payload

    def dead_jobs(self) -> List[DeadJob]:
        return [DeadJob(job_id=job["job_id"], key=job.get("key", ""),
                        attempts=_as_int(job.get("attempts", 0), 0),
                        errors=list(job.get("errors", [])))
                for job in self.iter_jobs("dead")]

    def find_dead(self, job_id: str) -> Optional[DeadJob]:
        """One dead letter by id -- a cheap existence probe plus one read,
        so waiters can watch their own jobs without re-parsing the whole
        ``dead/`` directory (which may carry history from other sweeps)."""
        path = self.state_dir("dead") / f"{job_id}.json"
        payload = self._read_json(path)
        if payload is None:
            return None
        return DeadJob(job_id=job_id,
                       key=payload.get("key", "") or key_of_job_id(job_id),
                       attempts=_as_int(payload.get("attempts", 0), 0),
                       errors=list(payload.get("errors", [])))

    def prune_terminal(self, max_age_seconds: float = 0.0,
                       now: Optional[float] = None) -> int:
        """Remove terminal records (done/dead markers, worker stats, stale
        queue temp files) older than ``max_age_seconds``.

        The safe long-lived-queue cleanup: live ``pending``/``claimed``
        work is never touched, so any submitter or operator may run it at
        any time (``repro status --prune``).  Returns how many files were
        removed.
        """
        now = time.time() if now is None else now
        removed = 0
        dirs = [self.state_dir("done"), self.state_dir("dead"),
                self.root / "workers", self.root / "tmp"]
        for directory in dirs:
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                path = directory / name
                try:
                    if now - path.stat().st_mtime < max_age_seconds:
                        continue
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def record_worker(self, worker: str, stats: Dict[str, Any]) -> None:
        """Publish one worker's throughput counters for ``repro status``.

        Each call also appends a ``[t, jobs_done]`` sample to the ones the
        previous call wrote, keeping the last :data:`RATE_WINDOW`.  The
        worker is the only writer of its own file, so the read-modify-
        write needs no lock; an unreadable previous file starts afresh.
        """
        self._ensure_layout()
        path = self.root / "workers" / f"{worker}.json"
        now = time.time()
        samples = (self._read_json(path) or {}).get("samples")
        if not isinstance(samples, list):
            samples = []
        done = (_as_int(stats.get("executed", 0), 0)
                + _as_int(stats.get("cache_hits", 0), 0))
        body = dict(stats)
        body["worker"] = worker
        body["updated_at"] = now
        body["samples"] = (samples + [[now, done]])[-RATE_WINDOW:]
        self._write_json(path, body, category="workers")

    def status(self, now: Optional[float] = None) -> QueueStatus:
        now = time.time() if now is None else now
        counts = {state: len(self._list(state)) for state in _STATES}
        leases: List[Tuple[str, float, str]] = []
        for path in self._list("claimed"):
            lease = self._read_json(self._lease_path(path.stem))
            if lease is None:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    age = 0.0
                leases.append(("(no lease)", age, path.stem))
            else:
                leases.append((str(lease.get("worker", "unknown")),
                               now - _as_float(lease.get("heartbeat_at",
                                                         now), now),
                               path.stem))
        workers: Dict[str, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.root / "workers"))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            stats = self._read_json(self.root / "workers" / name)
            if stats is not None:
                workers[stats.get("worker", name[:-5])] = stats
        return QueueStatus(root=str(self.root), pending=counts["pending"],
                           claimed=counts["claimed"], done=counts["done"],
                           dead=counts["dead"], leases=leases,
                           workers=workers)

    def purge(self, states: Tuple[str, ...] = _STATES) -> int:
        """Delete job files in the given states (``repro status --purge``).

        Also clears leases and worker stats when every state is purged.
        Returns how many job files were removed.
        """
        removed = 0
        for state in states:
            for path in self._list(state):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        if set(states) >= set(_STATES):
            for extra in ("leases", "workers", "tmp"):
                try:
                    names = os.listdir(self.root / extra)
                except OSError:
                    continue
                for name in names:
                    try:
                        os.unlink(self.root / extra / name)
                    except OSError:
                        pass
        return removed
