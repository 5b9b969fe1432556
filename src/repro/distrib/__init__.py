"""Distributed execution: a worker-fleet job queue over the shared cache.

The experiment engine's unit of work -- one (benchmark, config-fingerprint,
variant, slice) simulation -- is deterministic and content-addressed, which
makes a fleet of cooperating workers almost trivial: any number of
processes, on one machine or many sharing a cache directory over a network
filesystem, can drain a durable job queue and publish results straight into
the existing :class:`~repro.experiments.cache.ResultCache` namespaces.
Re-execution is always safe (identical bits under the same key), so the
queue only has to guarantee *liveness*: no job is lost when a worker dies,
and no job is claimed twice while a claim is live.

* :mod:`repro.distrib.queue`   -- the durable filesystem job queue: atomic-
  rename claiming, lease files with heartbeats, expiry-based reclamation of
  crashed workers' jobs, bounded retry with a dead-letter state.
* :mod:`repro.distrib.backend` -- the :class:`ExecutionBackend` protocol and
  its two implementations (``local``, ``distributed``), which
  :func:`repro.experiments.runner.run_suite` routes every job through.
* :mod:`repro.distrib.worker`  -- the worker loop behind ``repro worker``
  plus the job payload format: :func:`make_payload` and
  :func:`job_from_payload` convert a
  :class:`~repro.experiments.runner.SimJob` to JSON and back.

CLI entry points: ``repro submit`` enqueues a sweep (and can block until
the merged stats are resolvable from cache), ``repro worker`` runs one
drain loop, ``repro status`` snapshots queue depth, lease ages and
per-worker throughput.
"""

from repro.distrib.backend import (
    DistributedBackend,
    ExecutionBackend,
    LocalBackend,
    default_backend,
    resolve_backend,
)
from repro.distrib.queue import (
    DEFAULT_LEASE_TTL,
    DeadJob,
    JobQueue,
    LeaseLostError,
    QueueStatus,
    default_queue_dir,
)
from repro.distrib.worker import WorkerSummary, execute_payload, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DeadJob",
    "DistributedBackend",
    "ExecutionBackend",
    "JobQueue",
    "LeaseLostError",
    "LocalBackend",
    "QueueStatus",
    "WorkerSummary",
    "default_backend",
    "default_queue_dir",
    "execute_payload",
    "resolve_backend",
    "run_worker",
]
