"""Deterministic fault injection and hardened failure semantics.

Three layers, bottom up:

* :mod:`repro.reliability.faults` -- the seeded :class:`FaultPlan`
  parsed from ``REPRO_FAULTS``, :class:`SimulatedCrash`, and the named
  :data:`CRASH_POINTS` the worker protocol declares.
* :mod:`repro.reliability.fs` -- filesystem wrappers (rename, write,
  read, unlink, fsync) the cache/queue/worker stack routes through,
  zero-overhead when no plan is installed.
* :mod:`repro.reliability.retry` -- bounded exponential retry with
  deterministic jitter for transient IO, and
  :mod:`repro.reliability.supervisor` -- the ``repro fleet``
  restart-on-crash supervisor.
"""

from repro.reliability.faults import (
    CRASH_POINTS,
    ENV_FAULTS,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    SimulatedCrash,
    active_plan,
    crashpoint,
    install_plan,
    plan_from_env,
    reset_plan,
)
from repro.reliability.retry import (
    TRANSIENT_ERRNOS,
    backoff_delay,
    with_retries,
)
from repro.reliability.supervisor import (
    FleetSummary,
    FleetSupervisor,
    WorkerHandle,
)

__all__ = [
    "CRASH_POINTS",
    "ENV_FAULTS",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "FleetSummary",
    "FleetSupervisor",
    "SimulatedCrash",
    "TRANSIENT_ERRNOS",
    "WorkerHandle",
    "active_plan",
    "backoff_delay",
    "crashpoint",
    "install_plan",
    "plan_from_env",
    "reset_plan",
    "with_retries",
]
