"""Bounded exponential retry with deterministic jitter for transient IO.

The queue and cache treat a small set of errnos as *transient* -- worth a
bounded number of retries with exponential backoff -- and everything else
(notably ENOENT, which is a protocol signal meaning "someone else won the
rename race") as immediately fatal to the operation.

The jitter is deterministic: instead of ``random()``, the backoff for
attempt *k* of operation *op* is scaled by a factor in [0.5, 1.0] derived
from ``sha256(f"{op}:{k}")``.  Two workers retrying *different* operations
desynchronise (the point of jitter) while the same program run twice
retries on the identical schedule (the point of this repo).

The policy is two module constants, :data:`RETRY_MAX` and
:data:`RETRY_BASE`, which :func:`with_retries` reads at call time, so a
test can monkeypatch them.
"""

from __future__ import annotations

import errno
import hashlib
import time
from typing import Callable, TypeVar

#: Retries after the first attempt; ``0`` disables retrying.
RETRY_MAX = 3

#: Base backoff in seconds: retry *k* waits ``RETRY_BASE * 2**k`` scaled
#: by the jitter factor.
RETRY_BASE = 0.05

#: Errnos retried as transient.  ENOENT is deliberately absent: in the
#: queue protocol a vanished file means another worker won the rename
#: race, and retrying would just re-lose it.
TRANSIENT_ERRNOS = frozenset({
    errno.EIO,
    errno.ENOSPC,
    errno.EAGAIN,
    errno.EINTR,
    errno.EBUSY,
    errno.ESTALE,
})

T = TypeVar("T")


def backoff_delay(op: str, attempt: int, base: float) -> float:
    """Deterministic-jitter exponential backoff for ``attempt`` (0-based)."""
    digest = hashlib.sha256(f"{op}:{attempt}".encode()).digest()
    jitter = 0.5 + 0.5 * digest[0] / 255.0
    return base * (2 ** attempt) * jitter


def is_transient(exc: OSError) -> bool:
    return exc.errno in TRANSIENT_ERRNOS


def with_retries(fn: Callable[[], T], *, op: str,
                 retry_max: int | None = None,
                 retry_base: float | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> T:
    """Run ``fn``, retrying transient OSErrors with bounded backoff.

    Non-transient OSErrors (and everything else, including
    ``SimulatedCrash``) propagate immediately.  After ``retry_max``
    retries (default :data:`RETRY_MAX`) the last transient error
    propagates.  Each retry increments ``RunTelemetry.io_retries``.
    """
    if retry_max is None:
        retry_max = RETRY_MAX
    if retry_base is None:
        retry_base = RETRY_BASE
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as exc:
            if not is_transient(exc) or attempt >= retry_max:
                raise
            from repro.experiments.runner import telemetry

            telemetry.io_retries += 1
            sleep(backoff_delay(op, attempt, retry_base))
            attempt += 1
