"""The fleet dashboard behind ``repro status`` (and ``--watch``).

:func:`render_status` turns one :meth:`~repro.distrib.queue.JobQueue.
status` observation into the operator text: queue depth, lease ages,
per-worker throughput -- lifetime jobs/min *and* a window rate over the
``(t, jobs_done)`` samples the worker's stats file keeps (see
:meth:`~repro.distrib.queue.JobQueue.record_worker`) -- the fleet-wide
cache hit rate, and the dead-letter tail.  ``repro status`` prints it
once; ``repro status --watch`` redraws it every ``--interval`` seconds
via :func:`watch`.

The window rate runs from the oldest sample to the moment of rendering,
so it falls while a worker is idle or wedged in a job: a worker records
a sample only after a job and when it exits.

Rendering is read-only and defensive: a corrupt stats file, or one with
no samples, degrades its line, never tracebacks the CLI.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

#: ANSI clear-screen + cursor-home, prefixed to every ``--watch`` redraw.
_CLEAR = "\x1b[2J\x1b[H"


def _num(value: object, cast, default):
    """Defensive numeric conversion for operator-facing output."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        return default


def sliding_rate(samples: Iterable[Sequence[float]],
                 now: float) -> Optional[float]:
    """Per-minute rate over ``(t, count)`` samples, oldest first, from
    the oldest of them to ``now`` (None when fewer than two usable samples
    exist or no time has passed).  The samples are the last
    :data:`~repro.distrib.queue.RATE_WINDOW` a worker recorded.

    The sliding-window companion to the lifetime jobs/min rate: a worker
    that was fast an hour ago but is wedged now shows a sagging window
    rate long before the lifetime average notices.
    """
    usable = []
    for sample in samples:
        try:
            t, count = sample
            usable.append((float(t), float(count)))
        except (TypeError, ValueError):
            continue
    if len(usable) < 2 or now <= usable[0][0]:
        return None
    return 60.0 * (usable[-1][1] - usable[0][1]) / (now - usable[0][0])


def render_status(queue, now: Optional[float] = None) -> str:
    """One observation of the queue as the operator dashboard text."""
    now = time.time() if now is None else now
    status = queue.status(now=now)
    lines: List[str] = [f"queue:    {status.root}"]
    if not queue.root.is_dir():
        lines.append("(queue directory does not exist yet: "
                     "nothing submitted)")
    lines.append(f"pending:  {status.pending}")
    lines.append(f"claimed:  {status.claimed}")
    lines.append(f"done:     {status.done}")
    lines.append(f"dead:     {status.dead}")

    executed = cache_hits = 0
    for stats in status.workers.values():
        executed += _num(stats.get("executed", 0), int, 0)
        cache_hits += _num(stats.get("cache_hits", 0), int, 0)
    if executed or cache_hits:
        rate = cache_hits / (executed + cache_hits)
        lines.append(f"cache:    {cache_hits}/{executed + cache_hits} "
                     f"worker job(s) from cache ({rate:.0%} hit rate)")

    if status.leases:
        lines.append("leases:")
        for worker, age, job_id in status.leases:
            lines.append(f"  {worker:<28} age {age:6.1f}s  {job_id[-16:]}")
    if status.workers:
        lines.append("workers:")
        for name, stats in sorted(status.workers.items()):
            done = (_num(stats.get("executed", 0), int, 0)
                    + _num(stats.get("cache_hits", 0), int, 0))
            started = _num(stats.get("started_at", now), float, now)
            lifetime = 60.0 * done / max(1e-9, now - started)
            samples = stats.get("samples")
            windowed = sliding_rate(
                samples if isinstance(samples, list) else [], now)
            window_text = ("-" if windowed is None
                           else f"{windowed:.1f}/min now")
            lines.append(
                f"  {name:<28} {done:>5} job(s)  {lifetime:7.1f} jobs/min  "
                f"{window_text:>12}  "
                f"failed {_num(stats.get('failed', 0), int, 0)}  "
                f"reclaimed {_num(stats.get('reclaimed', 0), int, 0)}")
    if status.dead:
        lines.append("dead letters:")
        for dead in queue.dead_jobs():
            last = (dead.errors or ["unknown"])[-1].strip().splitlines()
            lines.append(f"  {dead.key[:16]} after {dead.attempts} "
                         f"attempt(s): {last[-1] if last else 'unknown'}")
    return "\n".join(lines)


def watch(queue, interval: float = 2.0,
          refreshes: Optional[int] = None,
          out: Callable[[str], None] = print,
          clear: bool = True,
          sleep: Callable[[float], None] = time.sleep) -> int:
    """Redraw :func:`render_status` every ``interval`` seconds.

    ``refreshes`` bounds the number of redraws (None = until Ctrl-C, the
    interactive mode; CI smoke passes 1).  Returns the number of redraws
    performed.  ``out``/``sleep`` are injectable for tests.
    """
    drawn = 0
    try:
        while refreshes is None or drawn < refreshes:
            stamp = time.strftime("%H:%M:%S")
            body = render_status(queue)
            prefix = _CLEAR if clear else ""
            out(f"{prefix}repro status --watch  (refreshed {stamp}, "
                f"every {interval:g}s; Ctrl-C to stop)\n{body}")
            drawn += 1
            if refreshes is not None and drawn >= refreshes:
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return drawn
