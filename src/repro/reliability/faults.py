"""Deterministic, seeded fault injection for the cache/queue/worker stack.

Every filesystem operation the distributed stack performs (rename, write,
read, unlink, fsync -- see :mod:`repro.reliability.fs`) and every named
protocol step (see :data:`CRASH_POINTS`) consults the process-wide
:class:`FaultPlan` before executing.  A plan is a list of :class:`FaultRule`
entries parsed from a compact spec string, normally supplied through the
``REPRO_FAULTS`` environment variable so worker subprocesses inherit it::

    REPRO_FAULTS="rename:queue/claimed:nth=3:crash;write:@cache:nth=1:torn"

Grammar (rules separated by ``;``, fields by ``:``)::

    rule     := op ":" match ":" selector ":" action
    op       := rename | write | read | unlink | fsync | point | any
    match    := "*"            (any operation of this kind)
              | "@" category   (the operation's file class: cache, queue,
                                lease, workers; crash points use "point")
              | substring      (matched against the operation's path; for
                                renames, against "SRC::DST")
    selector := "always" | "nth=N" | "after=N" | "every=N"
    action   := crash | eio | enospc | torn | "delay=SECONDS"

Selectors count *matching* calls per rule, in-process, so a schedule is
fully deterministic: the same program run with the same spec fails at the
same operation every time (the seed is the spec itself -- there is no
randomness anywhere in the layer).  ``torn`` only applies to writes (the
data is silently truncated to half, modelling a crash between ``write``
and ``fsync``); ``crash`` raises :class:`SimulatedCrash`, which subclasses
``BaseException`` precisely so the stack's ``except Exception`` failure
handlers cannot swallow it -- a simulated crash takes the worker down the
way ``kill -9`` would, leaving the protocol state (claimed file, stale
lease, orphaned tmp) for recovery to deal with.

The layer is zero-overhead when disabled: with ``REPRO_FAULTS`` unset the
active plan is ``None`` and every hook is a single global-load-and-compare.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

ENV_FAULTS = "REPRO_FAULTS"

#: Named protocol steps at which :func:`crashpoint` is called by the real
#: code.  The chaos test matrix iterates this registry, so a new crash
#: point is covered the moment it is added here and called in the code.
CRASH_POINTS: Tuple[str, ...] = (
    "after-claim",
    "before-publish",
    "after-publish-before-done",
    "mid-heartbeat",
)

#: The wrapped filesystem operations (:mod:`repro.reliability.fs`).
FS_OPS: Tuple[str, ...] = ("rename", "write", "read", "unlink", "fsync")

_OPS = FS_OPS + ("point", "any")
_SELECTORS = ("always", "nth", "after", "every")
_ACTIONS = ("crash", "eio", "enospc", "torn", "delay")


class SimulatedCrash(BaseException):
    """An injected process crash (``action=crash``).

    Subclasses ``BaseException`` so the worker stack's ``except Exception``
    failure handling cannot turn a simulated crash into a recorded failed
    attempt: the process must die mid-protocol, exactly like ``kill -9``,
    and recovery must happen through lease expiry and reclamation.
    """


class FaultSpecError(ValueError):
    """A malformed fault spec string (see the module grammar)."""


@dataclass
class FaultRule:
    """One parsed rule plus its per-process match counter."""

    op: str
    match: str
    selector: str
    sel_n: int
    action: str
    delay: float = 0.0
    #: matching operations seen so far (the deterministic "schedule clock")
    hits: int = 0

    def matches(self, op: str, path: str, category: str) -> bool:
        if self.op != "any" and self.op != op:
            return False
        if self.match in ("", "*"):
            return True
        if self.match.startswith("@"):
            return category == self.match[1:]
        return self.match in path

    def select(self) -> bool:
        """Count one matching call; return whether the rule fires on it."""
        self.hits += 1
        if self.selector == "always":
            return True
        if self.selector == "nth":
            return self.hits == self.sel_n
        if self.selector == "after":
            return self.hits > self.sel_n
        return self.hits % self.sel_n == 0     # every

    def describe(self) -> str:
        sel = (self.selector if self.selector == "always"
               else f"{self.selector}={self.sel_n}")
        act = f"delay={self.delay:g}" if self.action == "delay" else self.action
        return f"{self.op}:{self.match or '*'}:{sel}:{act}"


def _parse_rule(text: str) -> FaultRule:
    parts = text.split(":")
    if len(parts) != 4:
        raise FaultSpecError(
            f"fault rule {text!r} must have 4 ':'-separated fields "
            f"(op:match:selector:action)")
    op, match, selector, action = (p.strip() for p in parts)
    if op not in _OPS:
        raise FaultSpecError(
            f"unknown fault op {op!r} (one of {', '.join(_OPS)})")
    sel_kind, _, sel_arg = selector.partition("=")
    if sel_kind not in _SELECTORS:
        raise FaultSpecError(
            f"unknown selector {selector!r} (always, nth=N, after=N, "
            f"every=N)")
    sel_n = 1
    if sel_kind != "always":
        try:
            sel_n = int(sel_arg)
        except ValueError:
            raise FaultSpecError(
                f"selector {selector!r} needs an integer argument") from None
        if sel_n < 1:
            raise FaultSpecError(f"selector {selector!r} must be >= 1")
    act_kind, _, act_arg = action.partition("=")
    if act_kind not in _ACTIONS:
        raise FaultSpecError(
            f"unknown action {action!r} (one of {', '.join(_ACTIONS)})")
    delay = 0.0
    if act_kind == "delay":
        try:
            delay = float(act_arg)
        except ValueError:
            raise FaultSpecError(
                f"action {action!r} needs a seconds argument") from None
        if delay < 0:
            raise FaultSpecError(f"action {action!r} must be >= 0")
    if act_kind == "torn" and op not in ("write", "any"):
        raise FaultSpecError(
            f"action 'torn' only applies to write operations (rule {text!r})")
    return FaultRule(op=op, match=match, selector=sel_kind, sel_n=sel_n,
                     action=act_kind, delay=delay)


@dataclass
class FaultPlan:
    """A parsed fault schedule; first matching-and-firing rule wins."""

    rules: List[FaultRule] = field(default_factory=list)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        rules = [_parse_rule(chunk) for chunk in spec.split(";")
                 if chunk.strip()]
        if not rules:
            raise FaultSpecError("empty fault spec")
        return cls(rules=rules)

    def check(self, op: str, path: str, category: str) -> Optional[FaultRule]:
        """Record one operation; return the rule that fires on it (if any).

        Every *matching* rule's counter advances (so two rules can watch
        the same operation independently), but only the first rule that
        fires is returned.
        """
        fired: Optional[FaultRule] = None
        for rule in self.rules:
            if rule.matches(op, path, category) and rule.select():
                if fired is None:
                    fired = rule
        return fired


def fire(rule: FaultRule, op: str, path: str) -> None:
    """Apply a fired rule's action (``torn`` is handled by the write
    wrapper, which truncates the data instead of raising)."""
    where = f"{op} {path} [{rule.describe()}]"
    if rule.action == "crash":
        raise SimulatedCrash(f"injected crash: {where}")
    if rule.action == "eio":
        raise OSError(errno.EIO, f"injected EIO: {where}", path)
    if rule.action == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC: {where}", path)
    if rule.action == "delay":
        time.sleep(rule.delay)


# ----------------------------------------------------------------------
# the process-wide active plan
# ----------------------------------------------------------------------
_active: Optional[FaultPlan] = None
_resolved = False


def faults_spec() -> str:
    """The raw ``REPRO_FAULTS`` spec from the environment ('' = disabled)."""
    return os.environ.get(ENV_FAULTS, "").strip()


def plan_from_env() -> Optional[FaultPlan]:
    """Parse ``REPRO_FAULTS`` (None when unset/empty).

    A malformed spec aborts with the project's one-line ``EnvVarError``
    style rather than a parse traceback deep inside a worker.
    """
    spec = faults_spec()
    if not spec:
        return None
    try:
        return FaultPlan.parse(spec)
    except FaultSpecError as exc:
        from repro.experiments.runner import EnvVarError

        raise EnvVarError(
            ENV_FAULTS, spec,
            f"a fault spec like 'rename:queue/claimed:nth=3:crash' "
            f"({exc})") from None


def active_plan() -> Optional[FaultPlan]:
    """The process-wide plan, resolved from the environment exactly once."""
    global _active, _resolved
    if not _resolved:
        _active = plan_from_env()
        _resolved = True
    return _active


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or, with None, disable) the active plan -- the test hook."""
    global _active, _resolved
    _active = plan
    _resolved = True


def reset_plan() -> None:
    """Forget the active plan; the next hook re-reads ``REPRO_FAULTS``."""
    global _active, _resolved
    _active = None
    _resolved = False


def crashpoint(name: str) -> None:
    """Declare a named protocol step; fires any matching ``point`` rule.

    Call sites live in the worker/queue protocol code (claim, publish,
    done-rename, heartbeat).  With no plan installed this is a single
    global check -- the zero-overhead-when-disabled contract.
    """
    plan = active_plan()
    if plan is None:
        return
    if name not in CRASH_POINTS:
        raise AssertionError(
            f"unregistered crash point {name!r}; add it to "
            f"repro.reliability.faults.CRASH_POINTS")
    rule = plan.check("point", name, "point")
    if rule is not None:
        fire(rule, "crash-point", name)
