"""cProfile harness over ``simulate()`` -- the ``repro profile`` command.

This module profiles one or more benchmarks through the real
:func:`repro.core.simulate` entry point (caches deliberately bypassed: a
profile of cache hits is useless) and reports

* the top-N functions by cumulative time,
* a pinned *hot-path highlights* section extracting the per-cycle inner
  loops (issue/execute, LSQ indices, scheduler select/wakeup, the rename
  and commit stage bodies), so successive PRs can diff like against like
  without fishing them out of the full table.

The highlight set is resolved from the **live code objects** -- each entry
is looked up as an attribute on the owning class and its
``__code__.co_filename``/``co_name`` are matched against the profiler's
records.  A function that is renamed or folded into a caller simply drops
out of the pin list instead of leaving a stale pattern that silently
matches nothing (which is how an earlier hard-coded table ended up
printing an empty highlights section after the structure-of-arrays
rewrite).

``to_dict``/``diff_reports`` serialise a run to JSON and compare two such
files hot line by hot line (``repro profile --json`` / ``--diff``).  Rows
are keyed by ``module.py(function)`` -- no line numbers, so a diff
survives unrelated edits that shift code around.

Pure stdlib (``cProfile``/``pstats``), so the command works everywhere the
simulator does.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import MachineConfig, simulate
from repro.workloads import build_workload

#: Schema tag written into ``repro profile --json`` files.
JSON_SCHEMA = 1


def hot_path_targets() -> Tuple[Tuple[str, str], ...]:
    """The pinned hot-path functions as live ``(filename, name)`` pairs.

    Resolved at call time from the classes that own the per-cycle inner
    loops.  A pin naming a function that no longer exists raises
    ``AttributeError``, so a refactor cannot quietly drop a highlight.
    """
    from repro.core.lsq import LoadStoreQueue
    from repro.core.scheduler import ReservationStations
    from repro.core.stages.commit import CommitDiva
    from repro.core.stages.execute import IssueExecute
    from repro.core.stages.frontend import FrontEnd
    from repro.core.stages.rename import RenameIntegrate
    from repro.integration.logic import IntegrationLogic
    from repro.integration.table import IntegrationTable
    from repro.rename.renamer import Renamer

    wanted = (
        (IssueExecute, ("tick", "writeback", "_execute", "_execute_load",
                        "_load_can_issue")),
        (LoadStoreQueue, ("forward_from", "older_stores_unresolved",
                          "resolve_store", "record_load", "insert",
                          "remove")),
        (ReservationStations, ("select", "wakeup", "insert")),
        (RenameIntegrate, ("tick",)),
        (Renamer, ("lookup_sources", "rename_dest")),
        (IntegrationLogic, ("consider", "create_entries")),
        (IntegrationTable, ("insert",)),
        (CommitDiva, ("tick",)),
        (FrontEnd, ("tick",)),
    )
    targets: List[Tuple[str, str]] = []
    for cls, names in wanted:
        for name in names:
            code = getattr(cls, name).__code__
            targets.append((code.co_filename, code.co_name))
    return tuple(targets)


@dataclass
class FunctionProfile:
    """One row of the profile: who, how often, how long."""

    where: str            # "module.py:line(function)"
    calls: int
    total_time: float     # self time, seconds
    cumulative: float     # including callees, seconds
    key: str = ""         # "module.py(function)" -- line-number free

    def to_dict(self) -> dict:
        return {"where": self.where, "key": self.key, "calls": self.calls,
                "total_time": self.total_time,
                "cumulative": self.cumulative}


@dataclass
class ProfileResult:
    """Everything ``repro profile`` reports."""

    benchmarks: List[str]
    scale: float
    variant: str
    wall_seconds: float
    retired: int
    cycles: int
    cycles_elided: int = 0
    top: List[FunctionProfile] = field(default_factory=list)
    highlights: List[FunctionProfile] = field(default_factory=list)

    @property
    def retired_per_second(self) -> float:
        return self.retired / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def elided_fraction(self) -> float:
        return self.cycles_elided / self.cycles if self.cycles else 0.0


def _rows_from_stats(stats: pstats.Stats) -> Dict[Tuple[str, int, str],
                                                  FunctionProfile]:
    rows: Dict[Tuple[str, int, str], FunctionProfile] = {}
    for func, (_cc, ncalls, tottime, cumtime, _callers) in \
            stats.stats.items():   # type: ignore[attr-defined]
        filename, line, name = func
        short = "/".join(filename.replace("\\", "/").split("/")[-2:])
        rows[func] = FunctionProfile(
            where=f"{short}:{line}({name})",
            calls=int(ncalls), total_time=float(tottime),
            cumulative=float(cumtime), key=f"{short}({name})")
    return rows


def profile_simulate(benchmarks: Iterable[str],
                     scale: float,
                     config: Optional[MachineConfig] = None,
                     top_n: int = 15) -> ProfileResult:
    """Profile ``simulate()`` over the given benchmarks under one config.

    All benchmarks run inside a single profiler session so the report
    reflects the aggregate hot path of the selection; workload
    construction happens *outside* the profiled region (it is not
    simulator time).
    """
    benchmarks = list(benchmarks)
    config = config or MachineConfig()
    programs = [(name, build_workload(name, scale=scale))
                for name in benchmarks]
    profiler = cProfile.Profile()
    retired = cycles = cycles_elided = 0
    profiler.enable()
    try:
        for name, program in programs:
            stats = simulate(program, config, name=name)
            retired += stats.retired
            cycles += stats.cycles
            cycles_elided += stats.cycles_elided
    finally:
        profiler.disable()

    pstats_obj = pstats.Stats(profiler, stream=io.StringIO())
    rows = _rows_from_stats(pstats_obj)
    by_cumulative = sorted(rows.items(), key=lambda item: -item[1].cumulative)
    # total_tt (sum of self times) can land a hair under the root frame's
    # cumulative time; use the larger so shares never exceed 100%.
    wall = float(getattr(pstats_obj, "total_tt", 0.0))
    if by_cumulative:
        wall = max(wall, by_cumulative[0][1].cumulative)
    targets = set(hot_path_targets())
    top = [row for func, row in by_cumulative[:max(1, top_n)]]
    highlights = [row for (filename, _line, name), row in by_cumulative
                  if (filename, name) in targets]
    return ProfileResult(
        benchmarks=benchmarks, scale=scale, variant=config.variant,
        wall_seconds=wall, retired=retired, cycles=cycles,
        cycles_elided=cycles_elided, top=top, highlights=highlights)


def _table(rows: List[FunctionProfile], wall: float, title: str) -> str:
    lines = [title,
             f"{'cum s':>9} {'cum %':>6} {'self s':>9} {'calls':>10}  where",
             "-" * 78]
    for row in rows:
        share = 100.0 * row.cumulative / wall if wall else 0.0
        lines.append(f"{row.cumulative:>9.4f} {share:>5.1f}% "
                     f"{row.total_time:>9.4f} {row.calls:>10}  {row.where}")
    return "\n".join(lines)


def report(result: ProfileResult) -> str:
    """The ``repro profile`` text report."""
    head = (f"profiled {', '.join(result.benchmarks)} at scale "
            f"{result.scale:g} (variant: {result.variant or 'baseline'}): "
            f"{result.retired} retired / {result.cycles} cycles in "
            f"{result.wall_seconds:.2f}s "
            f"({result.retired_per_second:,.0f} retired insts/s); "
            f"{result.cycles_elided} cycles elided "
            f"({result.elided_fraction:.1%} jumped, not stepped)")
    top = _table(result.top, result.wall_seconds,
                 f"\ntop {len(result.top)} by cumulative time")
    hot = _table(result.highlights, result.wall_seconds,
                 "\nhot-path highlights (per-cycle stage bodies + "
                 "LSQ/scheduler indices)")
    return "\n".join((head, top, hot))


# ----------------------------------------------------------------------
# JSON serialisation and before/after diffing
# ----------------------------------------------------------------------
def to_dict(result: ProfileResult) -> dict:
    """Serialise a run for ``repro profile --json``."""
    return {
        "schema": JSON_SCHEMA,
        "benchmarks": result.benchmarks,
        "scale": result.scale,
        "variant": result.variant,
        "wall_seconds": result.wall_seconds,
        "retired": result.retired,
        "cycles": result.cycles,
        "cycles_elided": result.cycles_elided,
        "top": [row.to_dict() for row in result.top],
        "highlights": [row.to_dict() for row in result.highlights],
    }


def diff_reports(before: dict, after: dict) -> str:
    """Hot-line comparison of two ``repro profile --json`` files.

    Rows are joined on the line-number-free ``key``; the union of both
    files' top and highlight sections is compared so a function that fell
    out of (or newly entered) the top-N still shows up.  Sorted by the
    absolute change in cumulative seconds, biggest movement first.
    """
    def rows_by_key(data: dict) -> Dict[str, dict]:
        merged: Dict[str, dict] = {}
        for row in list(data.get("top", [])) + list(data.get("highlights",
                                                             [])):
            merged[row["key"]] = row
        return merged

    rows_a = rows_by_key(before)
    rows_b = rows_by_key(after)
    keys = set(rows_a) | set(rows_b)

    def delta(key: str) -> float:
        a = rows_a.get(key, {}).get("cumulative", 0.0)
        b = rows_b.get(key, {}).get("cumulative", 0.0)
        return b - a

    lines = [
        f"profile diff: {', '.join(before.get('benchmarks', []))} "
        f"@{before.get('scale', '?')} -> "
        f"{', '.join(after.get('benchmarks', []))} "
        f"@{after.get('scale', '?')}",
        f"wall: {before.get('wall_seconds', 0.0):.3f}s -> "
        f"{after.get('wall_seconds', 0.0):.3f}s   cycles: "
        f"{before.get('cycles', 0)} -> {after.get('cycles', 0)}",
        "",
        f"{'before s':>10} {'after s':>10} {'delta s':>10} {'ratio':>7}  "
        f"hot line",
        "-" * 78,
    ]
    for key in sorted(keys, key=lambda k: -abs(delta(k))):
        a = rows_a.get(key)
        b = rows_b.get(key)
        cum_a = a["cumulative"] if a else 0.0
        cum_b = b["cumulative"] if b else 0.0
        if a and b:
            ratio = f"{cum_b / cum_a:6.2f}x" if cum_a else "      -"
        elif a:
            ratio = "   gone"
        else:
            ratio = "    new"
        lines.append(f"{cum_a:>10.4f} {cum_b:>10.4f} {cum_b - cum_a:>+10.4f} "
                     f"{ratio}  {key}")
    return "\n".join(lines)
