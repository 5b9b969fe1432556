"""Speedup and mean helpers used by the experiment reporters.

The paper reports *arithmetic* means of integration rates and *geometric*
means of speedups; these helpers follow that convention.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

from repro.core.stats import SimStats


def speedup(baseline: SimStats, improved: SimStats) -> float:
    """Relative speedup of ``improved`` over ``baseline`` (0.08 == +8%).

    Both runs must have retired the same program; speedup is computed from
    cycle counts so partial-run comparisons stay meaningful.
    """
    if improved.cycles == 0:
        return 0.0
    return baseline.cycles / improved.cycles - 1.0


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of speedups expressed as fractions (e.g. 0.08)."""
    values = list(values)
    if not values:
        return 0.0
    log_sum = sum(math.log(1.0 + v) for v in values)
    return math.exp(log_sum / len(values)) - 1.0


#: One figure table: ``(title, columns, rows)``, each row a sequence of
#: cells aligned with ``columns``.  The first column names the row.
Table = Tuple[str, Sequence[str], Sequence[Sequence]]


def format_table(title: str, columns: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """Render a :data:`Table` as plain text (floats to 3 places)."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines = [title] if title else []
    lines += [header, "-" * len(header)]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              for row in cells]
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
