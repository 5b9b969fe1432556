"""Matplotlib-gated rendering of the paper's figure panels.

One renderer serves every figure: :func:`render` draws the tables a
figure module's ``tables(result)`` returns -- the same tables ``repro
figures`` prints -- as grouped bars, one PNG per figure.  On a warm
result cache this renders every figure without a single simulation.  The
CLI surface is ``python -m repro figures --plot-dir DIR``.

matplotlib is an *optional* dependency: nothing in this module imports it at
module scope, and a missing installation produces a one-line
:class:`MissingDependencyError` (a :class:`SystemExit` subclass, matching
the ``EnvVarError`` convention) instead of an ``ImportError`` traceback.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.analysis.metrics import Table


class MissingDependencyError(SystemExit):
    """An optional dependency needed by the requested feature is absent."""

    def __init__(self, package: str, feature: str):
        self.package = package
        super().__init__(
            f"{feature} requires the optional dependency {package!r} "
            f"(pip install {package}), which is not installed")


def matplotlib_available() -> bool:
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True


def _pyplot():
    """Import pyplot, headless-safe, or fail with one line.

    The Agg backend is selected only when pyplot has not been imported yet
    (the CLI / test path, which must work without a display); an
    interactive session that already chose its backend keeps it -- the
    renderer only saves to files, never shows.
    """
    import sys

    try:
        import matplotlib
    except ImportError:
        raise MissingDependencyError("matplotlib", "--plot-dir") from None
    if "matplotlib.pyplot" not in sys.modules:
        matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    return plt


def render(name: str, tables: Sequence[Table], plot_dir: Path) -> Path:
    """Draw figure ``name``'s tables as one PNG, a grouped-bar panel per
    table: one group per row, labelled by the row's non-numeric cells,
    and one bar per numeric column (a missing value draws no bar)."""
    plt = _pyplot()
    fig, axes = plt.subplots(len(tables), 1, squeeze=False,
                             figsize=(9.0, 3.6 * len(tables)))
    for (ax,), (title, columns, rows) in zip(axes, tables):
        series = [i for i in range(1, len(columns))
                  if all(isinstance(row[i], (int, float)) or row[i] is None
                         for row in rows)
                  and any(row[i] is not None for row in rows)]
        width = 0.8 / max(1, len(series))
        for slot, i in enumerate(series):
            ax.bar([x + (slot - (len(series) - 1) / 2) * width
                    for x in range(len(rows))],
                   [float("nan") if row[i] is None else row[i]
                    for row in rows], width=width, label=columns[i])
        ax.set_xticks(range(len(rows)))
        ax.set_xticklabels([" ".join(str(row[j]) for j in range(len(columns))
                                     if j not in series) for row in rows],
                           rotation=45, ha="right", fontsize=8)
        ax.set_title(title, fontsize=9)
        if series:
            ax.legend(fontsize=7)
    outdir = Path(plot_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / (f"figure{name}.png" if name.isdigit() else f"{name}.png")
    fig.savefig(path, dpi=120, bbox_inches="tight")
    plt.close(fig)
    return path
