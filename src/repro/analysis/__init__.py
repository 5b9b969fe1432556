"""Result analysis helpers: speedups, means, the Figure 5 breakdowns and
(matplotlib-gated) figure plotting in :mod:`repro.analysis.plots`."""

from repro.analysis.metrics import (
    speedup,
    geometric_mean,
    arithmetic_mean,
    speedup_table,
)
from repro.analysis.breakdowns import (
    type_breakdown,
    distance_breakdown,
    status_breakdown,
    refcount_breakdown,
    full_breakdown_report,
)

__all__ = [
    "speedup",
    "geometric_mean",
    "arithmetic_mean",
    "speedup_table",
    "type_breakdown",
    "distance_breakdown",
    "status_breakdown",
    "refcount_breakdown",
    "full_breakdown_report",
]
