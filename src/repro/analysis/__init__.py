"""Result analysis helpers: speedups, means, the Figure 5 breakdowns, the
figure table renderer and (matplotlib-gated) figure plotting in
:mod:`repro.analysis.plots`."""

from repro.analysis.metrics import (
    speedup,
    geometric_mean,
    arithmetic_mean,
)
from repro.analysis.breakdowns import (
    type_breakdown,
    distance_breakdown,
    status_breakdown,
    refcount_breakdown,
)

__all__ = [
    "speedup",
    "geometric_mean",
    "arithmetic_mean",
    "type_breakdown",
    "distance_breakdown",
    "status_breakdown",
    "refcount_breakdown",
]
