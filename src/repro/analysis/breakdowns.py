"""Integration-retirement-stream breakdowns (paper Figure 5).

Each function turns the raw counters collected by the timing core into the
normalised fractions the paper plots: instruction type, integration distance,
result status at integration time, and reference count at integration time.
"""

from __future__ import annotations

from typing import Dict

from repro.core.stats import (
    DISTANCE_BUCKETS,
    IntegrationType,
    ResultStatus,
    SimStats,
)


def type_breakdown(stats: SimStats) -> Dict[str, float]:
    """Fraction of retired integrating instructions per instruction type,
    with the reverse-integration share reported separately."""
    total = stats.integrated
    result: Dict[str, float] = {}
    for itype in IntegrationType:
        direct = stats.integration_by_type[itype] - stats.reverse_by_type[itype]
        reverse = stats.reverse_by_type[itype]
        result[itype.value] = (direct + reverse) / total if total else 0.0
        result[f"{itype.value}_reverse"] = reverse / total if total else 0.0
    return result


def per_type_integration_rates(stats: SimStats) -> Dict[str, float]:
    """Integration rate *within* each instruction type (e.g. the paper's
    "loads are integrated at a rate of 27%, stack loads at 60%")."""
    rates: Dict[str, float] = {}
    for itype in IntegrationType:
        retired = stats.retired_by_type[itype]
        integrated = stats.integration_by_type[itype]
        rates[itype.value] = integrated / retired if retired else 0.0
    return rates


def distance_breakdown(stats: SimStats) -> Dict[int, float]:
    """Cumulative fraction of integrations within each distance bucket."""
    total = stats.integrated
    result: Dict[int, float] = {}
    running = 0
    buckets = sorted(set(list(DISTANCE_BUCKETS)
                         + list(stats.integration_distance.keys())))
    for bucket in buckets:
        running += stats.integration_distance.get(bucket, 0)
        result[bucket] = running / total if total else 0.0
    return result


def status_breakdown(stats: SimStats) -> Dict[str, float]:
    """Fraction of integrations by result status at integration time."""
    total = sum(stats.integration_status.values())
    return {status.value: (stats.integration_status[status] / total
                           if total else 0.0)
            for status in ResultStatus}


def refcount_breakdown(stats: SimStats) -> Dict[int, float]:
    """Fraction of integrations whose post-integration reference count is
    exactly ``n`` (keys are the counts observed)."""
    total = sum(stats.integration_refcount.values())
    return {count: value / total if total else 0.0
            for count, value in sorted(stats.integration_refcount.items())}
