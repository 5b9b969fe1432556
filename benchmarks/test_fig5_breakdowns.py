"""Figure 5: breakdowns of the integration retirement stream.

Checks the paper's qualitative observations: loads integrate at higher rates
than the overall average with stack loads far ahead of everything else;
reverse integrations appear only in the stack-load and ALU categories; only
a minority of integrations reuse very recent results (so integration can be
pipelined); a substantial fraction of results are integrated while the
original mapping is still live (simultaneous sharing); and high sharing
degrees are rare.
"""

import pytest

from repro.analysis import breakdowns
from repro.core.stats import IntegrationType, ResultStatus
from repro.experiments import figure5


@pytest.fixture(scope="module")
def fig5_result(suite):
    return figure5.run(benchmarks=suite["benchmarks"], scale=suite["scale"])


def _aggregate(stats_by_bench):
    """Pool the retired-integration counters across benchmarks."""
    pooled = {"integrated": 0, "loads": 0, "loads_int": 0,
              "sp_loads": 0, "sp_loads_int": 0}
    for stats in stats_by_bench.values():
        pooled["integrated"] += stats.integrated
        pooled["loads"] += (stats.retired_by_type[IntegrationType.LOAD_SP]
                            + stats.retired_by_type[IntegrationType.LOAD_OTHER])
        pooled["loads_int"] += (
            stats.integration_by_type[IntegrationType.LOAD_SP]
            + stats.integration_by_type[IntegrationType.LOAD_OTHER])
        pooled["sp_loads"] += stats.retired_by_type[IntegrationType.LOAD_SP]
        pooled["sp_loads_int"] += stats.integration_by_type[
            IntegrationType.LOAD_SP]
    return pooled


def test_fig5_type_breakdown(fig5_result):
    pooled = _aggregate(fig5_result.stats)
    print()
    print(figure5.report(fig5_result)[:2000])
    assert pooled["integrated"] > 0
    overall_rate = sum(s.integration_rate for s in fig5_result.stats.values()
                       ) / len(fig5_result.stats)
    load_rate = pooled["loads_int"] / pooled["loads"]
    sp_rate = pooled["sp_loads_int"] / max(1, pooled["sp_loads"])
    # Paper: loads integrate above the overall rate; stack loads far above.
    assert load_rate > overall_rate * 0.8
    assert sp_rate > load_rate
    assert sp_rate > 0.3


def test_fig5_reverse_only_in_sp_load_and_alu(fig5_result):
    for name, stats in fig5_result.stats.items():
        for itype, count in stats.reverse_by_type.items():
            if count:
                assert itype in (IntegrationType.LOAD_SP,
                                 IntegrationType.ALU), (name, itype)


def test_fig5_distance_breakdown(fig5_result):
    """Only a minority of integrations reuse very recent results."""
    total = sum(s.integrated for s in fig5_result.stats.values())
    within4 = sum(s.integration_distance.get(4, 0)
                  for s in fig5_result.stats.values())
    assert total > 0
    assert within4 / total < 0.5


def test_fig5_status_and_refcount(fig5_result):
    """Simultaneous sharing exists, and extreme sharing degrees are rare."""
    total_status = 0
    active = 0
    high_refcount = 0
    total_refcount = 0
    for stats in fig5_result.stats.values():
        for status, count in stats.integration_status.items():
            total_status += count
            if status is not ResultStatus.SHADOW_SQUASH:
                active += count
        for refcount, count in stats.integration_refcount.items():
            total_refcount += count
            if refcount > 7:
                high_refcount += count
    assert total_status > 0
    assert active > 0                       # some simultaneous sharing
    assert high_refcount / max(1, total_refcount) < 0.5
