"""Figure 7: integration as a substitute for execution-core complexity.

The paper's claims: halving the reservation stations costs ~10%, dropping to
3-way issue with one load/store port costs ~12%, both together cost ~18%;
with integration each reduced machine recovers most of the loss (to within
1%/2%/7% of the full-complexity baseline).  We check the qualitative shape:
the reductions hurt, integration recovers a substantial share of the loss,
and integration shrinks the executed-instruction count and reservation-
station occupancy.
"""

import pytest

from repro.experiments import figure7


@pytest.fixture(scope="module")
def fig7_result(suite):
    return figure7.run(benchmarks=suite["benchmarks"], scale=suite["scale"])


def test_fig7_reduced_complexity(fig7_result):
    speedups = {(variant, integ): fig7_result.mean_speedup(variant, integ)
                for variant in figure7.MACHINE_VARIANTS
                for integ in ("none", "integration")}
    print()
    print(figure7.report(fig7_result))

    # Complexity reductions hurt the machine without integration.
    assert speedups[("RS", "none")] < 0.0
    assert speedups[("IW", "none")] < 0.0
    assert speedups[("IW+RS", "none")] <= min(speedups[("RS", "none")],
                                              speedups[("IW", "none")]) + 0.02

    # Integration recovers a substantial share of each loss.
    for variant in ("RS", "IW", "IW+RS"):
        without = speedups[(variant, "none")]
        with_int = speedups[(variant, "integration")]
        assert with_int > without, variant
    # With integration, the half-RS machine recovers a meaningful part of
    # the loss relative to the full-complexity no-integration baseline.
    rs_without = speedups[("RS", "none")]
    assert speedups[("RS", "integration")] > rs_without + 0.2 * abs(rs_without)


def test_fig7_execution_stream_compression(fig7_result):
    """Integration reduces executed instructions, executed loads and RS
    occupancy on the baseline machine (paper Section 3.5)."""
    assert fig7_result.executed_reduction() > 0.03
    assert fig7_result.load_reduction() > 0.03
    assert (fig7_result.rs_occupancy("integration")
            < fig7_result.rs_occupancy("none"))
