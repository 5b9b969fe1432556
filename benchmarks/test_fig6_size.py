"""Figure 6 (right): integration-table size sweep (64 / 256 / 1K / 4K,
fully associative, LRU).

Integration is a temporally local phenomenon: a small table already captures
most of the benefit, and growing the table mostly helps the call-intensive
programs whose reverse integrations span whole function bodies.
"""

import pytest

from repro.experiments import figure6


@pytest.fixture(scope="module")
def size_result(run_figure):
    return run_figure(figure6.Figure6Result, {    # size half only
        label: config for label, config in figure6.configs().items()
        if not label.startswith("assoc/")})


def test_fig6_size_sweep(size_result):
    speedups = size_result.size_speedups()
    rates = size_result.size_integration_rates()
    print()
    for size in speedups:
        print(f"  IT {size:5d} entries: mean speedup {speedups[size]:+.1%}, "
              f"mean integration rate {rates[size]:.1%}")

    # Bigger tables never find less reuse (LRU, fully associative).
    assert rates[4096] >= rates[256] - 0.02
    assert rates[1024] >= rates[64] - 0.02
    # Temporal locality: a 256-entry table already captures a large fraction
    # of what the 4K-entry table finds.
    assert rates[256] >= 0.4 * rates[4096]
    # The default 1K configuration keeps a positive mean speedup.
    assert speedups[1024] > 0.0
