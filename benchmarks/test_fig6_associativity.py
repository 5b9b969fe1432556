"""Figure 6 (left): integration-table associativity sweep.

The paper finds that low associativity does not destroy integration's
benefit (6%/7%/8% for 1/2/4-way, 10% fully associative with oracle
suppression); reverse integration in particular is insensitive to
associativity because the stack-frame layout gives save/restore pairs a
natural conflict-free indexing.
"""

import pytest

from repro.experiments import figure6


@pytest.fixture(scope="module")
def assoc_result(run_figure):
    return run_figure(figure6.Figure6Result, {    # associativity half only
        label: config for label, config in figure6.configs().items()
        if not label.startswith("size/")})


def test_fig6_associativity_sweep(assoc_result):
    speedups = assoc_result.assoc_speedups()
    rates = assoc_result.assoc_integration_rates()
    print()
    for label in speedups:
        print(f"  IT {label:6s}: mean speedup {speedups[label]:+.1%}, "
              f"mean integration rate {rates[label]:.1%}")

    # Every organisation, even direct-mapped, keeps a positive mean speedup.
    assert speedups["1-way"] > -0.02
    assert speedups["4-way"] > 0.0
    # Higher associativity finds at least as much integration opportunity.
    assert rates["full"] >= rates["1-way"] - 0.02
    # Low associativity does not collapse the benefit relative to 4-way.
    assert speedups["1-way"] > speedups["4-way"] - 0.10


def test_fig6_reverse_insensitive_to_associativity(assoc_result):
    """Reverse integration survives even a direct-mapped IT."""
    def mean_reverse(label):
        runs = assoc_result.assoc_results[label]
        return sum(r.reverse_integration_rate for r in runs.values()) / len(runs)

    assert mean_reverse("1-way") > 0.25 * mean_reverse("4-way")
