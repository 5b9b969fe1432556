"""Figure 4 (top): speedups of the three extensions over no integration.

Regenerates the paper's headline result: squash reuse alone is worth ~1%,
general reuse a few percent, opcode indexing a little more, and adding
reverse integration (speculative memory bypassing) gives the largest jump --
8% on the paper's machine.  We check ordering and rough magnitude, not
absolute numbers (the substrate here is a synthetic-workload simulator, not
the authors' SPEC setup).
"""

from repro.experiments import figure4, figures


def test_fig4_speedups(fig4_result):
    """Regenerate the Figure 4 speedup rows."""
    means = {ext: fig4_result.mean_speedup(ext)
             for ext in figure4.EXTENSION_CONFIGS}
    print()
    print(figures.report("4", fig4_result))

    # Paper shape: the full configuration (+reverse) is the best of the four
    # and clearly positive; squash reuse alone is marginal.
    assert means["+reverse"] > 0.01
    assert means["+reverse"] >= means["+general"]
    assert means["+reverse"] >= means["squash"]
    assert abs(means["squash"]) < 0.05


def test_fig4_extension_ordering_per_benchmark(suite, fig4_result):
    """+reverse never loses badly to squash-only on any single benchmark."""
    for name in fig4_result.benchmarks:
        squash = fig4_result.speedups("squash")[name]
        reverse = fig4_result.speedups("+reverse")[name]
        assert reverse >= squash - 0.05, name
