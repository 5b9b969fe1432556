"""Figure 4 (bottom): integration rates and mis-integrations per million.

The paper's progression is 2% (squash) -> 10% (+general) -> 12.3% (+opcode)
-> 17% (+reverse).  We check the qualitative staircase: each extension adds
integration opportunity on average, squash-only is tiny, and the full
configuration reaches double digits with a visible reverse-integration
component.
"""

from repro.experiments import figure4


def test_fig4_integration_rates(fig4_result):
    rates = {ext: fig4_result.mean_integration_rate(ext)
             for ext in figure4.EXTENSION_CONFIGS}
    print()
    for ext, rate in rates.items():
        print(f"  {ext:9s} mean integration rate {rate:.1%}")
    print(f"  +reverse mean reverse share {fig4_result.mean_reverse_rate():.1%}")

    assert rates["squash"] < 0.05                      # squash reuse is rare
    assert rates["+general"] > rates["squash"]         # extension 1 adds reuse
    assert rates["+reverse"] > rates["+general"]       # extension 3 adds more
    assert rates["+reverse"] > 0.08                    # double-digit-ish rate
    assert fig4_result.mean_reverse_rate() > 0.005     # reverse share visible


def test_fig4_mis_integration_rates(suite, fig4_result):
    """Mis-integrations stay rare (the LISP and generation counters work)."""
    per_million = fig4_result.mis_integrations_per_million("+reverse")
    for name, value in per_million.items():
        # The paper sees tens to a few thousand per million retired.
        assert value < 20_000, (name, value)
