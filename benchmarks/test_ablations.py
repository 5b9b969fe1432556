"""Design-choice ablations (DESIGN.md Section 5).

These go beyond the paper's figures and isolate the support mechanisms it
argues for: generation counters suppress register mis-integrations, the LISP
suppresses load mis-integrations, reverse entries are responsible for the
stack-load integrations, and the call-depth index mixing matters for
call-intensive codes.
"""

import pytest

from repro.experiments import ablations, figures

_ABLATION_SUBSET = ("full (4b gen, 4b rc)", "gen counters 0b", "lisp off",
                    "no reverse entries", "refcount 1b", "pc indexing")


@pytest.fixture(scope="module")
def ablation_result(run_figure):
    return run_figure(ablations.AblationResult, {
        label: config for label, config in ablations.configs().items()
        if label in _ABLATION_SUBSET})


def test_ablation_report(ablation_result):
    table = figures.report("ablations", ablation_result)
    print()
    print(table)


def test_generation_counters_control_register_misintegrations(ablation_result):
    """Disabling generation counters can only increase register
    mis-integrations (usually dramatically)."""
    with_counters = ablation_result.mean_register_mis_integrations(
        "full (4b gen, 4b rc)")
    without = ablation_result.mean_register_mis_integrations("gen counters 0b")
    assert without >= with_counters


def test_reverse_entries_supply_the_stack_load_integrations(ablation_result):
    """Removing reverse entries removes (almost) all reverse integrations."""
    full_runs = ablation_result.results["full (4b gen, 4b rc)"]
    no_rev_runs = ablation_result.results["no reverse entries"]
    full_reverse = sum(r.integrated_reverse for r in full_runs.values())
    no_reverse = sum(r.integrated_reverse for r in no_rev_runs.values())
    assert no_reverse == 0
    assert full_reverse > 0


def test_saturated_refcounts_only_lose_some_integrations(ablation_result):
    """1-bit reference counters forbid simultaneous sharing but integration
    still functions (subsequent instances integrate the fresh register)."""
    full_rate = ablation_result.mean_integration_rate("full (4b gen, 4b rc)")
    narrow_rate = ablation_result.mean_integration_rate("refcount 1b")
    assert narrow_rate > 0.0
    assert narrow_rate <= full_rate + 0.02
