"""Section 3.2 diagnostics: branch-resolution latency and fetched instructions.

The paper reports that integration shortens mis-predicted-branch resolution
(26 -> 23.5 cycles) and slightly reduces the number of fetched instructions
(~0.6%) because less wrong-path work is fetched.
"""

import pytest

from repro.experiments import diagnostics, figures


@pytest.fixture(scope="module")
def diag_result(run_figure):
    return run_figure(diagnostics.DiagnosticsResult, diagnostics.configs())


def test_branch_resolution_latency(diag_result):
    latency = diag_result.resolution_latency()
    print()
    print(figures.report("diagnostics", diag_result))
    # Integration must not lengthen branch resolution on average; the paper
    # sees a ~10% reduction.
    assert latency["with"] <= latency["without"] * 1.10


def test_fetched_instructions(diag_result):
    """Integration does not blow up the fetch stream (the paper sees a small
    net reduction despite mis-integration re-fetches)."""
    reduction = diag_result.fetched_reduction()
    assert reduction > -0.10
