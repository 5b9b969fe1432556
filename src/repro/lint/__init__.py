"""``repro lint``: a project-invariant static analyzer.

The repository's hard invariants -- deterministic engine iteration,
cache-key purity of the config tree, driver guard attributes, env-var
conventions, lossless stats merging -- are reachability/blocking
properties of the system's state machine that the runtime golden tests
can only sample.  This package checks them structurally, before
execution: an AST-visitor rule engine
(:mod:`repro.lint.engine`) runs five project-specific rules
(:mod:`repro.lint.rules`) over the checkout and fails on any new finding.

Entry points: ``repro lint [--json] [--baseline PATH] [--rules LIST]`` on
the CLI, :func:`run_lint` as a library, and the self-hosted run in
``tests/test_lint.py`` that keeps ``src/`` clean in tier-1.
"""

from __future__ import annotations

from repro.lint.baseline import (BASELINE_NAME, load_baseline,
                                 write_baseline)
from repro.lint.engine import (Finding, LintReport, default_root, run_lint)
from repro.lint.project import Project

__all__ = ["BASELINE_NAME", "Finding", "LintReport", "Project",
           "default_root", "load_baseline", "run_lint", "write_baseline"]
