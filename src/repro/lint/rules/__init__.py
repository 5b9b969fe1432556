"""The five project-invariant lint rules.

Each rule guards an invariant the runtime test suites can only sample (see
the module docstrings, and the rule table in docs/ARCHITECTURE.md):

==============  ========================================================
``determinism``   no unordered iteration / clocks / global random / id()
                  ordering inside the engine packages
``cache-key``     every config field reaches the canonical
                  to_dict()/fingerprint() cache identity
``fast-path``     every engine attribute the driver's stage-skip and
                  elision guards read exists
``env-var``       every ``REPRO_*`` knob is documented and read through
                  its validated accessor
``stats-merge``   ``SimStats`` fields stay losslessly mergeable
==============  ========================================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.lint.engine import Rule
from repro.lint.rules.cache_key import CacheKeyRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.env_vars import EnvVarRule
from repro.lint.rules.fast_path import FastPathRule
from repro.lint.rules.stats_merge import StatsMergeRule

#: Every project rule, in reporting order.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    CacheKeyRule(),
    FastPathRule(),
    EnvVarRule(),
    StatsMergeRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID", "CacheKeyRule", "DeterminismRule",
           "EnvVarRule", "FastPathRule", "StatsMergeRule"]
