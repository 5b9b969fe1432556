"""Experiment harness: the run engine and one module per table/figure of the
paper's evaluation.

* :mod:`repro.experiments.runner`     -- the parallel, disk-cached run engine
* :mod:`repro.experiments.sharding`   -- checkpointed intra-benchmark slices
* :mod:`repro.experiments.cache`      -- content-addressed on-disk results
* :mod:`repro.experiments.figures`    -- the figure registry and the runner
  that executes any set of figures as one ``run_suite`` call
* :mod:`repro.experiments.figure4`    -- extension-by-extension speedups and
  integration rates (Figure 4), realistic vs oracle LISP
* :mod:`repro.experiments.figure5`    -- integration-stream breakdowns
* :mod:`repro.experiments.figure6`    -- IT associativity and size sweeps
* :mod:`repro.experiments.figure7`    -- reduced-complexity execution engines
* :mod:`repro.experiments.diagnostics`-- Section 3.2 performance diagnostics
  (branch-resolution latency, fetched instructions)
* :mod:`repro.experiments.ablations`  -- extra design-choice ablations called
  out in DESIGN.md (generation counters, reference-counter width, reverse
  entries, index schemes)
* :mod:`repro.experiments.scenario_matrix` -- the (benchmark x machine
  variant) sweep over the :mod:`repro.variants` registry, with per-variant
  deltas against the baseline machine

Each figure module is data, not a pipeline: ``configs()`` returns its
matrix of named machine configurations, its ``*Result`` class wraps the
runs ``results[label][benchmark]`` with the paper's reductions, and
``tables(result)`` returns ``(title, columns, rows)`` tables that ``repro
figures`` prints and ``--plot-dir`` draws.
"""

from repro.experiments.cache import (
    PayloadCache,
    ResultCache,
    code_version,
    result_key,
)
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    FAST_BENCHMARKS,
    SMOKE_BENCHMARKS,
    EnvVarError,
    SuitePlan,
    apply_variant,
    clear_cache,
    default_jobs,
    default_scale,
    default_shards,
    default_variant,
    finish_suite,
    plan_suite,
    run_benchmark,
    run_suite,
    telemetry,
    validate_variant,
)

__all__ = [
    "DEFAULT_BENCHMARKS",
    "EnvVarError",
    "FAST_BENCHMARKS",
    "SMOKE_BENCHMARKS",
    "PayloadCache",
    "ResultCache",
    "apply_variant",
    "clear_cache",
    "code_version",
    "default_jobs",
    "default_scale",
    "default_shards",
    "default_variant",
    "finish_suite",
    "plan_suite",
    "result_key",
    "run_benchmark",
    "run_suite",
    "SuitePlan",
    "telemetry",
    "validate_variant",
]
