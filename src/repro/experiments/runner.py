"""Shared experiment machinery: the parallel, disk-cached run engine.

All experiments run synthetic benchmarks through :func:`repro.core.simulate`.
Every simulation is deterministic, so one (benchmark, scale, config) triple
maps to exactly one :class:`~repro.core.stats.SimStats`; results are cached
at two levels:

* an in-process memo (so e.g. the no-integration baseline is shared between
  Figure 4 and Figure 7 within one run) -- LRU-bounded so long-lived
  processes doing many sweeps don't grow without limit, and
* the content-addressed on-disk :class:`~repro.experiments.cache.ResultCache`
  keyed by benchmark x scale x config fingerprint x code version (so a warm
  repeat of a whole figure sweep performs zero simulations).

:func:`run_suite` is the fan-out point: it deduplicates the (benchmark,
config) job matrix against both caches and hands the remaining
:class:`SimJob` records, longest first, to an execution backend (see
:mod:`repro.distrib.backend`).  Whatever runs a job -- this process, a
pool child or a queue worker -- simulates it through :func:`run_job`.
With ``shards > 1`` each benchmark is additionally split into
checkpointed slices (see :mod:`repro.experiments.sharding`) that are
scheduled as independent jobs, cutting the tail latency a single long
benchmark otherwise imposes on the whole sweep.  Because simulation is
deterministic, every backend returns bit-identical stats at any shard
count.
"""

from __future__ import annotations

import math
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core import MachineConfig, SimStats, simulate
from repro.experiments import sharding
from repro.experiments.cache import ResultCache, disk_cache_enabled, result_key
from repro.experiments.warming import WarmState
from repro.functional.emulator import Checkpoint
from repro.isa.program import Program
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.variants import get_builder, variant_names
from repro.workloads import workload_names
from repro.workloads.spec_like import estimate_dynamic_insts

#: The full benchmark list (paper Figure 4 order).
DEFAULT_BENCHMARKS: Tuple[str, ...] = tuple(workload_names())

#: "Every other benchmark", as the paper uses for Figure 5/6 in the interest
#: of space; also the default for the pytest benchmark harness.
FAST_BENCHMARKS: Tuple[str, ...] = (
    "crafty", "eon.k", "gap", "gzip", "parser", "perl.s", "vortex", "vpr.r",
)

#: An even smaller subset for smoke tests.
SMOKE_BENCHMARKS: Tuple[str, ...] = ("gzip", "crafty", "mcf")

_DISK_CACHE: Optional[ResultCache] = None


#: The run-telemetry counter names, in ``--verbose`` print order.
_TELEMETRY_FIELDS = (
    "simulations", "cycles_simulated", "cycles_elided", "memory_hits",
    "disk_hits", "memory_evictions", "slices_simulated", "remote_jobs",
    "leases_reclaimed", "corrupt_quarantined", "io_retries",
    "cache_degraded", "fenced",
)


class RunTelemetry:
    """In-process counters describing where results came from.

    ``simulations`` counts only simulations run *by this process* (pool
    children report back to the parent, so they are included); work done by
    remote workers under the distributed backend lands in ``remote_jobs``
    instead, so a ``--verbose`` summary stays truthful about who computed
    what.  ``leases_reclaimed`` counts crashed-worker leases this process
    reclaimed for the fleet.

    The reliability counters: ``corrupt_quarantined`` cache entries moved
    to ``corrupt/`` after failing integrity verification, ``io_retries``
    transient-IO retries spent by :func:`repro.reliability.retry.with_retries`,
    ``cache_degraded`` disk-cache writes that failed outright and fell
    back to memory-only, and ``fenced`` jobs abandoned un-published after
    this process lost its lease.

    The values live in the process-wide metrics registry
    (:data:`repro.obs.metrics.REGISTRY`, names ``run.<field>``) so every
    reporting surface reads the same numbers; this class is an attribute
    proxy preserving the ``telemetry.simulations += 1`` call sites.
    """

    FIELDS = _TELEMETRY_FIELDS
    __slots__ = ("_registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        object.__setattr__(self, "_registry",
                           registry if registry is not None else REGISTRY)

    def __getattr__(self, name: str) -> int:
        if name in _TELEMETRY_FIELDS:
            return self._registry.counter("run." + name)
        raise AttributeError(name)

    def __setattr__(self, name: str, value: int) -> None:
        if name not in _TELEMETRY_FIELDS:
            raise AttributeError(f"unknown telemetry counter {name!r}")
        self._registry.set_counter("run." + name, int(value))

    def reset(self) -> None:
        self._registry.reset("run.")

    def to_dict(self) -> Dict[str, int]:
        return {name: self._registry.counter("run." + name)
                for name in _TELEMETRY_FIELDS}


telemetry = RunTelemetry()


class EnvVarError(SystemExit):
    """A malformed ``REPRO_*`` environment variable.

    Subclasses :class:`SystemExit` so a bad value aborts CLI runs with a
    one-line message instead of a ``ValueError`` traceback out of
    ``float()``/``int()``, while still being catchable in library use.
    """

    def __init__(self, name: str, value: str, expected: str):
        self.name = name
        self.value = value
        super().__init__(
            f"invalid {name}={value!r}: expected {expected} "
            f"(unset it or fix the value)")


def env_float(name: str, default: str) -> float:
    """Read a positive, finite float from the environment (or ``default``)."""
    raw = os.environ.get(name, default).strip() or default
    try:
        value = float(raw)
    except ValueError:
        raise EnvVarError(name, raw, "a number (e.g. 0.5)") from None
    if not math.isfinite(value) or value <= 0:
        raise EnvVarError(name, raw, "a positive finite number (e.g. 0.5)")
    return value


def _env_int(name: str, default: str,
             expected: str = "an integer") -> int:
    raw = os.environ.get(name, default).strip() or default
    try:
        return int(raw)
    except ValueError:
        raise EnvVarError(name, raw, expected) from None


def default_scale() -> float:
    """Workload scale factor, overridable with the ``REPRO_SCALE`` env var.

    1.0 reproduces the sizes listed in DESIGN.md (10k-60k dynamic
    instructions per benchmark); smaller values shorten every experiment
    proportionally.  A malformed value raises :class:`EnvVarError` with a
    clear message instead of a bare ``ValueError`` traceback.
    """
    return env_float("REPRO_SCALE", "0.5")


def default_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_JOBS`` > serial.

    ``0`` (or any non-positive value) means "one worker per CPU".  A
    malformed ``REPRO_JOBS`` raises :class:`EnvVarError` with a clear
    message instead of a bare ``ValueError`` traceback.
    """
    if jobs is None:
        jobs = _env_int("REPRO_JOBS", "1",
                        "an integer (0 = one worker per CPU)")
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def default_shards(shards: Optional[int] = None) -> int:
    """Resolve a shard count: explicit > ``REPRO_SHARDS`` > unsharded.

    ``1`` (the default) is the unsharded engine with bit-identical results;
    higher values split every benchmark into that many checkpointed slices.
    The count is clamped to :data:`repro.experiments.sharding.MAX_SHARDS`.
    A bad env value raises :class:`EnvVarError`; a bad explicit argument is
    the caller's bug and raises :class:`ValueError`.
    """
    if shards is None:
        shards = _env_int("REPRO_SHARDS", "1",
                          "a positive shard count (1 = unsharded)")
        if shards < 1:
            raise EnvVarError("REPRO_SHARDS", str(shards),
                              "a positive shard count (1 = unsharded)")
    elif shards < 1:
        raise ValueError(f"shards must be >= 1 (got {shards}); "
                         f"1 means unsharded")
    return min(shards, sharding.MAX_SHARDS)


def default_warmup_fraction() -> float:
    """Detailed slice warm-up as a fraction of the slice, from the
    ``REPRO_SHARD_WARMUP`` env var (default 0.25)."""
    return env_float("REPRO_SHARD_WARMUP",
                     str(sharding.DEFAULT_WARMUP_FRACTION))


def default_variant() -> Optional[str]:
    """Machine variant from the ``REPRO_VARIANT`` env var (None = unset).

    Resolved at the CLI layer (so ``repro run``/``repro figures`` honour the
    environment) rather than inside :func:`run_suite`, which keeps sweeps
    that mix variants deliberately -- the scenario matrix -- composable.  An
    unregistered name raises :class:`EnvVarError` with the registered list.
    """
    raw = os.environ.get("REPRO_VARIANT", "").strip()
    if not raw:
        return None
    names = variant_names()
    if raw not in names:
        raise EnvVarError("REPRO_VARIANT", raw,
                          "a registered machine variant "
                          f"({', '.join(names)})")
    return raw


def validate_variant(variant: str) -> str:
    """Return ``variant`` if registered, else abort with a one-line error.

    Validation happens eagerly so a typo fails before any simulation (or
    pool spawn) happens, in the same one-line style as :class:`EnvVarError`.
    """
    get_builder(variant)   # raises UnknownVariantError on a bad name
    return variant


def apply_variant(configs: Mapping[str, MachineConfig],
                  variant: Optional[str]) -> Mapping[str, MachineConfig]:
    """Re-target every configuration at ``variant`` (None = leave as-is)."""
    if variant is None:
        return configs
    validate_variant(variant)
    return {name: config.with_variant(variant)
            for name, config in configs.items()}


#: Capacity of the in-process result memo, in entries.
MEMO_ENTRIES = 4096


class _LruMemo:
    """A small LRU mapping of cache key -> :class:`SimStats`.

    Bounds the in-process memo so a long-lived process sweeping many
    (benchmark, scale, config) points does not grow memory without limit;
    evictions are surfaced in :data:`telemetry`.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, SimStats]" = OrderedDict()

    def get(self, key: str) -> Optional[SimStats]:
        stats = self._entries.get(key)
        if stats is not None:
            self._entries.move_to_end(key)
        return stats

    def __setitem__(self, key: str, stats: SimStats) -> None:
        self._entries[key] = stats
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            telemetry.memory_evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()


_MEMORY_CACHE = _LruMemo(MEMO_ENTRIES)


def _disk_cache() -> Optional[ResultCache]:
    """The process-wide disk cache (None when disabled)."""
    global _DISK_CACHE
    if not disk_cache_enabled():
        return None
    if _DISK_CACHE is None:
        _DISK_CACHE = ResultCache()
    return _DISK_CACHE


def clear_cache(disk: bool = False) -> int:
    """Drop the in-process memos (and optionally the on-disk cache)."""
    global _DISK_CACHE
    _MEMORY_CACHE.clear()
    sharding.clear_plan_memo()
    removed = 0
    if disk:
        cache = _disk_cache()
        if cache is not None:
            removed = cache.clear()
    _DISK_CACHE = None
    return removed


# ----------------------------------------------------------------------
# one simulation job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimJob:
    """One schedulable simulation: a whole program or one slice of it.

    ``key`` is the content address the result is cached under; ``work``
    estimates the job's length in instructions, which orders jobs
    longest-first so short jobs backfill around the stragglers.
    ``slice_spec`` and ``checkpoint`` are None for a whole-program job;
    ``warm`` is None for it and for a slice that starts at instruction 0.
    """

    key: str
    benchmark: str
    config: MachineConfig
    scale: float
    work: int
    slice_spec: Optional[sharding.SliceSpec] = None
    checkpoint: Optional[Checkpoint] = None
    warm: Optional[WarmState] = None


def run_job(job: SimJob, program: Program) -> SimStats:
    """Simulate ``job`` on ``program``, its benchmark built at its scale.

    The engine's only call into the simulator, whichever backend runs the
    job: this process, a pool child or a queue worker.
    """
    if job.slice_spec is None:
        stats = simulate(program, job.config, name=job.benchmark)
    else:
        stats = sharding.simulate_slice(program, job.config, job.slice_spec,
                                        job.checkpoint, job.warm,
                                        name=job.benchmark)
    return _record_simulation(stats)


def _record_simulation(stats: SimStats) -> SimStats:
    """Count one simulation and fold its cycles into the run telemetry.

    ``cycles_elided`` tracks how much of the simulated time the
    event-horizon driver jumped rather than stepped -- the ``--verbose``
    summary reports the fraction so a perf investigation can see at a
    glance whether elision engaged.
    """
    telemetry.simulations += 1
    telemetry.cycles_simulated += stats.cycles
    telemetry.cycles_elided += stats.cycles_elided
    return stats


def _cache_lookup(key: str) -> Optional[SimStats]:
    """Memory first, then disk; disk hits are promoted to memory."""
    stats = _MEMORY_CACHE.get(key)
    if stats is not None:
        telemetry.memory_hits += 1
        return stats
    disk = _disk_cache()
    if disk is not None:
        stats = disk.load(key)
        if isinstance(stats, SimStats):
            telemetry.disk_hits += 1
            _MEMORY_CACHE[key] = stats
            return stats
    return None


def _cache_store(key: str, stats: SimStats, to_disk: bool = True) -> None:
    _MEMORY_CACHE[key] = stats
    if to_disk:
        disk = _disk_cache()
        if disk is not None and not disk.store(key, stats):
            _disk_write_failed(key)


def _disk_write_failed(key: str) -> None:
    """Graceful degradation: the result lives on in the in-memory LRU for
    this process; only re-runs lose the disk hit."""
    telemetry.cache_degraded += 1
    print(f"repro: warning: disk cache write failed for "
          f"{key[:16]}; result kept in memory only", file=sys.stderr)


def run_benchmark(benchmark: str, config: MachineConfig,
                  scale: Optional[float] = None,
                  use_cache: bool = True,
                  shards: Optional[int] = None,
                  variant: Optional[str] = None,
                  backend: Optional[object] = None) -> SimStats:
    """Simulate one benchmark under one machine configuration.

    A one-cell :func:`run_suite` on one worker: ``shards``, ``variant``
    and ``backend`` mean what they mean there.
    """
    results = run_suite([benchmark], {"_": config}, scale=scale, jobs=1,
                        use_cache=use_cache, shards=shards, variant=variant,
                        backend=backend)
    return results["_"][benchmark]


# ----------------------------------------------------------------------
# the suite engine
# ----------------------------------------------------------------------
@dataclass
class SuitePlan:
    """One suite's worth of planned work, before any job executes.

    Produced by :func:`plan_suite` and consumed by :func:`finish_suite`;
    in between, ``jobs`` go to whichever
    :class:`~repro.distrib.backend.ExecutionBackend` the caller selected.
    Splitting planning from execution is what lets ``repro submit``
    publish a sweep's jobs to the distributed queue *without* waiting for
    the results: the plan's cache probes have already filtered out
    everything a previous (or concurrent) run resolved.
    """

    scale: float
    shards: int
    use_cache: bool
    #: Pre-filled from cache: results[config_name][benchmark] -> SimStats.
    results: Dict[str, Dict[str, SimStats]]
    #: content key -> every (config name, benchmark) cell it resolves.
    placements: Dict[str, List[Tuple[str, str]]]
    #: (key, benchmark, config) still needing work (merged key if sharded).
    pending: List[Tuple[str, str, MachineConfig]]
    #: One job per simulation, longest first.
    jobs: List[SimJob]
    #: sharded only: slice cache key -> (merged key, slice index).
    slice_of: Dict[str, Tuple[str, int]]
    #: sharded only: merged key -> {slice index: stats} already cached.
    gathered: Dict[str, Dict[int, SimStats]]


def plan_suite(benchmarks: Iterable[str],
               configs: Mapping[str, MachineConfig],
               scale: Optional[float] = None,
               shards: Optional[int] = None,
               warmup_fraction: Optional[float] = None,
               use_cache: bool = True) -> SuitePlan:
    """Plan a suite: dedupe cells, probe the caches, expand slices.

    ``None`` for ``scale``, ``shards`` or ``warmup_fraction`` resolves
    through :func:`default_scale`, :func:`default_shards` and
    :func:`default_warmup_fraction`.  Every config's variant is validated
    up front: an unregistered name aborts here with the one-line error,
    not in a pool worker later.  The returned plan's ``jobs`` are exactly
    the simulations no cache could answer, longest first, with sharded
    benchmarks expanded into per-slice jobs parameterised by their
    checkpoint.
    """
    for config in configs.values():
        validate_variant(config.variant)
    scale = default_scale() if scale is None else scale
    shards = default_shards(shards)
    if warmup_fraction is None:
        warmup_fraction = default_warmup_fraction()
    benchmarks = list(benchmarks)
    results: Dict[str, Dict[str, SimStats]] = {name: {} for name in configs}
    # One simulation per unique content key, however many names point at it.
    placements: Dict[str, List[Tuple[str, str]]] = {}
    job_specs: Dict[str, Tuple[str, MachineConfig]] = {}
    for config_name, config in configs.items():
        for benchmark in benchmarks:
            if shards > 1:
                key = sharding.merged_key(benchmark, scale, config,
                                          shards, warmup_fraction)
            else:
                key = result_key(benchmark, scale, config)
            placements.setdefault(key, []).append((config_name, benchmark))
            job_specs.setdefault(key, (benchmark, config))

    pending: List[Tuple[str, str, MachineConfig]] = []
    for key, (benchmark, config) in job_specs.items():
        stats = _cache_lookup(key) if use_cache else None
        if stats is None:
            pending.append((key, benchmark, config))
        else:
            for config_name, bench in placements[key]:
                results[config_name][bench] = stats

    plan = SuitePlan(scale=scale, shards=shards, use_cache=use_cache,
                     results=results, placements=placements,
                     pending=pending, jobs=[], slice_of={}, gathered={})
    if shards <= 1:
        plan.jobs = [SimJob(key, benchmark, config, scale,
                            estimate_dynamic_insts(benchmark, scale))
                     for key, benchmark, config in pending]
    else:
        _expand_slices(plan, warmup_fraction)
    plan.jobs.sort(key=lambda job: job.work, reverse=True)
    return plan


def _expand_slices(plan: SuitePlan, warmup_fraction: float) -> None:
    """Turn each pending benchmark x config into its uncached slice jobs."""
    scale, shards = plan.scale, plan.shards
    disk = _disk_cache() if plan.use_cache else None
    plan.gathered = {key: {} for key, _, _ in plan.pending}
    for key, benchmark, config in plan.pending:
        # Memoised: configs sharing a memory system and predictor share it.
        shard_plan = sharding.build_plan(benchmark, scale, shards, config,
                                         warmup_fraction, cache=disk)
        for spec in shard_plan.slices:
            skey = sharding.slice_key(benchmark, scale, config, shards,
                                      warmup_fraction, spec.index)
            plan.slice_of[skey] = (key, spec.index)
            stats = _cache_lookup(skey) if plan.use_cache else None
            if stats is None:
                plan.jobs.append(SimJob(
                    skey, benchmark, config, scale, spec.work,
                    slice_spec=spec,
                    checkpoint=shard_plan.checkpoint_for(spec),
                    warm=shard_plan.warm_for(spec)))
            else:
                plan.gathered[key][spec.index] = stats


def finish_suite(plan: SuitePlan,
                 outcomes: Mapping[str, SimStats]) -> Dict[str, Dict[str, SimStats]]:
    """Assemble a plan plus its backend outcomes into suite results.

    For sharded plans this is where slices merge (and the merged result is
    cached under its shard-aware key) -- workers only ever compute slices,
    so the submit side owns the merge whichever backend ran the jobs.
    """
    if not plan.pending:
        return plan.results
    if plan.shards <= 1:
        for key, _, _ in plan.pending:
            stats = outcomes[key]
            for config_name, bench in plan.placements[key]:
                plan.results[config_name][bench] = stats
        return plan.results

    for skey, stats in outcomes.items():
        key, index = plan.slice_of[skey]
        plan.gathered[key][index] = stats
    for key, benchmark, config in plan.pending:
        parts = [stats for _, stats in sorted(plan.gathered[key].items())]
        merged = sharding.merge_slices(parts)
        if plan.use_cache:
            _cache_store(key, merged)
        for config_name, bench in plan.placements[key]:
            plan.results[config_name][bench] = merged
    return plan.results


def run_suite(benchmarks: Iterable[str],
              configs: Mapping[str, MachineConfig],
              scale: Optional[float] = None,
              jobs: Optional[int] = None,
              use_cache: bool = True,
              shards: Optional[int] = None,
              warmup_fraction: Optional[float] = None,
              variant: Optional[str] = None,
              backend: Optional[object] = None,
              ) -> Dict[str, Dict[str, SimStats]]:
    """Run every benchmark under every named configuration.

    Returns ``results[config_name][benchmark] -> SimStats``.  Every
    uncached job is routed through an execution backend (see
    :mod:`repro.distrib.backend`): ``backend`` may be an instance or one
    of the names ``local``/``distributed``; ``None`` falls back to
    ``REPRO_BACKEND`` and finally to the local backend with ``jobs``
    workers -- this process for one worker, a process pool for more.
    Results are bit-identical across backends because simulation is
    deterministic; the distributed backend publishes jobs to the shared
    filesystem queue where any fleet of ``repro worker`` processes
    (sharing ``REPRO_CACHE_DIR``) drains them.  Identical
    configurations registered under different names are deduplicated and
    simulated once.

    ``shards > 1`` splits every benchmark into that many checkpointed
    slices which are scheduled as independent jobs (see
    :mod:`repro.experiments.sharding`): per-slice results are cached under
    content keys of their own, checkpoints are built once per benchmark and
    shared across every config with the same memory system and branch
    predictor, and the merged stats are cached under a
    shard-aware key so they can never shadow an unsharded result.

    ``variant`` re-targets every configuration at one registered machine
    variant (a convenience over calling ``with_variant`` on each); ``None``
    leaves the per-config ``variant`` fields -- which may deliberately
    differ, as in the scenario matrix -- untouched.  Either way the variant
    rides inside the config, so worker jobs, slice keys and the result
    cache distinguish variants with no further plumbing: the variant
    participates in ``MachineConfig.fingerprint()``.  Checkpoint plans stay
    variant-independent (the architectural stream is shared by every
    variant) and are reused across the whole matrix by every config with
    the same memory system and branch predictor, which the plan warms.
    """
    from repro.distrib.backend import resolve_backend

    configs = apply_variant(configs, variant)
    jobs = default_jobs(jobs)
    plan = plan_suite(benchmarks, configs, scale, shards, warmup_fraction,
                      use_cache)
    outcomes: Mapping[str, SimStats] = {}
    if plan.jobs:
        simulated_before = telemetry.simulations
        outcomes = resolve_backend(backend, jobs).execute(plan.jobs,
                                                          use_cache)
        if plan.shards > 1:
            telemetry.slices_simulated += (telemetry.simulations
                                           - simulated_before)
    return finish_suite(plan, outcomes)
