"""Checkpointed slice sharding: one benchmark simulated on many cores.

``run_suite`` fans out across (benchmark, config) jobs, but each simulation
is a single serial cycle loop, so the wall-clock time of a sweep is pinned
to its longest benchmark.  This module cuts that tail latency by splitting
one simulation into ``shards`` independently schedulable *slices*:

1. the functional emulator fast-forwards the program once to size it, then
   again up to the last slice start, capturing an architectural checkpoint
   (registers + sparse memory + PC + retired instruction count) at every
   slice start.  The second pass also drives the caches, TLBs and branch
   predictor with the committed stream and stores their state beside each
   checkpoint after instruction 0 (functional warming, see
   :mod:`repro.experiments.warming`);
2. each slice resumes the timing core from its checkpoint, restores the
   warm cache and predictor state, runs a stats-discarded detailed
   *warm-up* (default: a quarter of a slice, which rebuilds the pipeline,
   integration table, CHT, LISP and register file), then counts exactly
   ``budget`` retirements;
3. the per-slice :class:`~repro.core.stats.SimStats` recombine losslessly
   with :meth:`SimStats.merge` -- retired-instruction counts tile the
   program exactly, so all rate metrics keep their true denominators.

Plans depend only on (benchmark, scale, slice starts, memory-system and
predictor configuration) -- never on the integration configuration *or the
machine variant* (every variant retires the same architectural stream;
DIVA guarantees it) -- so one plan is built per benchmark and reused by
*every* config and variant in a sweep that shares those two parts; it is
content-addressed on disk next to the result cache.  Slice and merged
results, by contrast, are cycle-level and therefore variant-specific:
:func:`slice_key` and :func:`merged_key` hash the full
``MachineConfig.fingerprint()``, which includes the variant name, so two
variants of the same configuration can never shadow each other's entries.

Accuracy: ``shards=1`` is the unsharded engine (bit-identical stats).  A
slice that starts at instruction 0 needs no warm state: with
``warmup_fraction >= 1.0``, ``shards=2`` is therefore exact -- slice 1's
warm-up replays slice 0 from reset, so every architectural counter and the
cycle count match the whole run (only the per-cycle RS-occupancy
accumulator can drift by a few samples at the seam).  A slice that starts
later restores functionally warmed caches and predictor, which leaves a
small delta in cycle-accurate metrics (IPC): at ``shards=4`` and the
default warm-up, within 1.5% of the whole run on perfbench's sweep
benchmarks at scale 0.05, and within 4% at scale 0.3 under full
integration, whose tables only the detailed warm-up rebuilds.
Retired-instruction counters (integration counts, retired mixes and every
rate denominator) tile exactly at *any* shard count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core import MachineConfig, Processor, SimStats
from repro.experiments.cache import PayloadCache, code_version
from repro.experiments.warming import WarmState, warm_checkpoints
from repro.functional.emulator import Checkpoint, collect_checkpoints
from repro.isa.program import Program
from repro.workloads import build_workload

#: Hard ceiling on the shard count (more slices than this is never useful
#: for the synthetic workloads and would drown the run in warm-up work).
MAX_SHARDS = 64

#: Default detailed warm-up, as a fraction of the slice length.  Caches,
#: TLBs and the branch predictor arrive warm from the plan; the warm-up
#: rebuilds the state that depends on timing and physical registers.
DEFAULT_WARMUP_FRACTION = 0.25


# ----------------------------------------------------------------------
# slice plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SliceSpec:
    """One schedulable slice of a benchmark's dynamic instruction stream."""

    index: int          # slice number, 0-based
    start: int          # checkpoint position (dynamic instruction count)
    boundary: int       # first *counted* instruction (start + warm-up)
    budget: int         # counted retirements, exact (>= 1 for real slices)

    @property
    def warmup(self) -> int:
        return self.boundary - self.start

    @property
    def work(self) -> int:
        """Detailed-simulation work in instructions (warm-up + counted)."""
        return self.warmup + self.budget

    # The distributed job queue ships slices inside self-contained JSON
    # payloads (see :mod:`repro.distrib.worker`).
    def to_dict(self) -> Dict[str, int]:
        return {"index": self.index, "start": self.start,
                "boundary": self.boundary, "budget": self.budget}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SliceSpec":
        return cls(index=int(data["index"]), start=int(data["start"]),
                   boundary=int(data["boundary"]),
                   budget=int(data["budget"]))


@dataclass(frozen=True)
class ShardPlan:
    """Everything needed to simulate one benchmark as independent slices."""

    benchmark: str
    scale: float
    shards: int
    warmup_fraction: float
    total_insts: int
    slices: Sequence[SliceSpec]
    checkpoints: Dict[int, Checkpoint]   # keyed by SliceSpec.start
    warm: Dict[int, WarmState]           # keyed by SliceSpec.start > 0

    def checkpoint_for(self, spec: SliceSpec) -> Checkpoint:
        return self.checkpoints[spec.start]

    def warm_for(self, spec: SliceSpec) -> Optional[WarmState]:
        """The warm cache and predictor state, None for a start at 0."""
        return self.warm.get(spec.start)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "shards": self.shards,
            "warmup_fraction": self.warmup_fraction,
            "total_insts": self.total_insts,
            "slices": [[s.index, s.start, s.boundary, s.budget]
                       for s in self.slices],
            "checkpoints": {str(start): cp.to_dict()
                            for start, cp in self.checkpoints.items()},
            "warm": {str(start): warm.to_dict()
                     for start, warm in self.warm.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardPlan":
        return cls(
            benchmark=data["benchmark"],
            scale=float(data["scale"]),
            shards=int(data["shards"]),
            warmup_fraction=float(data["warmup_fraction"]),
            total_insts=int(data["total_insts"]),
            slices=tuple(SliceSpec(index=i, start=s, boundary=b, budget=n)
                         for i, s, b, n in data["slices"]),
            checkpoints={int(start): Checkpoint.from_dict(cp)
                         for start, cp in data["checkpoints"].items()},
            warm={int(start): WarmState.from_dict(warm)
                  for start, warm in data["warm"].items()},
        )


def plan_boundaries(total: int, shards: int,
                    warmup_fraction: float) -> List[SliceSpec]:
    """Partition ``total`` instructions into ``shards`` contiguous slices.

    Counted regions tile ``[0, total)`` exactly; each slice after the first
    starts ``round(slice_len * warmup_fraction)`` instructions early for its
    stats-discarded warm-up.  Slices whose counted region would be empty are
    dropped (a tiny program may yield fewer slices than requested).
    """
    if total <= 0:
        return [SliceSpec(index=0, start=0, boundary=0, budget=0)]
    shards = max(1, min(int(shards), total))
    slice_len = -(-total // shards)          # ceil division
    warmup = int(round(slice_len * warmup_fraction))
    slices: List[SliceSpec] = []
    for index in range(shards):
        boundary = index * slice_len
        if boundary >= total:
            break
        budget = min(slice_len, total - boundary)
        start = max(0, boundary - warmup) if index else 0
        slices.append(SliceSpec(index=index, start=start,
                                boundary=boundary, budget=budget))
    return slices


# ----------------------------------------------------------------------
# checkpoint cache (per benchmark x scale, shared across configs)
# ----------------------------------------------------------------------
_PLAN_MEMO: Dict[str, ShardPlan] = {}


def plan_key(benchmark: str, scale: float, shards: int,
             warmup_fraction: float, config: MachineConfig) -> str:
    """Content address of a checkpoint plan.  Of the configuration only the
    memory system and the branch predictor, which the plan warms, count."""
    material = "|".join((
        "shard-plan", benchmark, repr(float(scale)), str(int(shards)),
        repr(float(warmup_fraction)), config.memsys.fingerprint(),
        config.branch_predictor.fingerprint(), code_version(),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def build_plan(benchmark: str, scale: float, shards: int,
               config: MachineConfig,
               warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
               program: Optional[Program] = None,
               cache: Optional[PayloadCache] = None) -> ShardPlan:
    """Build (or recall) the checkpoint plan for one benchmark x scale,
    warmed with ``config``'s memory system and branch predictor.

    The functional fast-forward runs at most twice (once to size the
    program, once up to the last slice start to capture checkpoints and
    warm state) and the result is memoised in-process and content-addressed
    on disk, so a sweep over many machine configurations pays for it once.
    Plans are built serially in the parent (the checkpoints must be in the
    parent anyway to parameterise the slice jobs); amortised across configs
    and warm runs, this has not been worth parallelising.
    """
    key = plan_key(benchmark, scale, shards, warmup_fraction, config)
    plan = _PLAN_MEMO.get(key)
    if plan is not None:
        return plan
    if cache is not None:
        payload = cache.load_payload(key)
        if payload is not None:
            try:
                plan = ShardPlan.from_dict(payload)
            except Exception:
                plan = None
            if plan is not None:
                _PLAN_MEMO[key] = plan
                return plan
    if program is None:
        program = build_workload(benchmark, scale=scale)
    # Pass 1: exact dynamic length (needed to place the boundaries).
    total, _ = collect_checkpoints(program, ())
    slices = plan_boundaries(total, shards, warmup_fraction)
    # Pass 2: checkpoints and warm state at every distinct slice start.
    checkpoints, warm = warm_checkpoints(
        program, [s.start for s in slices], config.memsys,
        config.branch_predictor)
    plan = ShardPlan(
        benchmark=benchmark, scale=scale, shards=shards,
        warmup_fraction=warmup_fraction, total_insts=total,
        slices=tuple(slices),
        checkpoints={cp.insts: cp for cp in checkpoints}, warm=warm,
    )
    _PLAN_MEMO[key] = plan
    if cache is not None:
        cache.store_payload(key, plan.to_dict())
    return plan


def clear_plan_memo() -> None:
    """Drop the in-process plan memo (tests and cache management)."""
    _PLAN_MEMO.clear()


# ----------------------------------------------------------------------
# slice simulation + recombination
# ----------------------------------------------------------------------
def slice_key(benchmark: str, scale: float, config: MachineConfig,
              shards: int, warmup_fraction: float, index: int) -> str:
    """Content address of one slice's SimStats."""
    material = "|".join((
        "slice", benchmark, repr(float(scale)), config.fingerprint(),
        str(int(shards)), repr(float(warmup_fraction)), str(int(index)),
        code_version(),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def merged_key(benchmark: str, scale: float, config: MachineConfig,
               shards: int, warmup_fraction: float) -> str:
    """Content address of the merged sharded result.

    Deliberately distinct from :func:`repro.experiments.cache.result_key`:
    a sharded result is an approximation of the whole run for cycle-accurate
    metrics, so it must never be returned for an unsharded request.
    """
    material = "|".join((
        "merged", benchmark, repr(float(scale)), config.fingerprint(),
        str(int(shards)), repr(float(warmup_fraction)), code_version(),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def simulate_slice(program: Program, config: MachineConfig,
                   spec: SliceSpec, checkpoint: Checkpoint,
                   warm: Optional[WarmState],
                   name: Optional[str] = None) -> SimStats:
    """Simulate one slice: resume, restore ``warm``, warm up (stats
    discarded), count.

    ``warm`` is what :meth:`ShardPlan.warm_for` gives for the slice (None
    for a start at 0), from a plan built with ``config``'s memory system
    and predictor.  The budget is exact (the commit stage stops on the
    boundary), so the counted regions of consecutive slices tile the
    program without overlap.
    """
    initial_state = checkpoint.state() if spec.start else None
    processor = Processor(program, config, name=name or program.name,
                          initial_state=initial_state)
    if warm is not None:
        warm.restore(processor.mem, processor.predictor)
    return processor.run(max_instructions=spec.budget,
                         warmup_instructions=spec.warmup)


def merge_slices(parts: Sequence[SimStats]) -> SimStats:
    """Recombine per-slice stats (in any order) into one result."""
    return SimStats.merge_all(parts)
