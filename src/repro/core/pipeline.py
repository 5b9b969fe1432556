r"""The cycle-level out-of-order processor engine.

:class:`Processor` is a construction-free engine: a
:class:`~repro.core.builder.MachineBuilder` (resolved from the ``variant``
field of the :class:`~repro.core.config.MachineConfig` via the
:mod:`repro.variants` registry, or passed explicitly) assembles the
substrates and wires them into the four stage components of
:mod:`repro.core.stages`; the engine only advances the clock and enforces
the run limits.  All per-stage behaviour lives in the stage classes; all
per-slot construction lives in the builder.

Pipeline organisation (13 stages, paper Section 3.1)::

    fetch(3)  decode(1)  rename(1) | schedule(2) regread(2) execute  wb(1) | DIVA(1) retire(1)
    \------ FrontEnd ------/\-- RenameIntegrate  \--- IssueExecute ---/\- CommitDiva -/

Integrating instructions leave the pipeline at rename: they are never
allocated reservation stations, never issue, and never touch the data cache;
they wait in the reorder buffer until their (shared) physical register value
is ready and then pass through DIVA and retirement like everything else.

Each simulated cycle runs writeback, commit, issue, rename and fetch -- in
that order, so results written back in cycle N are visible to retirement in
the same cycle, matching the seed model exactly.
"""

from __future__ import annotations

import gc
import os
from heapq import heappop
from typing import Optional, Tuple

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.core.diva import SimulationError
from repro.core.stages import Stage
from repro.core.stages.commit import CommitDiva
from repro.core.stages.execute import IssueExecute
from repro.core.stages.frontend import FrontEnd
from repro.core.stages.rename import RenameIntegrate
from repro.core.stats import SimStats
from repro.functional.state import ArchState
from repro.isa.program import Program
from repro.obs.cpi import (
    CPI_FRONTEND_EMPTY,
    CPI_MEMORY,
    CPI_RENAME_STALL,
    CPI_RETIRED,
    CPI_WAITING_OPERANDS,
    classify_stall,
)


def fast_path_enabled() -> bool:
    """Validated accessor for ``REPRO_FAST_PATH`` (the only place it is
    read): any value but ``0`` keeps the fused quiescent-skipping driver
    available; ``0`` forces the generic :meth:`Processor.step` loop for
    equivalence testing."""
    return os.environ.get("REPRO_FAST_PATH", "1") != "0"


def elision_enabled() -> bool:
    """Validated accessor for ``REPRO_ELIDE`` (the only place it is read):
    any value but ``0`` lets the fused driver jump the clock across provably
    quiescent spans (event-horizon cycle elision); ``0`` forces per-cycle
    iteration for equivalence testing and timing-sensitive debugging."""
    return os.environ.get("REPRO_ELIDE", "1") != "0"


class Processor:
    """Cycle-level model of the paper's 4-way superscalar machine."""

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None,
                 name: Optional[str] = None,
                 initial_state: Optional[ArchState] = None,
                 builder: Optional[MachineBuilder] = None,
                 tracer=None):
        self.program = program
        self.config = config or MachineConfig()
        if builder is None:
            # Resolved here (not at import) so repro.variants can import the
            # builder/stage modules without a cycle.
            from repro.variants import get_builder
            builder = get_builder(self.config.variant)()
        self.builder = builder

        machine = builder.build(program, self.config, name=name,
                                initial_state=initial_state)
        self.state = machine.state
        #: Optional :class:`~repro.obs.trace.PipelineTracer` receiving the
        #: per-instruction lifecycle hooks from every stage.  An active
        #: tracer disables span elision (there would be no per-cycle events
        #: to observe inside a jump); results are bit-identical either way.
        self.tracer = tracer
        self.state.tracer = tracer
        self.front_end = machine.front_end
        self.recovery = machine.recovery
        self.rename_integrate = machine.rename_integrate
        self.issue_execute = machine.issue_execute
        self.commit_diva = machine.commit_diva
        #: Program order of the stage components (front of the pipe first).
        self.stages: Tuple[Stage, ...] = machine.stages

        # Counter baselines, advanced past the stats-discarded warm-up phase
        # of a sliced run (zero for ordinary whole-program runs).
        self._cycle_base = 0
        self._cht_hits_base = 0
        self._cht_trainings_base = 0

        # Convenience aliases kept for tests, tools and documentation.
        state = self.state
        self.arch = state.arch
        self.diva = state.diva
        self.mem = state.mem
        self.predictor = state.predictor
        self.prf = state.prf
        self.map_table = state.map_table
        self.renamer = state.renamer
        self.integration = state.integration
        self.rob = state.rob
        self.rs = state.rs
        self.lsq = state.lsq
        self.cht = state.cht
        self.stats = state.stats

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.state.cycle

    @property
    def fetch_queue(self):
        return self.front_end.fetch_queue

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole machine by one cycle.

        Back-to-front evaluation: results written back this cycle are
        visible to retirement, freed resources are visible to rename, and
        redirects take effect before the next fetch.
        """
        state = self.state
        stats = state.stats
        retired_before = stats.retired
        self.issue_execute.writeback()
        self.commit_diva.tick()
        self.issue_execute.tick()
        self.rename_integrate.tick()
        self.front_end.tick()
        stats.rs_occupancy_sum += state.rs.occupancy
        stats.rs_occupancy_samples += 1
        if stats.retired != retired_before:
            stats.cpi_stack[CPI_RETIRED] += 1
        else:
            stats.cpi_stack[classify_stall(state)] += 1
        state.cycle += 1

    def _fast_path_eligible(self) -> bool:
        """Whether the fused quiescent-skipping loop may drive this machine.

        The fused loop decides *whether* each stage has work from the shared
        engine state, so it is only used when every stage is exactly the
        stock implementation (a variant that overrides a stage falls back to
        the generic :meth:`step` loop) and the scheduler tracks readiness
        through a bound PRF.  ``REPRO_FAST_PATH=0`` forces the generic loop
        for equivalence testing.
        """
        return (fast_path_enabled()
                and type(self.front_end) is FrontEnd
                and type(self.rename_integrate) is RenameIntegrate
                and type(self.issue_execute) is IssueExecute
                and type(self.commit_diva) is CommitDiva
                and self.state.rs._prf is not None)

    def _run_phase(self, budget: Optional[int]) -> None:
        """Advance the clock until halt or exactly ``budget`` retirements.

        The commit stage refuses to retire past ``state.retire_budget``, so
        the machine stops on a precise architectural instruction boundary
        (the property sharded slices rely on to recombine losslessly).
        """
        state = self.state
        config = self.config
        state.retire_budget = budget
        if self._fast_path_eligible():
            self._run_phase_fast(budget)
            return
        while not state.arch.halted:
            if budget is not None and state.stats.retired >= budget:
                break
            if state.cycle >= config.max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded {config.max_cycles} cycles")
            if state.cycle - state.last_retire_cycle > config.deadlock_cycles:
                raise SimulationError(
                    f"{self.program.name}: no retirement for "
                    f"{config.deadlock_cycles} cycles at cycle {state.cycle} "
                    f"(ROB={len(state.rob)}, RS={state.rs.occupancy})")
            self.step()

    def _elide_target(self, cycle: int) -> int:
        """The furthest cycle the clock may jump to from quiescent ``cycle``.

        Returns ``cycle`` itself when the machine is *not* provably
        quiescent (some stage would do work, or attempt work with side
        effects, this cycle).  The caller has already established that no
        writeback event is scheduled for ``cycle`` and the ready pool is
        empty; this method checks the remaining stages and computes the
        horizon -- the earliest future cycle at which any stage could act:

        * fetch -- quiescent when halted, the queue is full, or a redirect
          is in flight (clamps the jump to ``fetch_resume_cycle``);
        * rename -- quiescent when the queue head has not decoded yet
          (clamps to its ready cycle) or is structurally blocked on a full
          ROB/RS/LSQ.  An unblocked head means ``RenameIntegrate.tick``
          would rename it -- and its integration-table probe (lookup
          counters, recency order) is not idempotent -- so that is never
          elided;
        * commit -- quiescent when the ROB is empty or the head cannot
          retire.  A head blocked only by the minimum rename-to-retire age
          clamps the jump to ``rename_cycle + 2``; a retirable head (which
          would also probe store-port acceptance) is never elided;
        * events -- the lazily pruned :attr:`IssueExecute.event_cycles`
          min-heap bounds the jump by the next scheduled wakeup/completion;
        * run limits -- the jump also stops exactly where the per-cycle
          loop would raise ``max_cycles`` / deadlock errors.

        Every quiescence condition above changes only through stage activity
        (events firing, retirement, squash), never with bare time -- the
        time-dependent conditions are the ones clamped -- so a span that is
        quiescent at ``cycle`` stays quiescent until the returned target.
        """
        state = self.state
        config = self.config
        frontend = self.front_end
        fetch_queue = frontend.fetch_queue

        target = config.max_cycles
        deadline = state.last_retire_cycle + config.deadlock_cycles + 1
        if deadline < target:
            target = deadline

        if (not frontend.fetch_halted
                and len(fetch_queue) < config.fetch_queue_size):
            resume = frontend.fetch_resume_cycle
            if resume <= cycle:
                return cycle
            if resume < target:
                target = resume

        if fetch_queue:
            head, ready_cycle = fetch_queue[0]
            if ready_cycle > cycle:
                if ready_cycle < target:
                    target = ready_cycle
            else:
                rob = state.rob
                if len(rob._entries) < rob.size:
                    info = head.info
                    rs = state.rs
                    lsq = state.lsq
                    if not ((info.needs_rs
                             and len(rs._waiting) >= rs.entries)
                            or (info.is_mem
                                and len(lsq._by_seq) >= lsq.size)):
                        return cycle

        rob_entries = state.rob._entries
        if rob_entries:
            head = rob_entries[0]
            if head.integrated:
                dest = head.dest_preg
                blocked = dest is not None and not state.prf.ready[dest]
            else:
                blocked = not head.completed
            if not blocked:
                earliest = head.rename_cycle + 2
                if earliest <= cycle:
                    return cycle
                if earliest < target:
                    target = earliest

        execute = self.issue_execute
        heap = execute.event_cycles
        while heap and heap[0] <= cycle:
            heappop(heap)
        if heap and heap[0] < target:
            target = heap[0]
        return target

    def _run_phase_fast(self, budget: Optional[int]) -> None:
        """The fused per-cycle loop: skip stages with provably no work.

        Per-cycle stage order and semantics are identical to :meth:`step`;
        the only difference is that a stage whose no-work early-return would
        fire is never called at all:

        * writeback -- no wakeup/completion event scheduled for this cycle,
        * commit -- reorder buffer empty,
        * issue -- ready pool empty (select cannot pick anything; holds for
          the in-order variant's scheduler too, which stops at the first
          not-ready instruction),
        * rename -- fetch queue empty or its head not yet decoded,
        * fetch -- halted, redirect in flight, or fetch queue full.

        All guards read live engine state that squash/recovery mutate in
        place, so a redirect or flush in cycle N is reflected by the guards
        of cycle N+1 exactly as in the generic loop.

        On top of the per-stage skips, a cycle on which *every* stage is
        provably quiescent (see :meth:`_elide_target`) advances the clock
        arithmetically to the event horizon in one jump: per-cycle
        occupancy statistics -- constant across the span, since only stage
        activity changes them -- are accumulated by multiplication, and the
        skipped iterations are counted in ``SimStats.cycles_elided``.
        ``REPRO_ELIDE=0`` disables the jump (bit-identical results either
        way, only wall-clock changes).
        """
        state = self.state
        config = self.config
        arch = state.arch
        stats = state.stats
        execute = self.issue_execute
        frontend = self.front_end
        wakeup_events = execute.wakeup_events
        complete_events = execute.complete_events
        rs_ready = state.rs._ready
        rs_waiting = state.rs._waiting
        rob_entries = state.rob._entries
        fetch_queue = frontend.fetch_queue
        fetch_queue_size = config.fetch_queue_size
        max_cycles = config.max_cycles
        deadlock_cycles = config.deadlock_cycles
        writeback = execute.writeback
        commit_tick = self.commit_diva.tick
        execute_tick = execute.tick
        rename_tick = self.rename_integrate.tick
        frontend_tick = frontend.tick
        elide_target = self._elide_target
        # An active tracer wants one hook call per per-cycle event, and an
        # elided span by construction has none; forcing REPRO_ELIDE-off
        # semantics keeps the trace complete (results are bit-identical).
        elide = elision_enabled() and state.tracer is None
        classify = classify_stall
        prf_ready = state.prf.ready
        occupancy_sum = 0
        samples = 0
        elided = 0
        cpi_retired = 0
        stalls: dict = {}
        cycle = state.cycle
        retired_at = state.last_retire_cycle
        try:
            while not arch.halted:
                if budget is not None and stats.retired >= budget:
                    break
                if cycle >= max_cycles:
                    raise SimulationError(
                        f"{self.program.name}: exceeded {max_cycles} cycles")
                if cycle - state.last_retire_cycle > deadlock_cycles:
                    raise SimulationError(
                        f"{self.program.name}: no retirement for "
                        f"{deadlock_cycles} cycles at cycle {cycle} "
                        f"(ROB={len(rob_entries)}, RS={len(rs_waiting)})")
                if cycle in wakeup_events or cycle in complete_events:
                    writeback()
                elif elide and not rs_ready:
                    target = elide_target(cycle)
                    if target > cycle:
                        span = target - cycle
                        occupancy_sum += span * len(rs_waiting)
                        samples += span
                        elided += span - 1
                        # Nothing retires inside a quiescent span and every
                        # classify_stall condition is constant across it
                        # (the span is clamped before the head's age gate
                        # opens and before the fetch head decodes), so the
                        # whole span takes the blame of the current state.
                        bucket = classify(state)
                        stalls[bucket] = stalls.get(bucket, 0) + span
                        cycle = target
                        state.cycle = cycle
                        continue
                if rob_entries:
                    commit_tick()
                if rs_ready:
                    execute_tick()
                if fetch_queue and fetch_queue[0][1] <= cycle:
                    rename_tick()
                if (not frontend.fetch_halted
                        and cycle >= frontend.fetch_resume_cycle
                        and len(fetch_queue) < fetch_queue_size):
                    frontend_tick()
                occupancy_sum += len(rs_waiting)
                samples += 1
                # ``last_retire_cycle`` is stamped by every retirement, so
                # any move past the ``retired_at`` watermark means this
                # cycle retired.  The stall branch is an inline mirror of
                # :func:`repro.obs.cpi.classify_stall` over hoisted locals;
                # the fast/slow fingerprint equivalence tests (which
                # include ``cpi_stack``) hold the two in lockstep.
                if state.last_retire_cycle != retired_at:
                    retired_at = state.last_retire_cycle
                    cpi_retired += 1
                else:
                    if rob_entries:
                        head = rob_entries[0]
                        if head.integrated:
                            dest = head.dest_preg
                            if dest is not None and not prf_ready[dest]:
                                bucket = CPI_WAITING_OPERANDS
                            else:
                                bucket = CPI_RENAME_STALL
                        elif head.completed:
                            bucket = CPI_RENAME_STALL
                        elif head.issued and head.info.is_mem:
                            bucket = CPI_MEMORY
                        else:
                            bucket = CPI_WAITING_OPERANDS
                    else:
                        bucket = state.stall_cause
                        if bucket is None:
                            bucket = CPI_FRONTEND_EMPTY
                    stalls[bucket] = stalls.get(bucket, 0) + 1
                cycle += 1
                state.cycle = cycle
        finally:
            stats.rs_occupancy_sum += occupancy_sum
            stats.rs_occupancy_samples += samples
            stats.cycles_elided += elided
            # Flush only non-zero buckets: a zero Counter entry would
            # serialize (and fingerprint) differently from an absent key.
            if cpi_retired:
                stats.cpi_stack[CPI_RETIRED] += cpi_retired
            cpi_stack = stats.cpi_stack
            for bucket, count in stalls.items():
                cpi_stack[bucket] += count

    def run(self, max_instructions: Optional[int] = None,
            warmup_instructions: int = 0) -> SimStats:
        """Simulate until the program exits (or a limit is hit).

        ``max_instructions`` is an *exact* retired-instruction budget.
        ``warmup_instructions`` retires that many instructions first in full
        detail but *discards* their statistics: microarchitectural state
        (caches, branch predictor, integration table) is warm when counting
        starts, which is what keeps a mid-program slice's IPC close to the
        same region of an uninterrupted run.  The warm-up instructions do
        advance architectural state, so a slice resumed from the checkpoint
        at ``boundary - warmup`` with ``warmup_instructions=warmup`` counts
        exactly the instructions in ``[boundary, boundary + budget)``.
        """
        # The per-cycle loop allocates heavily (DynInst, IT entries, event
        # buckets) but the object graph is cycle-free, so reference counting
        # reclaims everything promptly; pausing the cyclic collector for the
        # run avoids pointless generation scans in the middle of the hot
        # loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(max_instructions, warmup_instructions)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, max_instructions: Optional[int],
             warmup_instructions: int) -> SimStats:
        state = self.state
        if warmup_instructions:
            self._run_phase(warmup_instructions)
            # Reset the counters; microarchitectural state stays warm.
            warm = state.stats
            fresh = SimStats(benchmark=warm.benchmark,
                             config_name=warm.config_name,
                             variant=warm.variant)
            state.stats = fresh
            self.stats = fresh
            self._cycle_base = state.cycle
            self._cht_hits_base = state.cht.hits
            self._cht_trainings_base = state.cht.trainings
        remaining = None
        if max_instructions is not None:
            remaining = max(0, max_instructions)
        self._run_phase(remaining)
        stats = state.stats
        stats.cycles = state.cycle - self._cycle_base
        stats.cht_hits = state.cht.hits - self._cht_hits_base
        stats.cht_trainings = state.cht.trainings - self._cht_trainings_base
        return stats


def simulate(program: Program, config: Optional[MachineConfig] = None,
             name: Optional[str] = None,
             max_instructions: Optional[int] = None,
             initial_state: Optional[ArchState] = None,
             warmup_instructions: int = 0,
             builder: Optional[MachineBuilder] = None,
             tracer=None) -> SimStats:
    """Convenience wrapper: build a :class:`Processor` and run it.

    ``initial_state`` starts the machine from an architectural checkpoint
    (see :func:`repro.functional.emulator.collect_checkpoints`);
    ``warmup_instructions`` retires a stats-discarded detailed warm-up
    first; ``max_instructions`` then stops the run after exactly that many
    counted retirements.  Together they simulate one slice of a sharded
    run.  ``builder`` overrides the machine variant resolved from
    ``config.variant``; ``tracer`` attaches a
    :class:`~repro.obs.trace.PipelineTracer` to the lifecycle hooks.
    """
    processor = Processor(program, config=config, name=name,
                          initial_state=initial_state, builder=builder,
                          tracer=tracer)
    return processor.run(max_instructions=max_instructions,
                         warmup_instructions=warmup_instructions)
