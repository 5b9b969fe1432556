r"""The cycle-level out-of-order processor engine.

:class:`Processor` takes its substrates, as one
:class:`~repro.core.stages.PipelineState`, from a
:class:`~repro.core.builder.MachineBuilder` (resolved from the ``variant``
field of the :class:`~repro.core.config.MachineConfig` via the
:mod:`repro.variants` registry, or passed explicitly), wires the fixed
graph of the four stage components of :mod:`repro.core.stages` over them,
and then only advances the clock and enforces the run limits.  All
per-stage behaviour lives in the stage classes; all substrate construction
lives in the builder.

Pipeline organisation (13 stages, paper Section 3.1)::

    fetch(3)  decode(1)  rename(1) | schedule(2) regread(2) execute  wb(1) | DIVA(1) retire(1)
    \------ FrontEnd ------/\-- RenameIntegrate  \--- IssueExecute ---/\- CommitDiva -/

The model charges the fetch, decode, register-read and writeback depths of
the :class:`~repro.core.config.MachineConfig`; rename, schedule, DIVA and
retire have no knob, and an instruction retires two cycles after its rename
at the earliest.

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
from typing import Optional

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.core.diva import SimulationError
from repro.core.stages import (
    CommitDiva,
    FrontEnd,
    IssueExecute,
    RecoveryController,
    RenameIntegrate,
)
from repro.core.stats import SimStats
from repro.functional.state import ArchState
from repro.isa.program import Program
from repro.obs.cpi import CPI_RETIRED, classify_stall


def elision_enabled() -> bool:
    """Validated accessor for ``REPRO_ELIDE`` (the only place it is read):
    any value but ``0`` lets the driver jump the clock across provably
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
        self.config = config = config or MachineConfig()
        if builder is None:
            # Resolved here (not at import) so repro.variants can import the
            # builder/stage modules without a cycle.
            from repro.variants import get_builder
            builder = get_builder(config.variant)()
        self.state = state = builder.build(program, config, name=name,
                                           initial_state=initial_state)
        #: Optional :class:`~repro.obs.trace.PipelineTracer` receiving the
        #: per-instruction lifecycle hooks from every stage.  An active
        #: tracer disables span elision (there would be no per-cycle events
        #: to observe inside a jump); results are bit-identical either way.
        state.tracer = tracer
        # The fixed stage graph: every variant runs the stock stages, so
        # the driver's per-stage skip guards hold by construction.
        self.front_end = front_end = FrontEnd(state)
        recovery = RecoveryController(state, front_end)
        self.rename_integrate = RenameIntegrate(state, front_end, recovery)
        self.issue_execute = IssueExecute(state, recovery)
        self.commit_diva = CommitDiva(state, recovery)

        # The cycle baseline, advanced past the stats-discarded warm-up
        # phase of a sliced run (zero for ordinary whole-program runs).
        self._cycle_base = 0

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole machine by one cycle.

        Back-to-front evaluation: results written back this cycle are
        visible to retirement, freed resources are visible to rename, and
        redirects take effect before the next fetch.  This is the one-cycle
        API for tests and tools; :meth:`_run_phase` runs the same cycle with
        the no-work stages skipped.
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

    def _run_phase(self, budget: Optional[int]) -> None:
        """Advance the clock until halt or exactly ``budget`` retirements.

        The commit stage refuses to retire past ``state.retire_budget``, so
        the machine stops on a precise architectural instruction boundary
        (the property sharded slices rely on to recombine losslessly).

        Per-cycle stage order and semantics are identical to :meth:`step`;
        the only difference is that three stages are not called on a cycle
        where their no-work early return would fire:

        * writeback -- no wakeup/completion event scheduled for this cycle
          (cycle elision is built on this test),
        * issue -- ready pool empty (select cannot pick anything; holds for
          the in-order variant's scheduler too, which stops at the first
          not-ready instruction),
        * fetch -- halted, redirect in flight, or fetch queue full.

        Commit and rename are called every stepped cycle and return early
        on their own: their guards skipped at most 1.4% and 10.6% of
        stepped cycles and together saved 0.09 Python calls per retired
        instruction.

        All guards read live engine state that squash/recovery mutate in
        place, so a redirect or flush in cycle N is reflected by the guards
        of cycle N+1 exactly as in a loop over :meth:`step`.  The stage
        graph is fixed (``__init__`` always wires the stock stages), so
        each guard mirrors exactly one stage's early return.

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
        state.retire_budget = budget
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
                commit_tick()
                # Skips 17.9% / 16.4% / 53.0% of stepped cycles on perfbench's
                # spec_integration / spec_baseline / memory_wall (seed 1);
                # without it, 0.38 more calls per retired instruction.
                if rs_ready:
                    execute_tick()
                rename_tick()
                # Skips 44.6% / 48.1% / 82.9% of stepped cycles on the same
                # mixes; without it, 0.40 more calls per retired instruction.
                if (not frontend.fetch_halted
                        and cycle >= frontend.fetch_resume_cycle
                        and len(fetch_queue) < fetch_queue_size):
                    frontend_tick()
                occupancy_sum += len(rs_waiting)
                samples += 1
                # ``last_retire_cycle`` is stamped by every retirement, so
                # any move past the ``retired_at`` watermark means this
                # cycle retired.
                if state.last_retire_cycle != retired_at:
                    retired_at = state.last_retire_cycle
                    cpi_retired += 1
                else:
                    bucket = classify(state)
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
            self._cycle_base = state.cycle
        remaining = None
        if max_instructions is not None:
            remaining = max(0, max_instructions)
        self._run_phase(remaining)
        stats = state.stats
        stats.cycles = state.cycle - self._cycle_base
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
