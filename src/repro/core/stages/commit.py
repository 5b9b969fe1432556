"""The in-order back end: the DIVA checker and retirement.

:class:`CommitDiva` drains the head of the reorder buffer, re-executes every
instruction on the architectural state through the DIVA checker, recovers
from mis-integrations (modelled as a full pipeline flush plus a destination
repair), and maintains the retirement-side statistics that the paper's
evaluation is built on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict

from repro.core.diva import DivaFault, SimulationError
from repro.core.stages.base import PipelineState, RecoveryController
from repro.core.stats import distance_bucket
from repro.obs.cpi import CPI_INTEGRATION_REPLAY


class CommitDiva:
    """DIVA check + in-order retirement (the commit point)."""

    def __init__(self, state: PipelineState, recovery: RecoveryController):
        self.state = state
        self.recovery = recovery
        self._width = state.config.retire_width
        #: Retirements per static PC since the last :meth:`fold_retired`.
        self.retired_by_pc: DefaultDict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def tick(self) -> None:
        state = self.state
        rob_entries = state.rob._entries
        if not rob_entries:
            return
        # Ready: past the rename-to-retire age, result produced (an
        # integrated instruction waits for the register it shares).  The
        # head is tested before anything is hoisted; 7-9% of the ticks
        # that reach here stop on it (perfbench's seed-1 mixes).
        cycle = state.cycle
        dyn = rob_entries[0]
        if cycle <= dyn.rename_cycle + 1:
            return
        prf = state.prf
        prf_ready = prf.ready
        if dyn.integrated:
            dest = dyn.dest_preg
            if dest is not None and not prf_ready[dest]:
                return
        elif not dyn.completed:
            return
        stats = state.stats
        # Exact slice boundary: never retire past the budget, so a resumed
        # run stops on a precise instruction boundary.
        budget = state.retire_budget
        room = (self._width if budget is None
                else min(self._width, budget - stats.retired))
        if room <= 0:
            return
        prf_values = prf.values
        release = prf.release
        check = state.diva.check_and_commit
        arch = state.arch
        retired_by_pc = self.retired_by_pc
        tracer = state.tracer
        retired = mispredicted = 0
        while True:
            info = dyn.info
            if info.is_store and not state.mem.store(dyn.eff_addr, cycle):
                break
            fault = check(dyn, prf_values)
            if fault is not None:
                self._handle_diva_fault(fault)

            # Retirement bookkeeping.  The mapping the instruction's
            # destination shadowed stops being visible and drops one
            # reference; the instruction's own output keeps its reference
            # (it is now the retired architectural mapping).
            rob_entries.popleft()
            if dyn.dest_preg is not None:
                release(dyn.old_dest_preg)
            if info.is_mem:
                state.lsq.remove(dyn)
            retired_by_pc[dyn.inst.pc] += 1
            if info.is_branch:
                # Only branches register predictions (see FrontEnd.tick).
                state.predictions.pop(dyn.seq, None)
                if dyn.branch_mispredicted:
                    mispredicted += 1
                if info.is_cond_branch and (dyn.branch_mispredicted
                                            or dyn.mis_integrated):
                    stats.retired_mispredicted_branches += 1
                    stats.branch_resolution_latency_sum += max(
                        0, dyn.complete_cycle - dyn.fetch_cycle)
            if tracer is not None:
                tracer.on_retire(dyn, cycle)
            if dyn.integrated and not dyn.mis_integrated:
                itype = dyn.inst.itype
                if dyn.reverse_integrated:
                    stats.integrated_reverse += 1
                    if itype is not None:
                        stats.reverse_by_type[itype] += 1
                else:
                    stats.integrated_direct += 1
                if itype is not None:
                    stats.integration_by_type[itype] += 1
                stats.integration_distance[
                    distance_bucket(dyn.integration_distance)] += 1
                if dyn.integration_status is not None:
                    stats.integration_status[dyn.integration_status] += 1
                if dyn.integration_refcount:
                    stats.integration_refcount[dyn.integration_refcount] += 1
            retired += 1
            if (fault is not None or arch.halted or retired == room
                    or not rob_entries):
                break
            dyn = rob_entries[0]
            if cycle <= dyn.rename_cycle + 1:
                break
            if dyn.integrated:
                dest = dyn.dest_preg
                if dest is not None and not prf_ready[dest]:
                    break
            elif not dyn.completed:
                break
        if retired:
            stats.retired += retired
            state.last_retire_cycle = cycle
            if fault is not None:
                # The faulting instruction retired last.  The refill after
                # its mis-integration flush is replay work; do_squash
                # already blamed it on squash_recovery, override.
                state.stall_cause = CPI_INTEGRATION_REPLAY
            elif retired > mispredicted:
                # An innocent retirement (one that recovered from nothing)
                # ends the recovery window: later empty-ROB cycles are
                # ordinary front-end supply again.
                state.stall_cause = None

    def fold_retired(self) -> None:
        """Add the per-PC retirement counts to ``retired_by_type`` and
        ``retired_branches`` of ``state.stats`` and restart them; the
        driver calls it at the end of each phase.  Folding in
        first-retirement order keeps each type's key order."""
        stats = self.state.stats
        for pc, count in self.retired_by_pc.items():
            inst = self.state.program.at(pc)
            if inst.itype is not None:
                stats.retired_by_type[inst.itype] += count
            if inst.info.is_cond_branch:
                stats.retired_branches += count
        self.retired_by_pc.clear()

    # ------------------------------------------------------------------
    def _handle_diva_fault(self, fault: DivaFault) -> None:
        """Recover from a mis-integration (or other value fault).

        The paper models recovery as a complete pipeline flush.  We squash
        every younger instruction, repair the faulting instruction's
        destination mapping with a freshly allocated register holding the
        architecturally correct value, and restart fetch at the correct
        next PC.
        """
        state = self.state
        dyn = fault.dyn
        step = fault.step
        if not dyn.integrated:
            raise SimulationError(
                f"DIVA fault on non-integrated instruction {dyn} "
                f"({fault.kind}): timing core produced "
                f"{fault.observed_value!r}, expected {fault.correct_value!r}")
        dyn.mis_integrated = True
        state.stats.mis_integrations += 1
        if dyn.info.is_load:
            state.stats.load_mis_integrations += 1
            state.integration.train_lisp(dyn.inst.pc)
        else:
            state.stats.register_mis_integrations += 1

        squashed = state.rob.squash_younger_than(dyn.seq)
        self.recovery.do_squash(squashed, redirect_pc=step.next_pc)
        self.recovery.recover_predictor_after(dyn,
                                              taken=bool(step.taken),
                                              target=step.next_pc)
        # Repair the destination mapping with the correct value.
        dest = dyn.inst.dest_reg()
        if (dest is not None and dyn.dest_preg is not None
                and fault.kind == "value"):
            state.prf.release(dyn.dest_preg)
            fresh = state.prf.allocate(ready=True, value=step.dest_value)
            if fresh is None:
                raise SimulationError("no physical register available for "
                                      "mis-integration repair")
            state.map_table.set(dest, fresh, state.prf.gen[fresh])
            dyn.dest_preg = fresh
            dyn.dest_gen = state.prf.gen[fresh]
            state.preg_producer[fresh] = dyn
