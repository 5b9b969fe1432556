"""The in-order back end: the DIVA checker and retirement.

:class:`CommitDiva` drains the head of the reorder buffer, re-executes every
instruction on the architectural state through the DIVA checker, recovers
from mis-integrations (modelled as a full pipeline flush plus a destination
repair), and maintains the retirement-side statistics that the paper's
evaluation is built on.
"""

from __future__ import annotations

from typing import Optional

from repro.core.diva import DivaFault, SimulationError
from repro.core.stages.base import PipelineState, RecoveryController
from repro.core.stats import IntegrationType, distance_bucket
from repro.isa.instruction import DynInst, StaticInst
from repro.isa.opcodes import OpClass
from repro.isa.registers import REG_SP
from repro.obs.cpi import CPI_INTEGRATION_REPLAY


def integration_type(inst: StaticInst) -> Optional[IntegrationType]:
    """Categorise an instruction for the Figure 5 "Type" breakdown (the
    definition; retirement reads the copy precomputed as ``inst.itype``)."""
    info = inst.info
    if info.is_load:
        if inst.ra == REG_SP:
            return IntegrationType.LOAD_SP
        return IntegrationType.LOAD_OTHER
    if info.is_cond_branch:
        return IntegrationType.BRANCH
    if info.fp:
        return IntegrationType.FP
    if info.cls in (OpClass.IALU, OpClass.IMUL):
        return IntegrationType.ALU
    return None


class CommitDiva:
    """DIVA check + in-order retirement (the commit point)."""

    def __init__(self, state: PipelineState, recovery: RecoveryController):
        self.state = state
        self.recovery = recovery

    # ------------------------------------------------------------------
    def tick(self) -> None:
        state = self.state
        rob_entries = state.rob._entries
        if not rob_entries:
            return
        budget = state.retire_budget
        stats = state.stats
        cycle = state.cycle
        prf_ready = state.prf.ready
        prf_values = state.prf.values
        release = state.prf.release
        diva = state.diva
        tracer = state.tracer
        retired = 0
        width = state.config.retire_width
        while retired < width:
            if budget is not None and stats.retired >= budget:
                # Exact slice boundary: never retire past the budget, so a
                # resumed run stops on a precise instruction boundary.
                break
            if not rob_entries:
                break
            dyn = rob_entries[0]
            # Ready: past the rename-to-retire age, result produced (an
            # integrated instruction waits for the register it shares).
            if cycle <= dyn.rename_cycle + 1:
                break
            info = dyn.info
            if dyn.integrated:
                dest = dyn.dest_preg
                if dest is not None and not prf_ready[dest]:
                    break
            elif not dyn.completed:
                break
            # What the timing core believes the instruction produced.
            observed_value = None
            observed_taken = None
            observed_next_pc = None
            if info.is_store:
                stall, accepted = state.mem.store(dyn.eff_addr or 0, cycle)
                if not accepted:
                    break
                observed_value = dyn.store_value
            elif info.is_cond_branch:
                observed_taken = dyn.branch_taken
            elif info.is_indirect_ctl:
                observed_next_pc = dyn.next_pc
            elif dyn.inst.dest is not None and dyn.dest_preg is not None:
                observed_value = prf_values[dyn.dest_preg]
            step, fault = diva.check_and_commit(
                dyn, observed_value, observed_taken, observed_next_pc)
            if fault is not None:
                self._handle_diva_fault(dyn, step, fault)

            # Retirement bookkeeping.  The mapping the instruction's
            # destination shadowed stops being visible and drops one
            # reference; the instruction's own output keeps its reference
            # (it is now the retired architectural mapping).
            rob_entries.popleft()
            old = dyn.old_dest_preg
            if old is not None:
                release(old)
            if dyn.in_lsq:
                state.lsq.remove(dyn)
            dyn.retire_cycle = cycle
            state.last_retire_cycle = cycle
            if info.is_branch:
                # Only branches register predictions (see FrontEnd.tick).
                state.predictions.pop(dyn.seq, None)
            stats.retired += 1
            retired += 1
            if dyn.mis_integrated:
                # The refill after the mis-integration flush is replay work;
                # do_squash already blamed it on squash_recovery, override.
                state.stall_cause = CPI_INTEGRATION_REPLAY
            elif not (dyn.branch_mispredicted or dyn.mem_mispeculated):
                # An innocent retirement ends the recovery window: later
                # empty-ROB cycles are ordinary front-end supply again.
                state.stall_cause = None
            if tracer is not None:
                tracer.on_retire(dyn, cycle)
            itype = dyn.inst.itype
            if itype is not None:
                stats.retired_by_type[itype] += 1
            if info.is_cond_branch:
                stats.retired_branches += 1
                if dyn.branch_mispredicted or dyn.mis_integrated:
                    stats.retired_mispredicted_branches += 1
                    stats.branch_resolution_latency_sum += max(
                        0, dyn.complete_cycle - dyn.fetch_cycle)
            if dyn.integrated and not dyn.mis_integrated:
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
            if fault is not None or state.arch.halted:
                break

    # ------------------------------------------------------------------
    def _handle_diva_fault(self, dyn: DynInst, step,
                           fault: DivaFault) -> None:
        """Recover from a mis-integration (or other value fault).

        The paper models recovery as a complete pipeline flush.  We squash
        every younger instruction, repair the faulting instruction's
        destination mapping with a freshly allocated register holding the
        architecturally correct value, and restart fetch at the correct
        next PC.
        """
        state = self.state
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
