"""DIVA-style in-order checker.

Immediately before retirement every instruction is re-executed, in program
order, against precise architectural state.  Any disagreement between the
value the out-of-order engine produced (or the value an integrating
instruction *reused*) and the architecturally correct value is a fault; for
integrating instructions this is exactly how mis-integrations are detected
(paper Section 2.1).  The checker also *is* the commit point: its
architectural state is the reference state of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.functional.executor import StepResult
from repro.functional.state import ArchState
from repro.isa.instruction import DynInst


class SimulationError(RuntimeError):
    """An internal inconsistency that is not a modelled fault (a bug)."""


@dataclass
class DivaFault:
    """A value/control disagreement detected by the checker."""

    dyn: DynInst
    kind: str                      # "value", "branch", "indirect", "store"
    #: The architecturally correct execution of ``dyn``.
    step: StepResult
    correct_value: Optional[object] = None
    observed_value: Optional[object] = None


class DivaChecker:
    """Re-executes retiring instructions against architectural state."""

    def __init__(self, arch: ArchState):
        self.arch = arch

    def check_and_commit(self, dyn: DynInst,
                         prf_values: Sequence) -> Optional[DivaFault]:
        """Re-execute ``dyn`` on architectural state and compare it with
        what the timing core produced; returns the fault, or ``None``.

        The architectural state is always advanced with the *correct*
        values, so recovery after a fault simply re-fetches from
        ``arch.pc``.  One dispatch on the instruction's class picks what is
        observed and compares it: the destination value read from
        ``prf_values`` of an instruction with a destination (an indirect
        call's link excepted), else a store's value, a branch's direction
        or an indirect target (syscalls, nops and direct jumps have
        none).
        """
        inst = dyn.inst
        arch = self.arch
        if arch.pc != inst.pc:
            raise SimulationError(
                f"retirement stream diverged: architectural PC "
                f"{arch.pc:#x} but retiring {inst.pc:#x} (seq {dyn.seq})")
        info = inst.info
        step = info.step(arch, inst)
        if inst.dest is not None and not info.is_indirect_ctl:
            preg = dyn.dest_preg
            observed = None if preg is None else prf_values[preg]
            if observed is None or step.dest_value != observed:
                return DivaFault(dyn, "value", step, step.dest_value,
                                 observed)
        elif info.is_store:
            if step.store_value != dyn.store_value:
                return DivaFault(dyn, "store", step, step.store_value,
                                 dyn.store_value)
        elif info.is_cond_branch:
            if dyn.branch_taken != step.taken:
                return DivaFault(dyn, "branch", step, step.taken,
                                 dyn.branch_taken)
        elif info.is_indirect_ctl:
            if dyn.next_pc != step.next_pc:
                return DivaFault(dyn, "indirect", step, step.next_pc,
                                 dyn.next_pc)
        return None
