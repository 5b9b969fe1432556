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
        observed and compares it: a store's value, a branch's direction, an
        indirect target, else the destination value read from
        ``prf_values`` (syscalls, nops and direct jumps have none).
        """
        inst = dyn.inst
        arch = self.arch
        if arch.pc != inst.pc:
            raise SimulationError(
                f"retirement stream diverged: architectural PC "
                f"{arch.pc:#x} but retiring {inst.pc:#x} (seq {dyn.seq})")
        info = inst.info
        step = info.step(arch, inst)
        if info.is_store:
            observed = dyn.store_value
            if observed is not None and step.store_value != observed:
                return DivaFault(dyn, "store", step, step.store_value,
                                 observed)
        elif info.is_cond_branch:
            observed = dyn.branch_taken
            if observed is not None and observed != step.taken:
                return DivaFault(dyn, "branch", step, step.taken, observed)
        elif info.is_indirect_ctl:
            observed = dyn.next_pc
            if observed is not None and observed != step.next_pc:
                return DivaFault(dyn, "indirect", step, step.next_pc,
                                 observed)
        elif inst.dest is not None:
            preg = dyn.dest_preg
            observed = None if preg is None else prf_values[preg]
            if observed is None or step.dest_value != observed:
                return DivaFault(dyn, "value", step, step.dest_value,
                                 observed)
        return None
