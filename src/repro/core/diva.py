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
from typing import Optional, Tuple

from repro.functional.executor import StepResult
from repro.functional.state import ArchState
from repro.isa.instruction import DynInst


class SimulationError(RuntimeError):
    """An internal inconsistency that is not a modelled fault (a bug)."""


@dataclass
class DivaFault:
    """A value/control disagreement detected by the checker."""

    dyn: DynInst
    kind: str                      # "value", "branch", "store"
    correct_value: Optional[object] = None
    observed_value: Optional[object] = None
    correct_next_pc: Optional[int] = None


class DivaChecker:
    """Re-executes retiring instructions against architectural state."""

    def __init__(self, arch: ArchState):
        self.arch = arch
        self.checked = 0
        self.faults = 0

    def check_and_commit(self, dyn: DynInst, observed_value,
                         observed_taken: Optional[bool],
                         observed_next_pc: Optional[int]
                         ) -> Tuple[StepResult, Optional[DivaFault]]:
        """Re-execute ``dyn`` on architectural state and compare.

        Returns ``(step_result, fault_or_None)``.  The architectural state is
        always advanced with the *correct* values, so recovery after a fault
        simply re-fetches from ``arch.pc``.  Compared: a store's value, a
        branch's direction, an indirect target, else the destination value
        (syscalls, nops and direct jumps have none).
        """
        inst = dyn.inst
        arch = self.arch
        if arch.pc != inst.pc:
            raise SimulationError(
                f"retirement stream diverged: architectural PC "
                f"{arch.pc:#x} but retiring {inst.pc:#x} (seq {dyn.seq})")
        self.checked += 1
        info = inst.info
        step = info.step(arch, inst)
        fault = None
        if info.is_store:
            if (observed_value is not None
                    and step.store_value != observed_value):
                fault = DivaFault(dyn, "store", step.store_value,
                                  observed_value, step.next_pc)
        elif info.is_cond_branch:
            if observed_taken is not None and observed_taken != step.taken:
                fault = DivaFault(dyn, "branch", step.taken, observed_taken,
                                  step.next_pc)
        elif info.is_indirect_ctl:
            if (observed_next_pc is not None
                    and observed_next_pc != step.next_pc):
                fault = DivaFault(dyn, "branch", None, None, step.next_pc)
        elif inst.dest is not None and (observed_value is None
                                        or step.dest_value != observed_value):
            fault = DivaFault(dyn, "value", step.dest_value, observed_value,
                              step.next_pc)
        if fault is not None:
            self.faults += 1
        return step, fault
