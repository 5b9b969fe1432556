"""Functional warming: cache, TLB and branch-predictor state at slice starts.

A slice of a sharded run resumes the timing core from an architectural
checkpoint, but the caches, TLBs and branch predictor remember far more
history than a short detailed warm-up can rebuild.  Following SMARTS
(Wunderlich et al., ISCA 2003), the checkpoint pass therefore also drives a
:class:`~repro.memsys.hierarchy.MemoryHierarchy` and a
:class:`~repro.frontend.branch_predictor.BranchPredictor` with the
committed instruction stream, and captures their long-lived state beside
each checkpoint as a :class:`WarmState`:

* an instruction fetch whenever the stream enters a new I-cache line (a
  repeated fetch of the current line only refreshes entries that are
  already most recent, so it cannot change the replacement order);
* a load or store access per memory operation;
* predict + resolve per control transfer, with the history and the
  return-address stack repaired as after a misprediction.

Each access runs a clock step later than the last, and the step exceeds
the longest possible access latency, so every fill has completed before
the next access: the hierarchy behaves as a pure tag-and-LRU model.  The
snapshot is sparse and canonically ordered -- resident lines and pages in
LRU order with their dirty bits, the predictor counters that differ from
reset, the valid BTB entries, the global history and the RAS -- so it is
plain JSON, equal across processes, and about the size of the checkpoint
itself.  MSHRs, the write buffer and statistics are never captured: a
restored machine starts them empty and at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.frontend.branch_predictor import (
    BranchPredictor,
    BranchPredictorConfig,
)
from repro.functional.emulator import Checkpoint, Emulator
from repro.isa.program import Program
from repro.memsys.hierarchy import MemoryHierarchy, MemSysConfig


@dataclass(frozen=True)
class WarmState:
    """Cache, TLB and predictor state at a slice start (see
    :meth:`MemoryHierarchy.warm_state` and
    :meth:`BranchPredictor.warm_state`)."""

    memory: Dict[str, List]
    predictor: Dict[str, Any]

    def restore(self, mem: MemoryHierarchy,
                predictor: BranchPredictor) -> None:
        """Install this state into a freshly built hierarchy and predictor
        whose configurations match the ones it was captured with."""
        mem.load_warm_state(self.memory)
        predictor.load_warm_state(self.predictor)

    def to_dict(self) -> Dict[str, Any]:
        return {"memory": self.memory, "predictor": self.predictor}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WarmState":
        return cls(memory=data["memory"], predictor=data["predictor"])


def warm_checkpoints(program: Program, starts: Iterable[int],
                     memsys: MemSysConfig,
                     predictor_config: BranchPredictorConfig,
                     ) -> Tuple[List[Checkpoint], Dict[int, WarmState]]:
    """Run ``program`` functionally up to the last of ``starts``, warming a
    hierarchy and a predictor on the way.

    Returns a :class:`Checkpoint` at every start and a :class:`WarmState`
    at every start after instruction 0 (the state at 0 is the reset
    state).  Starts past the program's end are skipped.
    """
    wanted = sorted(set(int(s) for s in starts))
    emulator = Emulator(program)
    mem = MemoryHierarchy(memsys)
    predictor = BranchPredictor(predictor_config)
    ifetch, load, store = mem.ifetch, mem.load, mem.store
    predict, resolve = predictor.predict, predictor.resolve
    line_bytes = memsys.il1.line_bytes
    # Longer than any one access can take with every MSHR free.
    step = (1 + memsys.itlb.miss_latency + memsys.dtlb.miss_latency
            + memsys.il1.hit_latency + memsys.dl1.hit_latency
            + memsys.l2.hit_latency + memsys.memory_latency)
    cycle = 0
    line = -1
    executed = 0
    checkpoints: List[Checkpoint] = []
    warm: Dict[int, WarmState] = {}
    for start in wanted:
        while executed < start:
            result = emulator.step()
            if result is None:
                return checkpoints, warm
            executed += 1
            inst = result.inst
            pc = inst.pc
            if pc // line_bytes != line:
                line = pc // line_bytes
                cycle += step
                ifetch(pc, cycle)
            info = inst.info
            if info.is_load:
                cycle += step
                load(result.eff_addr, cycle)
            elif info.is_store:
                cycle += step
                store(result.eff_addr, cycle)
            elif info.is_branch:
                prediction = predict(inst)
                if resolve(inst, prediction, result.taken, result.next_pc):
                    predictor.recover_after(prediction.checkpoint, inst,
                                            result.taken)
        checkpoints.append(Checkpoint(
            insts=executed, snapshot=emulator.state.to_snapshot()))
        if executed:
            warm[executed] = WarmState(memory=mem.warm_state(),
                                       predictor=predictor.warm_state())
    return checkpoints, warm
