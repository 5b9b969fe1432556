"""Branch direction and target prediction.

Components:

* :class:`BimodalPredictor` -- PC-indexed 2-bit saturating counters.
* :class:`GSharePredictor` -- global-history XOR PC indexed 2-bit counters.
* :class:`HybridPredictor` -- bimodal/gshare with a chooser table (the
  paper's "hybrid gshare/bimodal" predictor).
* :class:`BranchTargetBuffer` -- direct-mapped tagged target cache.
* :class:`ReturnAddressStack` -- return-target prediction; its top-of-stack
  index is the *call depth* consumed by the integration-table index
  function.
* :class:`BranchPredictor` -- the front-end unit gluing these together, with
  checkpoint/restore support for mis-speculation recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.serialization import SerializableConfig

from repro.isa.instruction import StaticInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE


#: Reset value of every 2-bit counter (direction and chooser): weakly taken.
WEAKLY_TAKEN = 2


def _saturate(value: int, delta: int, lo: int = 0, hi: int = 3) -> int:
    return max(lo, min(hi, value + delta))


def _trained(table: List[int]) -> List[List[int]]:
    """``[index, value]`` of every counter that left its reset value."""
    return [[index, value] for index, value in enumerate(table)
            if value != WEAKLY_TAKEN]


@dataclass(frozen=True)
class BranchPredictorConfig(SerializableConfig):
    """Sizes of the front-end prediction structures (paper defaults)."""

    bimodal_entries: int = 8192
    gshare_entries: int = 8192
    chooser_entries: int = 8192
    history_bits: int = 13
    btb_entries: int = 4096
    ras_entries: int = 64


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int):
        self.entries = entries
        self.table = [WEAKLY_TAKEN] * entries

    def _index(self, pc: int) -> int:
        return (pc // INST_SIZE) % self.entries

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        self.table[idx] = _saturate(self.table[idx], 1 if taken else -1)


class GSharePredictor:
    """Global-history-XOR-PC indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int, history_bits: int):
        self.entries = entries
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.table = [WEAKLY_TAKEN] * entries

    def index(self, pc: int, history: int) -> int:
        return ((pc // INST_SIZE) ^ (history & self.history_mask)) % self.entries

    def predict(self, pc: int, history: int) -> bool:
        return self.table[self.index(pc, history)] >= 2

    def update(self, pc: int, history: int, taken: bool) -> None:
        idx = self.index(pc, history)
        self.table[idx] = _saturate(self.table[idx], 1 if taken else -1)


class HybridPredictor:
    """Chooser-based combination of bimodal and gshare."""

    def __init__(self, config: BranchPredictorConfig):
        self.config = config
        self.bimodal = BimodalPredictor(config.bimodal_entries)
        self.gshare = GSharePredictor(config.gshare_entries, config.history_bits)
        # A counter >= WEAKLY_TAKEN selects gshare.
        self.chooser = [WEAKLY_TAKEN] * config.chooser_entries

    def _chooser_index(self, pc: int) -> int:
        return (pc // INST_SIZE) % self.config.chooser_entries

    def predict(self, pc: int, history: int) -> bool:
        if self.chooser[self._chooser_index(pc)] >= 2:
            return self.gshare.predict(pc, history)
        return self.bimodal.predict(pc)

    def update(self, pc: int, history: int, taken: bool) -> None:
        bim_correct = self.bimodal.predict(pc) == taken
        gsh_correct = self.gshare.predict(pc, history) == taken
        idx = self._chooser_index(pc)
        if gsh_correct and not bim_correct:
            self.chooser[idx] = _saturate(self.chooser[idx], 1)
        elif bim_correct and not gsh_correct:
            self.chooser[idx] = _saturate(self.chooser[idx], -1)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, history, taken)


class BranchTargetBuffer:
    """Direct-mapped, tagged branch target buffer."""

    def __init__(self, entries: int):
        self.entries = entries
        self.tags: List[Optional[int]] = [None] * entries
        self.targets: List[int] = [0] * entries

    def _index(self, pc: int) -> int:
        return (pc // INST_SIZE) % self.entries

    def lookup(self, pc: int) -> Optional[int]:
        idx = self._index(pc)
        if self.tags[idx] == pc:
            return self.targets[idx]
        return None

    def update(self, pc: int, target: int) -> None:
        idx = self._index(pc)
        self.tags[idx] = pc
        self.targets[idx] = target


class ReturnAddressStack:
    """Circular return-address stack.

    ``depth`` (the top-of-stack index) is exported as the dynamic call depth
    used by opcode indexing (paper Section 2.3).

    The stack is kept as an immutable tuple so that checkpointing it -- which
    the front end does for every fetched instruction -- is a reference copy
    instead of an O(depth) list copy; pushes and pops (calls and returns,
    which are far rarer than fetches) pay the copy instead.  The tuple
    ``stack`` is therefore its own snapshot.
    """

    def __init__(self, entries: int):
        self.entries = entries
        self.stack: Tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.stack)

    def push(self, return_pc: int) -> None:
        stack = self.stack
        if len(stack) >= self.entries:
            stack = stack[1:]
        self.stack = stack + (return_pc,)

    def pop(self) -> Optional[int]:
        stack = self.stack
        if stack:
            self.stack = stack[:-1]
            return stack[-1]
        return None

    def restore(self, snap: Tuple[int, ...]) -> None:
        self.stack = tuple(snap)


@dataclass(slots=True)
class BranchPrediction:
    """One front-end prediction, kept with the dynamic instruction so the
    predictor can be updated and recovered precisely."""

    pc: int
    taken: bool
    target: int
    history: int
    is_cond: bool
    checkpoint: Optional[tuple] = None


@dataclass
class BranchPredictorStats:
    cond_predictions: int = 0
    cond_mispredictions: int = 0
    target_mispredictions: int = 0


class BranchPredictor:
    """Front-end prediction unit: direction, target, and return prediction."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None):
        self.config = config or BranchPredictorConfig()
        self.hybrid = HybridPredictor(self.config)
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.ras = ReturnAddressStack(self.config.ras_entries)
        self.history = 0
        self.stats = BranchPredictorStats()

    # ------------------------------------------------------------------
    @property
    def call_depth(self) -> int:
        """Current speculative call depth (RAS top-of-stack index)."""
        return self.ras.depth

    def snapshot(self) -> tuple:
        """Checkpoint the speculative front-end state (history + RAS)."""
        return self.history, self.ras.stack

    def restore(self, snap: tuple) -> None:
        self.history, ras_snap = snap[0], snap[1]
        self.ras.restore(ras_snap)

    def recover_after(self, snap: tuple, inst: StaticInst,
                      taken: bool) -> None:
        """Repair a misprediction of ``inst``: restore ``snap`` (taken just
        before ``inst`` was predicted), then apply its actual outcome to the
        history and the return-address stack."""
        self.restore(snap)
        cls = inst.info.cls
        if cls is OpClass.COND_BRANCH:
            self._push_history(taken)
        elif cls is OpClass.CALL_DIRECT or cls is OpClass.CALL_INDIRECT:
            self.ras.push(inst.pc + INST_SIZE)
        elif cls is OpClass.RETURN:
            self.ras.pop()

    # ------------------------------------------------------------------
    def warm_state(self) -> Dict[str, Any]:
        """The long-lived predictor state: the counters that left their
        reset value, the valid BTB entries, the global history and the
        RAS.  Statistics are left out."""
        hybrid = self.hybrid
        btb = self.btb
        return {
            "bimodal": _trained(hybrid.bimodal.table),
            "gshare": _trained(hybrid.gshare.table),
            "chooser": _trained(hybrid.chooser),
            "btb": [[index, tag, btb.targets[index]]
                    for index, tag in enumerate(btb.tags) if tag is not None],
            "history": self.history,
            "ras": list(self.ras.stack),
        }

    def load_warm_state(self, warm: Dict[str, Any]) -> None:
        """Install :meth:`warm_state` output into a freshly built predictor
        of the same geometry."""
        hybrid = self.hybrid
        for table, trained in ((hybrid.bimodal.table, warm["bimodal"]),
                               (hybrid.gshare.table, warm["gshare"]),
                               (hybrid.chooser, warm["chooser"])):
            for index, value in trained:
                table[index] = value
        btb = self.btb
        for index, tag, target in warm["btb"]:
            btb.tags[index] = tag
            btb.targets[index] = target
        self.history = warm["history"]
        self.ras.restore(warm["ras"])

    # ------------------------------------------------------------------
    def predict(self, inst: StaticInst) -> BranchPrediction:
        """Predict the next PC for a control-flow instruction at fetch."""
        cls = inst.info.cls
        pc = inst.pc
        fallthrough = pc + INST_SIZE
        checkpoint = self.snapshot()
        if cls is OpClass.COND_BRANCH:
            self.stats.cond_predictions += 1
            taken = self.hybrid.predict(pc, self.history)
            target = inst.target if taken else fallthrough
            pred = BranchPrediction(pc, taken, target, self.history, True,
                                    checkpoint)
            self._push_history(taken)
            return pred
        if cls in (OpClass.DIRECT_JUMP,):
            return BranchPrediction(pc, True, inst.target, self.history, False,
                                    checkpoint)
        if cls is OpClass.CALL_DIRECT:
            self.ras.push(fallthrough)
            return BranchPrediction(pc, True, inst.target, self.history, False,
                                    checkpoint)
        if cls is OpClass.CALL_INDIRECT:
            self.ras.push(fallthrough)
            target = self.btb.lookup(pc)
            return BranchPrediction(pc, True,
                                    target if target is not None else fallthrough,
                                    self.history, False, checkpoint)
        if cls is OpClass.INDIRECT_JUMP:
            target = self.btb.lookup(pc)
            return BranchPrediction(pc, True,
                                    target if target is not None else fallthrough,
                                    self.history, False, checkpoint)
        if cls is OpClass.RETURN:
            target = self.ras.pop()
            if target is None:
                target = self.btb.lookup(pc)
            return BranchPrediction(pc, True,
                                    target if target is not None else fallthrough,
                                    self.history, False, checkpoint)
        # Not a control-flow instruction: fall through.
        return BranchPrediction(pc, False, fallthrough, self.history, False,
                                checkpoint)

    def _push_history(self, taken: bool) -> None:
        mask = (1 << self.config.history_bits) - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & mask

    # ------------------------------------------------------------------
    def resolve(self, inst: StaticInst, prediction: BranchPrediction,
                taken: bool, target: int) -> bool:
        """Update predictor state at branch resolution.

        Returns True if the prediction was wrong (direction or target).
        """
        mispredicted = False
        if prediction.is_cond:
            if taken != prediction.taken:
                mispredicted = True
                self.stats.cond_mispredictions += 1
            self.hybrid.update(inst.pc, prediction.history, taken)
        if taken and target != prediction.target:
            mispredicted = True
            if not prediction.is_cond:
                self.stats.target_mispredictions += 1
        if taken and inst.info.cls in (OpClass.CALL_INDIRECT,
                                       OpClass.INDIRECT_JUMP,
                                       OpClass.RETURN):
            self.btb.update(inst.pc, target)
        return mispredicted
