"""Load Integration Suppression Predictor (LISP).

A PC-indexed, set-associative *tag cache*: a hit suppresses integration of
the load.  PCs are inserted when DIVA detects a load mis-integration, so the
predictor is deliberately over-biased toward suppression -- it prefers false
suppressions (lost integrations) over repeated mis-integrations, each of
which costs a full pipeline flush (paper Section 3.1).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping

from repro.isa.program import INST_SIZE

#: The shared contents of every LISP set that has not been trained yet.
_UNTRAINED: Mapping[int, int] = MappingProxyType({})


class LoadIntegrationSuppressionPredictor:
    """Set-associative tag cache of load PCs whose integration is suppressed.

    A set gets its own dict on its first training; until then it is the
    shared empty :data:`_UNTRAINED`, so a machine that never mis-integrates
    a load (integration disabled, or no load ever trained) pays for one
    list, not one dict per set.
    """

    def __init__(self, entries: int = 1024, assoc: int = 2):
        if entries <= 0:
            raise ValueError("LISP needs at least one entry")
        if assoc == 0 or assoc >= entries:
            assoc = entries
        if entries % assoc:
            raise ValueError("LISP entry count must be a multiple of the "
                             "associativity")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        # each set maps pc -> last-touch tick (LRU)
        self._sets: List[Mapping[int, int]] = [_UNTRAINED] * self.num_sets
        self._tick = 0

    def suppresses(self, pc: int) -> bool:
        """True if integration of the load at ``pc`` should be suppressed."""
        lisp_set = self._sets[(pc // INST_SIZE) % self.num_sets]
        if pc in lisp_set:
            self._tick += 1
            lisp_set[pc] = self._tick
            return True
        return False

    def train(self, pc: int) -> None:
        """Record a load mis-integration at ``pc``."""
        index = (pc // INST_SIZE) % self.num_sets
        lisp_set = self._sets[index]
        if not isinstance(lisp_set, dict):      # the set's first training
            lisp_set = {}
            self._sets[index] = lisp_set
        self._tick += 1
        if pc in lisp_set:
            lisp_set[pc] = self._tick
            return
        if len(lisp_set) >= self.assoc:
            victim = min(lisp_set, key=lisp_set.get)
            del lisp_set[victim]
        lisp_set[pc] = self._tick
