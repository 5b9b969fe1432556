"""The ``no-cht`` variant: naive squash-on-collision disambiguation.

The baseline machine filters repeat memory-order violations with a collision
history table: a load whose PC has collided before waits until every older
store address is resolved.  This variant removes the filter -- every load
issues speculatively every time, and every collision costs a full squash --
which is the classic "naive speculation" control for the CHT's value.  The
table object stays in place (the issue stage still consults the slot), but
it never predicts and never learns, so ``cht_hits`` is structurally zero
while ``cht_trainings``, counted by the execute stage at each violation,
keeps counting the violations the filter would have absorbed.
"""

from __future__ import annotations

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.core.lsq import CollisionHistoryTable
from repro.variants import register


class NeverPredictCHT(CollisionHistoryTable):
    """A collision history table that never constrains a load: ``train``
    stores no tags, and ``predicts_collision`` is constantly False."""

    def predicts_collision(self, pc: int) -> bool:
        return False

    def train(self, pc: int) -> None:
        pass


@register
class NoCHTVariant(MachineBuilder):
    """Loads always issue speculatively; collisions always squash."""

    name = "no-cht"
    description = ("collision history table removed: loads never wait on "
                   "older stores and every collision squashes")

    def build_cht(self, config: MachineConfig) -> CollisionHistoryTable:
        return NeverPredictCHT(config.collision_history_entries)
