"""The out-of-order superscalar timing core.

The core models the paper's 13-stage, 4-way machine: 3 fetch stages, decode,
rename (where integration happens), 2 schedule stages, 2 register-read
stages, execute, writeback, DIVA check, and retire, with a 128-entry
instruction window, a 40-entry reservation-station scheduler, a 64-entry
load/store queue with speculative load issue and a collision history table,
and the memory hierarchy of :mod:`repro.memsys`.

The public entry point is :class:`Processor` (and the convenience function
:func:`simulate`), configured by :class:`MachineConfig`; results come back as
a :class:`SimStats` object carrying every metric the paper's evaluation
reports.  A :class:`MachineBuilder` constructs the machine's substrates, and
the processor reads them, as ``processor.state``, through the stage graph it
wires over them.
"""

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.core.stats import SimStats
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import ReservationStations, IssuePortConfig
from repro.core.lsq import LoadStoreQueue, CollisionHistoryTable
from repro.core.diva import DivaChecker, DivaFault
from repro.core.pipeline import Processor, simulate

__all__ = [
    "MachineBuilder",
    "MachineConfig",
    "SimStats",
    "ReorderBuffer",
    "ReservationStations",
    "IssuePortConfig",
    "LoadStoreQueue",
    "CollisionHistoryTable",
    "DivaChecker",
    "DivaFault",
    "Processor",
    "simulate",
]
