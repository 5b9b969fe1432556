"""The pipeline stages of the cycle-level processor model.

The 13-stage machine is modelled as four stage components::

    FrontEnd          fetch(3) decode(1)          owns fetch PC + queue
    RenameIntegrate   rename(1)                   integration happens here
    IssueExecute      schedule(2) regread(2) ex wb owns RS/LSQ event queues
    CommitDiva        DIVA(1) retire(1)           owns architectural commit

They share a :class:`~repro.core.stages.base.PipelineState` datapath and a
:class:`~repro.core.stages.base.RecoveryController` for cross-stage
mis-speculation recovery.  The graph is fixed:
:class:`~repro.core.pipeline.Processor` always wires these four classes
over the state a :class:`~repro.core.builder.MachineBuilder` builds
(variants replace the substrates they use, not the stages), then advances
the clock.
"""

from repro.core.stages.base import PipelineState, RecoveryController
from repro.core.stages.commit import CommitDiva, integration_type
from repro.core.stages.execute import IssueExecute
from repro.core.stages.frontend import FrontEnd
from repro.core.stages.rename import RenameIntegrate

__all__ = [
    "PipelineState",
    "RecoveryController",
    "FrontEnd",
    "RenameIntegrate",
    "IssueExecute",
    "CommitDiva",
    "integration_type",
]
