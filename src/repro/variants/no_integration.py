"""The ``no-integration`` variant: the paper's speedup control.

Rather than flipping the ``enabled`` bit of the integration *configuration*
(which is a different configuration of the same machine), this variant
fills the integration slot with
:class:`~repro.integration.logic.NullIntegrationLogic` under every
configuration: the rename stage still consults it, but every decision is
"rename conventionally" and no integration-table state exists to consult or
maintain.  Architecturally the machine retires the identical instruction
stream -- integration only ever reuses values the execution engine would
recompute -- so the variant is the differential baseline every integration
result is measured against.
"""

from __future__ import annotations

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.integration.logic import IntegrationLogic, NullIntegrationLogic
from repro.rename.physical import PhysicalRegisterFile
from repro.variants import register


@register
class NoIntegrationVariant(MachineBuilder):
    """Integration logic stubbed off -- the paper's control machine."""

    name = "no-integration"
    description = ("register integration stubbed out of the rename stage "
                   "(the paper's differential baseline)")

    def build_integration(self, config: MachineConfig,
                          prf: PhysicalRegisterFile) -> IntegrationLogic:
        return NullIntegrationLogic()
