"""The machine builder: the substrates of one machine, from four slots.

:class:`MachineBuilder` constructs the substrates :class:`~repro.core.
pipeline.Processor` runs on (branch prediction, renaming + integration,
scheduler, load/store queue, memory hierarchy, DIVA) and returns them as
one :class:`~repro.core.stages.PipelineState`; the processor wires the
fixed graph of the four stage components of :mod:`repro.core.stages` over
it.  Four substrates come from overridable factory methods, the **slots**;
a *machine variant* (see :mod:`repro.variants`) is a small
``MachineBuilder`` subclass overriding the slot it cares about::

    class OracleBPVariant(MachineBuilder):
        name = "oracle-bp"
        description = "perfect branch prediction from the functional stream"

        def build_predictor(self, config, program, arch):
            return OracleBranchPredictor(config.branch_predictor,
                                         program, arch)

Because the builder is the *only* place construction happens, a variant
composes with every layer above it for free: the experiment runner, the
checkpointed-slice sharding engine and the CLI all just carry the variant
name inside :class:`~repro.core.config.MachineConfig` (where it participates
in ``fingerprint()`` and therefore in every cache key).

Slot inventory (each slot is overridden by at least one shipped variant):

=====================  =======================================================
slot                   builds
=====================  =======================================================
``build_predictor``    the front-end branch prediction unit
``build_integration``  the rename-time integration logic and its table
``build_scheduler``    the reservation stations / select logic
``build_cht``          the collision history table
=====================  =======================================================

Everything else -- architectural state, DIVA, the memory hierarchy, the
register file, map table and renamer, the reorder buffer, the load/store
queue and the statistics -- is a plain constructor call in
:meth:`MachineBuilder.build`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.diva import DivaChecker
from repro.core.lsq import CollisionHistoryTable, LoadStoreQueue
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import ReservationStations
from repro.core.stages import PipelineState
from repro.core.stats import SimStats
from repro.frontend.branch_predictor import BranchPredictor
from repro.functional.memory import SparseMemory
from repro.functional.state import ArchState
from repro.integration.logic import IntegrationLogic, NullIntegrationLogic
from repro.isa.program import Program
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rename.map_table import MapTable
from repro.rename.physical import PhysicalRegisterFile
from repro.rename.renamer import Renamer

#: The overridable factory methods, in construction order.
SLOT_NAMES: Tuple[str, ...] = (
    "build_predictor", "build_integration", "build_scheduler", "build_cht",
)


class MachineBuilder:
    """Builds a machine's :class:`PipelineState` from four overridable
    slots.

    The base class *is* the baseline variant: its slots build exactly the
    machine the paper describes.  Subclasses override individual slots and
    inherit the rest.
    """

    #: Registry name of the variant this builder implements.
    name = "baseline"
    #: One-line human-readable description (``repro variants`` listing).
    description = ("the paper's 4-way out-of-order machine with register "
                   "integration, exactly as configured")

    # ------------------------------------------------------------------
    # slots
    # ------------------------------------------------------------------
    def build_predictor(self, config: MachineConfig, program: Program,
                        arch: ArchState) -> BranchPredictor:
        """The front-end prediction unit.  ``program`` and ``arch`` are
        offered so oracle variants can precompute the architectural control
        stream; the baseline predictor ignores them."""
        return BranchPredictor(config.branch_predictor)

    def build_integration(self, config: MachineConfig,
                          prf: PhysicalRegisterFile) -> IntegrationLogic:
        """The integration logic; a disabled configuration gets the null
        logic, which keeps no table."""
        if not config.integration.enabled:
            return NullIntegrationLogic()
        return IntegrationLogic(config.integration, prf)

    def build_scheduler(self, config: MachineConfig,
                        prf: PhysicalRegisterFile) -> ReservationStations:
        return ReservationStations(config.rs_entries, config.ports, prf=prf)

    def build_cht(self, config: MachineConfig) -> CollisionHistoryTable:
        return CollisionHistoryTable(config.collision_history_entries)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build(self, program: Program, config: MachineConfig,
              name: Optional[str] = None,
              initial_state: Optional[ArchState] = None) -> PipelineState:
        """Construct every substrate.  Architectural state is fresh, or
        resumed from a functional checkpoint (copied so the caller's
        checkpoint stays reusable)."""
        if initial_state is not None:
            arch = initial_state.copy()
        else:
            arch = ArchState(memory=SparseMemory(program.data),
                             pc=program.entry)
        icfg = config.integration
        prf = PhysicalRegisterFile(icfg.num_physical_regs,
                                   icfg.generation_bits, icfg.refcount_bits)
        map_table = MapTable()
        renamer = Renamer(map_table, prf)
        renamer.initialize_from_values(arch.regs)
        return PipelineState(
            program=program, config=config, arch=arch,
            diva=DivaChecker(arch), mem=MemoryHierarchy(config.memsys),
            predictor=self.build_predictor(config, program, arch),
            prf=prf, map_table=map_table, renamer=renamer,
            integration=self.build_integration(config, prf),
            rob=ReorderBuffer(config.rob_size),
            rs=self.build_scheduler(config, prf),
            lsq=LoadStoreQueue(config.lsq_size),
            cht=self.build_cht(config),
            stats=SimStats(benchmark=name or program.name,
                           config_name=icfg.describe(),
                           variant=config.variant))

    # ------------------------------------------------------------------
    # introspection (the ``repro variants`` listing)
    # ------------------------------------------------------------------
    @classmethod
    def overridden_slots(cls) -> Tuple[str, ...]:
        """Which slots this builder overrides relative to the baseline."""
        return tuple(slot for slot in SLOT_NAMES
                     if getattr(cls, slot) is not getattr(MachineBuilder,
                                                          slot))
