"""The machine builder: machine construction as data.

:class:`MachineBuilder` owns everything :class:`~repro.core.pipeline.
Processor` used to hard-wire in its constructor: it assembles the substrates
(branch prediction, renaming + integration, scheduler, load/store queue,
memory hierarchy, DIVA) from *per-slot factory methods*, wires them into the
fixed graph of the four stage components of :mod:`repro.core.stages`, and
hands the resulting :class:`Machine` to the engine.  Each factory is one
**slot**; a *machine variant* (see :mod:`repro.variants`) is a small
``MachineBuilder`` subclass overriding the substrate slots it cares about::

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

Slot inventory (the order below is construction order):

========================  ====================================================
slot                      builds
========================  ====================================================
``build_arch_state``      architectural state (fresh or from a checkpoint)
``build_diva``            the DIVA checker that owns architectural state
``build_memory``          the cache/TLB hierarchy
``build_predictor``       the front-end branch prediction unit
``build_prf``             the physical register file
``build_map_table``       the logical-to-physical map table
``build_renamer``         the renamer (map table + free list discipline)
``build_integration``     the rename-time integration logic + tables
``build_rob``             the reorder buffer
``build_scheduler``       the reservation stations / select logic
``build_lsq``             the load/store queue
``build_cht``             the collision history table
``build_stats``           the :class:`SimStats` the run accumulates into
========================  ====================================================

The stage components themselves are not slots: :meth:`MachineBuilder.build`
always constructs the stock ones, so the engine's per-stage skip guards
(which mirror each stock stage's no-work early return) hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.diva import DivaChecker
from repro.core.lsq import CollisionHistoryTable, LoadStoreQueue
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import ReservationStations
from repro.core.stages import (
    CommitDiva,
    FrontEnd,
    IssueExecute,
    PipelineState,
    RecoveryController,
    RenameIntegrate,
)
from repro.core.stats import SimStats
from repro.frontend.branch_predictor import BranchPredictor
from repro.functional.memory import SparseMemory
from repro.functional.state import ArchState
from repro.integration.logic import IntegrationLogic
from repro.isa.program import Program
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rename.map_table import MapTable
from repro.rename.physical import PhysicalRegisterFile
from repro.rename.renamer import Renamer

#: The overridable factory methods, in construction order.
SLOT_NAMES: Tuple[str, ...] = (
    "build_arch_state", "build_diva", "build_memory", "build_predictor",
    "build_prf", "build_map_table", "build_renamer", "build_integration",
    "build_rob", "build_scheduler", "build_lsq",
    "build_cht", "build_stats",
)


@dataclass
class Machine:
    """A fully wired machine: the shared datapath plus its four stages."""

    state: PipelineState
    front_end: FrontEnd
    recovery: RecoveryController
    rename_integrate: RenameIntegrate
    issue_execute: IssueExecute
    commit_diva: CommitDiva


class MachineBuilder:
    """Assembles a :class:`Machine` from overridable per-slot factories.

    The base class *is* the baseline variant: its slots build exactly the
    machine the seed ``Processor.__init__`` hard-wired, and
    :meth:`build` reproduces the seed wiring order bit-for-bit.  Subclasses
    override individual slots and inherit the rest.
    """

    #: Registry name of the variant this builder implements.
    name = "baseline"
    #: One-line human-readable description (``repro variants`` listing).
    description = ("the paper's 4-way out-of-order machine with register "
                   "integration, exactly as configured")

    # ------------------------------------------------------------------
    # substrate slots
    # ------------------------------------------------------------------
    def build_arch_state(self, program: Program,
                         initial_state: Optional[ArchState]) -> ArchState:
        """Architectural (committed) state: fresh, or resumed from a
        functional checkpoint (copied so the caller's checkpoint stays
        reusable)."""
        if initial_state is not None:
            return initial_state.copy()
        return ArchState(memory=SparseMemory(program.data), pc=program.entry)

    def build_diva(self, arch: ArchState) -> DivaChecker:
        return DivaChecker(arch)

    def build_memory(self, config: MachineConfig) -> MemoryHierarchy:
        return MemoryHierarchy(config.memsys)

    def build_predictor(self, config: MachineConfig, program: Program,
                        arch: ArchState) -> BranchPredictor:
        """The front-end prediction unit.  ``program`` and ``arch`` are
        offered so oracle variants can precompute the architectural control
        stream; the baseline predictor ignores them."""
        return BranchPredictor(config.branch_predictor)

    def build_prf(self, config: MachineConfig) -> PhysicalRegisterFile:
        icfg = config.integration
        return PhysicalRegisterFile(icfg.num_physical_regs,
                                    icfg.generation_bits,
                                    icfg.refcount_bits)

    def build_map_table(self, config: MachineConfig) -> MapTable:
        return MapTable()

    def build_renamer(self, config: MachineConfig, map_table: MapTable,
                      prf: PhysicalRegisterFile) -> Renamer:
        return Renamer(map_table, prf)

    def build_integration(self, config: MachineConfig,
                          prf: PhysicalRegisterFile) -> IntegrationLogic:
        return IntegrationLogic(config.integration, prf)

    def build_rob(self, config: MachineConfig) -> ReorderBuffer:
        return ReorderBuffer(config.rob_size)

    def build_scheduler(self, config: MachineConfig,
                        prf: PhysicalRegisterFile) -> ReservationStations:
        return ReservationStations(config.rs_entries, config.ports,
                                   config.combined_ldst_port, prf=prf)

    def build_lsq(self, config: MachineConfig) -> LoadStoreQueue:
        return LoadStoreQueue(config.lsq_size)

    def build_cht(self, config: MachineConfig) -> CollisionHistoryTable:
        return CollisionHistoryTable(config.collision_history_entries)

    def build_stats(self, config: MachineConfig, program: Program,
                    name: Optional[str]) -> SimStats:
        return SimStats(benchmark=name or program.name,
                        config_name=config.integration.describe(),
                        variant=config.variant)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build(self, program: Program, config: MachineConfig,
              name: Optional[str] = None,
              initial_state: Optional[ArchState] = None) -> Machine:
        """Assemble and wire a complete machine (the seed wiring order)."""
        arch = self.build_arch_state(program, initial_state)
        diva = self.build_diva(arch)
        mem = self.build_memory(config)
        predictor = self.build_predictor(config, program, arch)

        prf = self.build_prf(config)
        map_table = self.build_map_table(config)
        renamer = self.build_renamer(config, map_table, prf)
        renamer.initialize_from_values(arch.regs)
        integration = self.build_integration(config, prf)

        rob = self.build_rob(config)
        rs = self.build_scheduler(config, prf)
        lsq = self.build_lsq(config)
        cht = self.build_cht(config)
        stats = self.build_stats(config, program, name)

        state = PipelineState(
            program=program, config=config, arch=arch, diva=diva, mem=mem,
            predictor=predictor, prf=prf, map_table=map_table,
            renamer=renamer, integration=integration, rob=rob, rs=rs,
            lsq=lsq, cht=cht, stats=stats)
        front_end = FrontEnd(state)
        recovery = RecoveryController(state, front_end)
        return Machine(
            state=state, front_end=front_end, recovery=recovery,
            rename_integrate=RenameIntegrate(state, front_end, recovery),
            issue_execute=IssueExecute(state, recovery),
            commit_diva=CommitDiva(state, recovery))

    # ------------------------------------------------------------------
    # introspection (the ``repro variants`` listing)
    # ------------------------------------------------------------------
    @classmethod
    def overridden_slots(cls) -> Tuple[str, ...]:
        """Which slots this builder overrides relative to the baseline."""
        return tuple(slot for slot in SLOT_NAMES
                     if getattr(cls, slot) is not getattr(MachineBuilder,
                                                          slot))
