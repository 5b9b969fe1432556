"""Machine configuration (paper Section 3.1 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, FrozenSet

from repro.frontend.branch_predictor import BranchPredictorConfig
from repro.integration.config import IntegrationConfig
from repro.memsys.hierarchy import MemSysConfig
from repro.serialization import SerializableConfig


@dataclass(frozen=True)
class IssuePortConfig(SerializableConfig):
    """Per-cycle issue-port limits of the execution core.

    The paper's baseline issues up to four instructions per cycle with at
    most two simple integer operations, two floating-point or
    complex-integer operations, one load and one store.
    """

    issue_width: int = 4
    simple_int: int = 2
    complex_fp: int = 2
    loads: int = 1
    stores: int = 1
    #: Whether the load port and the store port are one shared port, so at
    #: most one memory operation issues per cycle (the IW configuration).
    combined_ldst_port: bool = False


@dataclass(frozen=True)
class MachineConfig(SerializableConfig):
    """Every structural parameter of the simulated processor.

    Canonical serialization (``to_dict``/``from_dict``) and a stable
    ``fingerprint()`` hash covering every nested field come from
    :class:`~repro.serialization.SerializableConfig`; the fingerprint is the
    cache identity of a configuration throughout the experiment engine.
    """

    # Superscalar widths.
    fetch_width: int = 4
    rename_width: int = 4
    retire_width: int = 4
    ports: IssuePortConfig = IssuePortConfig()

    # Window sizes.
    rob_size: int = 128
    lsq_size: int = 64
    rs_entries: int = 40

    # Pipeline depths the model charges.  Rename, schedule, DIVA and
    # retire have no knob: an instruction retires two cycles after rename
    # at the earliest (see ``CommitDiva``).
    fetch_stages: int = 3
    decode_stages: int = 1
    regread_stages: int = 2
    writeback_stages: int = 1

    # Front-end buffering.
    fetch_queue_size: int = 16

    # Memory-disambiguation hardware.
    collision_history_entries: int = 256

    # Sub-configurations.
    branch_predictor: BranchPredictorConfig = BranchPredictorConfig()
    memsys: MemSysConfig = MemSysConfig()
    integration: IntegrationConfig = IntegrationConfig()

    # Simulation limits.
    max_cycles: int = 5_000_000
    deadlock_cycles: int = 50_000

    # Machine variant: names a registered :class:`~repro.core.builder.
    # MachineBuilder` subclass (see :mod:`repro.variants`) that decides how
    # the substrates and stages are assembled.  The field participates in
    # ``fingerprint()`` -- two variants of the same structural configuration
    # can never share a cache entry -- but is elided from the canonical JSON
    # while it holds the default, so every pre-variant cache key (always the
    # baseline machine) still resolves.
    variant: str = "baseline"

    #: Fields omitted from canonical serialization at their default value.
    _ELIDE_DEFAULT: ClassVar[FrozenSet[str]] = frozenset({"variant"})

    # ------------------------------------------------------------------
    def with_integration(self, integration: IntegrationConfig
                         ) -> "MachineConfig":
        return replace(self, integration=integration)

    def with_variant(self, variant: str) -> "MachineConfig":
        """The same structural configuration on another machine variant.

        The name is validated when the machine is built (or threaded through
        the experiment engine), not here, so the config layer stays free of
        a dependency on the variant registry.
        """
        return replace(self, variant=variant)

    # ------------------------------------------------------------------
    # reduced-complexity presets for Figure 7
    # ------------------------------------------------------------------
    def reduced_rs(self, rs_entries: int = 20) -> "MachineConfig":
        """The paper's RS configuration: half the reservation stations."""
        return replace(self, rs_entries=rs_entries)

    def reduced_issue_width(self) -> "MachineConfig":
        """The paper's IW configuration: 3-way issue with a single combined
        load/store port, front end still 4-wide."""
        ports = IssuePortConfig(issue_width=3, simple_int=2, complex_fp=1,
                                loads=1, stores=1, combined_ldst_port=True)
        return replace(self, ports=ports)

    def reduced_both(self, rs_entries: int = 20) -> "MachineConfig":
        """The paper's IW+RS configuration."""
        return self.reduced_issue_width().reduced_rs(rs_entries)
