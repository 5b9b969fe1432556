"""Integration configuration knobs and the paper's named presets."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.serialization import SerializableConfig


class IndexScheme(enum.Enum):
    """How the integration table is indexed (paper Section 2.3)."""

    PC = "pc"                                  # original squash-reuse scheme
    OPCODE_IMM = "opcode_imm"                  # opcode ^ immediate
    OPCODE_IMM_CALLDEPTH = "opcode_imm_calldepth"  # enhanced: ^ call depth


class LispMode(enum.Enum):
    """Load-integration suppression flavour."""

    OFF = "off"
    REALISTIC = "realistic"
    ORACLE = "oracle"


@dataclass(frozen=True)
class IntegrationConfig(SerializableConfig):
    """All integration parameters.

    The default values reproduce the paper's baseline configuration: a
    1K-entry, 4-way set-associative IT indexed by
    opcode XOR immediate XOR call-depth, 1K physical registers, 4-bit
    generation counters, 4-bit reference counters, a 1K-entry 2-way LISP,
    and reverse entries for stack-pointer saves/restores.
    """

    enabled: bool = True
    # Extension 1: general reuse (False restricts eligibility to registers
    # freed by squashes, the original squash-reuse discipline).
    general_reuse: bool = True
    # Extension 2: IT index scheme.
    index_scheme: IndexScheme = IndexScheme.OPCODE_IMM_CALLDEPTH
    # Extension 3: reverse integration (speculative memory bypassing);
    # only under operation indexing, since a PC tag cannot name an inverse
    # (``__post_init__`` clears it under PC indexing).  ``reverse_sp_only``
    # limits store reverse entries to stack-pointer stores; it is read only
    # with ``reverse`` on (``__post_init__`` resets it otherwise).
    reverse: bool = True
    reverse_sp_only: bool = True

    # Integration table geometry.
    it_entries: int = 1024
    it_assoc: int = 4          # 0 means fully associative

    # Register mis-integration control.
    generation_bits: int = 4
    refcount_bits: int = 4

    # Load mis-integration control.
    lisp_mode: LispMode = LispMode.REALISTIC
    lisp_entries: int = 1024
    lisp_assoc: int = 2

    # Physical register file size (the paper simulates 1K registers).
    num_physical_regs: int = 1024

    def __post_init__(self) -> None:
        # A reverse entry tagged by its creator's PC could match only a
        # later instance of the creator itself, so PC indexing makes none.
        # Clearing the flag gives that machine one label and one cache key.
        if self.reverse and self.index_scheme is IndexScheme.PC:
            object.__setattr__(self, "reverse", False)
        # ``reverse_sp_only`` narrows reverse entries, so without them it
        # changes nothing; it takes its default for the same reason.
        if not self.reverse and not self.reverse_sp_only:
            object.__setattr__(self, "reverse_sp_only", True)

    # ------------------------------------------------------------------
    # presets matching the paper's Figure 4 experiment bars
    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "IntegrationConfig":
        """No integration at all (the speedup baseline)."""
        return cls(enabled=False)

    @classmethod
    def squash(cls, **overrides) -> "IntegrationConfig":
        """Baseline squash reuse: PC indexing, no simultaneous sharing."""
        cfg = cls(general_reuse=False, index_scheme=IndexScheme.PC,
                  reverse=False)
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def general(cls, **overrides) -> "IntegrationConfig":
        """+general: reference-counted sharing, still PC-indexed."""
        cfg = cls(general_reuse=True, index_scheme=IndexScheme.PC,
                  reverse=False)
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def opcode(cls, **overrides) -> "IntegrationConfig":
        """+opcode: enhanced opcode/immediate/call-depth indexing."""
        cfg = cls(general_reuse=True,
                  index_scheme=IndexScheme.OPCODE_IMM_CALLDEPTH,
                  reverse=False)
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def full(cls, **overrides) -> "IntegrationConfig":
        """+reverse: everything on (the paper's headline configuration)."""
        cfg = cls()
        return replace(cfg, **overrides) if overrides else cfg

    def with_lisp(self, mode: LispMode) -> "IntegrationConfig":
        return replace(self, lisp_mode=mode)

    def describe(self) -> str:
        """One-line human-readable description (used in reports):
        ``<reuse>+<scheme>[+reverse] IT=<entries>x<assoc> LISP=<mode>``."""
        if not self.enabled:
            return "no-integration"
        parts = ["general" if self.general_reuse else "squash",
                 self.index_scheme.value]
        if self.reverse:
            parts.append("reverse")
        return (f"{'+'.join(parts)} IT={self.it_entries}x"
                f"{self.it_assoc or 'full'} LISP={self.lisp_mode.value}")
