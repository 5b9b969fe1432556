"""Simulation statistics.

:class:`SimStats` carries every metric the paper's evaluation reports:
IPC/speedup inputs, integration rates split into direct and reverse,
mis-integration counts, the four integration-stream breakdowns of Figure 5
(instruction type, integration distance, result status, reference count),
branch-resolution latency, fetched-instruction counts, executed-instruction
counts and reservation-station occupancy.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro.isa.opcodes import IntegrationType


class ResultStatus(enum.Enum):
    """State of the integrated result at integration time (Figure 5
    "Status" breakdown)."""

    RENAME = "rename"          # producer renamed but not yet issued
    ISSUE = "issue"            # producer issued but not yet retired
    RETIRE = "retire"          # producer retired, mapping still live
    SHADOW_SQUASH = "shadow"   # zero references: shadowed or squashed

    __hash__ = object.__hash__   # see IntegrationType


# Buckets used by the Figure 5 "Distance" breakdown (renamed instructions
# between the entry creator and the integrating instruction).
DISTANCE_BUCKETS = (4, 16, 64, 256, 1024)


@dataclass
class SimStats:
    """All counters produced by one simulation run."""

    benchmark: str = ""
    config_name: str = ""
    #: Machine variant the run was built on (see :mod:`repro.variants`).
    #: Identification only -- merged like ``benchmark`` (first non-empty) and
    #: absent from pre-variant cache entries (deserializes to "").
    variant: str = ""

    # Global progress.
    cycles: int = 0
    #: Cycles the driver advanced arithmetically instead of iterating
    #: (event-horizon elision).  A driver-mechanics counter: machine
    #: behaviour is bit-identical with elision on or off, so this field is
    #: excluded from the cross-driver equivalence fingerprint.
    cycles_elided: int = 0
    fetched: int = 0
    renamed: int = 0
    retired: int = 0
    squashed: int = 0

    # Execution engine.
    issued: int = 0
    executed_loads: int = 0
    executed_stores: int = 0
    rs_occupancy_sum: int = 0
    rs_occupancy_samples: int = 0

    # Branches.
    retired_branches: int = 0
    retired_mispredicted_branches: int = 0
    branch_resolution_latency_sum: int = 0
    memory_order_violations: int = 0

    # Collision history table (one hit per dynamic load whose issue was
    # constrained by a collision prediction; one training per violation).
    cht_hits: int = 0
    cht_trainings: int = 0

    # Integration (counted at retirement, per the paper's methodology).
    integrated_direct: int = 0
    integrated_reverse: int = 0
    mis_integrations: int = 0
    load_mis_integrations: int = 0
    register_mis_integrations: int = 0
    lisp_suppressed: int = 0
    refcount_saturation_failures: int = 0

    # Figure 5 breakdowns (retired integrating instructions only).
    integration_by_type: Counter = field(default_factory=Counter)
    reverse_by_type: Counter = field(default_factory=Counter)
    integration_distance: Counter = field(default_factory=Counter)
    integration_status: Counter = field(default_factory=Counter)
    integration_refcount: Counter = field(default_factory=Counter)

    # Per-type retirement counts (denominators for per-type integration rates).
    retired_by_type: Counter = field(default_factory=Counter)

    # CPI stall stack: every simulated cycle is blamed on exactly one
    # bucket from :mod:`repro.obs.cpi` (``retired`` / ``frontend_empty`` /
    # ``rename_stall`` / ``waiting_operands`` / ``memory`` /
    # ``integration_replay`` / ``squash_recovery``), so the stack's values
    # always sum to ``cycles``.  Keys are plain strings; elided spans are
    # attributed arithmetically (span x blame of the quiescent state), so
    # the stack is bit-identical with elision on or off and merges
    # losslessly across shards like every other Counter.
    cpi_stack: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def integrated(self) -> int:
        return self.integrated_direct + self.integrated_reverse

    @property
    def integration_rate(self) -> float:
        """Fraction of retired instructions that integrated (bypassed the
        execution engine)."""
        return self.integrated / self.retired if self.retired else 0.0

    @property
    def direct_integration_rate(self) -> float:
        return self.integrated_direct / self.retired if self.retired else 0.0

    @property
    def reverse_integration_rate(self) -> float:
        return self.integrated_reverse / self.retired if self.retired else 0.0

    @property
    def mis_integrations_per_million(self) -> float:
        if not self.retired:
            return 0.0
        return self.mis_integrations * 1_000_000.0 / self.retired

    @property
    def avg_rs_occupancy(self) -> float:
        if not self.rs_occupancy_samples:
            return 0.0
        return self.rs_occupancy_sum / self.rs_occupancy_samples

    @property
    def avg_branch_resolution_latency(self) -> float:
        if not self.retired_mispredicted_branches:
            return 0.0
        return (self.branch_resolution_latency_sum
                / self.retired_mispredicted_branches)

    @property
    def branch_misprediction_rate(self) -> float:
        if not self.retired_branches:
            return 0.0
        return self.retired_mispredicted_branches / self.retired_branches

    # ------------------------------------------------------------------
    # lossless recombination of per-slice statistics
    # ------------------------------------------------------------------
    def merge(self, other: "SimStats") -> "SimStats":
        """Combine two runs' counters losslessly into a new :class:`SimStats`.

        Every raw counter is a sum (including the occupancy/latency
        accumulator + sample pairs, so the derived averages recombine
        correctly); the histogram ``Counter`` fields add element-wise.  The
        operation is associative with ``SimStats()`` as identity, which is
        what lets sharded simulation merge per-slice statistics in any
        grouping and get the same result.  Identification fields
        (``benchmark``/``config_name``) keep the first non-empty value.
        """
        merged = SimStats()
        for f in dataclasses.fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, Counter):
                total: Counter = Counter(mine)
                total.update(theirs)
                setattr(merged, f.name, total)
            elif isinstance(mine, str):
                setattr(merged, f.name, mine or theirs)
            else:
                setattr(merged, f.name, mine + theirs)
        return merged

    @classmethod
    def merge_all(cls, parts: "Iterable[SimStats]") -> "SimStats":
        """Fold :meth:`merge` over ``parts`` (empty input -> identity)."""
        merged = cls()
        for part in parts:
            merged = merged.merge(part)
        return merged

    # ------------------------------------------------------------------
    # canonical serialization (used by the on-disk result cache)
    # ------------------------------------------------------------------
    #: Counter fields keyed by an enum (serialized via the enum value).
    _ENUM_COUNTERS = {
        "integration_by_type": IntegrationType,
        "reverse_by_type": IntegrationType,
        "integration_status": ResultStatus,
        "retired_by_type": IntegrationType,
    }
    #: Counter fields keyed by a plain int.
    _INT_COUNTERS = ("integration_distance", "integration_refcount")
    #: Counter fields keyed by a plain string (deserialized back into a
    #: Counter, not left as a bare dict).
    _STR_COUNTERS = ("cpi_stack",)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON rendering: counters become {key: count} dicts."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counter):
                if f.name in self._ENUM_COUNTERS:
                    out[f.name] = {key.value: count
                                   for key, count in value.items()}
                else:
                    out[f.name] = {str(key): count
                                   for key, count in value.items()}
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimStats":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ValueError(f"unknown SimStats fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            if name in cls._ENUM_COUNTERS:
                enum_cls = cls._ENUM_COUNTERS[name]
                kwargs[name] = Counter({enum_cls(key): count
                                        for key, count in value.items()})
            elif name in cls._INT_COUNTERS:
                kwargs[name] = Counter({int(key): count
                                        for key, count in value.items()})
            elif name in cls._STR_COUNTERS:
                kwargs[name] = Counter({str(key): count
                                        for key, count in value.items()})
            else:
                kwargs[name] = value
        return cls(**kwargs)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by the experiment reporters."""
        return {
            "benchmark": self.benchmark,
            "config": self.config_name,
            "cycles": self.cycles,
            "retired": self.retired,
            "ipc": round(self.ipc, 4),
            "integration_rate": round(self.integration_rate, 4),
            "direct_rate": round(self.direct_integration_rate, 4),
            "reverse_rate": round(self.reverse_integration_rate, 4),
            "mis_integrations_per_million": round(
                self.mis_integrations_per_million, 1),
            "branch_resolution_latency": round(
                self.avg_branch_resolution_latency, 2),
            "avg_rs_occupancy": round(self.avg_rs_occupancy, 2),
        }


def distance_bucket(distance: int) -> int:
    """Map a raw integration distance to its histogram bucket."""
    for bucket in DISTANCE_BUCKETS:
        if distance <= bucket:
            return bucket
    return DISTANCE_BUCKETS[-1] * 4
