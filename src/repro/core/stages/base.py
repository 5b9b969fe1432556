"""Shared scaffolding for the pipeline stages.

The cycle-level model is decomposed into four stage components --
:class:`~repro.core.stages.frontend.FrontEnd`,
:class:`~repro.core.stages.rename.RenameIntegrate`,
:class:`~repro.core.stages.execute.IssueExecute` and
:class:`~repro.core.stages.commit.CommitDiva` -- that communicate through a
:class:`PipelineState` datapath object.  Each stage owns the machinery of its
pipeline segment; the :class:`~repro.core.builder.MachineBuilder` builds the
substrates and the :class:`~repro.core.pipeline.Processor` engine wires the
stages into a fixed graph and advances the clock.

Mis-speculation recovery cuts across stages (a resolving branch lives in the
execution engine but must flush the front end and repair rename state), so
it is centralised in :class:`RecoveryController`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.isa.instruction import DynInst
from repro.obs.cpi import CPI_SQUASH_RECOVERY

if TYPE_CHECKING:
    from repro.core.stages.frontend import FrontEnd

# The opcode-class groupings the stages route on (reservation-station
# occupancy, rename-complete classes, ALU-like execution, indirect control)
# are precomputed per opcode as OpInfo predicates -- ``needs_rs``,
# ``rename_complete``, ``is_alu``, ``is_indirect_ctl`` in
# :mod:`repro.isa.opcodes` -- so the per-cycle loops read attributes instead
# of hashing enum members into frozensets.


class PipelineState:
    """The shared datapath: substrates plus global bookkeeping.

    Stages mutate this object; it carries no per-stage storage (the fetch
    queue lives in the front end, the event queues in the execution stage).
    """

    __slots__ = (
        "program", "config", "arch", "diva", "mem", "predictor", "prf",
        "map_table", "renamer", "integration", "rob", "rs", "lsq", "cht",
        "stats", "cycle", "seq", "last_retire_cycle",
        "preg_producer", "predictions", "retire_budget", "tracer",
        "stall_cause",
    )

    def __init__(self, *, program, config, arch, diva, mem, predictor, prf,
                 map_table, renamer, integration, rob, rs, lsq, cht, stats):
        self.program = program
        self.config = config
        self.arch = arch
        self.diva = diva
        self.mem = mem
        self.predictor = predictor
        self.prf = prf
        self.map_table = map_table
        self.renamer = renamer
        self.integration = integration
        self.rob = rob
        self.rs = rs
        self.lsq = lsq
        self.cht = cht
        self.stats = stats

        # Global bookkeeping.
        self.cycle = 0
        self.seq = 0
        self.last_retire_cycle = 0
        self.preg_producer: Dict[int, DynInst] = {}
        self.predictions: Dict[int, object] = {}
        #: Exact retired-instruction stop (None = run to completion).  The
        #: commit stage refuses to retire past it, so a slice ends on a
        #: precise architectural instruction boundary.
        self.retire_budget: Optional[int] = None
        #: Optional :class:`~repro.obs.trace.PipelineTracer`.  Every stage
        #: hook is guarded by a ``tracer is None`` check, so an untraced
        #: run pays nothing for the observability layer.
        self.tracer = None
        #: Recovery blame for empty-ROB cycles (a CPI-stack bucket name
        #: from :mod:`repro.obs.cpi`, or None): set by squash/DIVA-fault
        #: recovery, cleared by the next innocent retirement.
        self.stall_cause: Optional[str] = None


class RecoveryController:
    """Cross-stage mis-speculation recovery.

    Squashing undoes rename effects youngest-first, clears scheduler and
    load/store-queue entries, and redirects the front end; predictor state is
    restored from the per-instruction checkpoint taken at fetch.
    """

    def __init__(self, state: PipelineState, frontend: FrontEnd):
        self.state = state
        self.frontend = frontend

    # ------------------------------------------------------------------
    def squash_younger(self, dyn: DynInst, redirect_pc: int) -> None:
        """Squash everything younger than ``dyn`` (branch misprediction)."""
        squashed = self.state.rob.squash_younger_than(dyn.seq)
        self.do_squash(squashed, redirect_pc)
        self.recover_predictor_after(dyn, dyn.branch_taken, redirect_pc)

    def squash_from(self, dyn: DynInst, redirect_pc: int) -> None:
        """Squash ``dyn`` and everything younger (memory-order violation)."""
        squashed = self.state.rob.squash_younger_than(dyn.seq - 1)
        self.do_squash(squashed, redirect_pc)
        self.recover_predictor_before(dyn)

    def do_squash(self, squashed: List[DynInst], redirect_pc: int) -> None:
        """Common squash worker: walk the squashed instructions youngest
        first, undoing their rename effects, then flush the front end."""
        state = self.state
        tracer = state.tracer
        cycle = state.cycle
        seqs = set()
        for dyn in squashed:            # youngest first (ROB pop order)
            dyn.squashed = True
            seqs.add(dyn.seq)
            state.renamer.squash(dyn)
            state.predictions.pop(dyn.seq, None)
            state.stats.squashed += 1
            if tracer is not None:
                tracer.on_squash(dyn, cycle)
        if seqs:
            state.rs.squash(seqs)
            state.lsq.squash(seqs)
        self.frontend.flush(redirect_pc)
        # Empty-ROB cycles until the next innocent retirement are recovery,
        # not front-end supply (see repro.obs.cpi).
        state.stall_cause = CPI_SQUASH_RECOVERY

    # ------------------------------------------------------------------
    def recover_predictor_after(self, dyn: DynInst, taken: bool,
                                target: int) -> None:
        """Restore the front-end prediction state to "just after ``dyn``"."""
        if dyn.map_checkpoint is not None:
            self.state.predictor.recover_after(dyn.map_checkpoint, dyn.inst,
                                               taken)

    def recover_predictor_before(self, dyn: DynInst) -> None:
        if dyn.map_checkpoint is not None:
            self.state.predictor.restore(dyn.map_checkpoint)
