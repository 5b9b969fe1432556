"""CPI stall stacks: per-cycle top-of-ROB blame attribution.

Every simulated cycle is charged to exactly one bucket of
:data:`CPI_BUCKETS`, accumulated in ``SimStats.cpi_stack`` so stacks sum
to ``cycles``, merge losslessly across shards (plain Counter addition)
and stay bit-identical with elision on or off and between the driver and
a loop over ``Processor.step()``.

The attribution rule is *state-based*, evaluated at the end of a cycle
(after all five stage phases ran, before the clock advances):

* a cycle that retired at least one instruction is ``retired``;
* otherwise the head of the reorder buffer is blamed: an instruction
  waiting on a not-ready source/destination register is
  ``waiting_operands``; an issued, unfinished memory operation is
  ``memory``; a completed (or integrated-and-ready) head that still
  cannot leave -- the minimum rename-to-retire age, a rejected store
  port -- is ``rename_stall``;
* an empty reorder buffer is blamed on the recovery cause the commit
  path recorded in ``PipelineState.stall_cause`` (``squash_recovery``
  after a mis-speculation squash, ``integration_replay`` after a DIVA
  mis-integration fault) until the first innocent instruction retires,
  and on ``frontend_empty`` otherwise (fetch/decode latency, instruction
  cache misses, the initial pipeline fill).

Elided spans (the event-horizon driver) are attributed arithmetically:
the machine is provably quiescent across the span, so every elided cycle
classifies identically and the driver adds ``span x blame-of-quiescent-
state`` in one step -- exactly the ``rs_occupancy`` accumulation rule.
Every condition below is constant across a quiescent span: the span is
clamped to end before the head's minimum-age gate opens and before the
fetch-queue head decodes, and everything else only changes through stage
activity.

This module is imported by the core engine; it must not import any
``repro`` package.
"""

from __future__ import annotations

#: A cycle that retired at least one instruction.
CPI_RETIRED = "retired"
#: Empty ROB, no recovery in flight: fetch/decode has not delivered.
CPI_FRONTEND_EMPTY = "frontend_empty"
#: The ROB head finished executing but cannot pass retirement's
#: structural gates (minimum rename-to-retire age, store-port rejection).
CPI_RENAME_STALL = "rename_stall"
#: The ROB head waits on operand/result registers (unissued work, an
#: in-flight non-memory producer, an integrated-but-not-ready result).
CPI_WAITING_OPERANDS = "waiting_operands"
#: The ROB head is an issued, unfinished load or store.
CPI_MEMORY = "memory"
#: Empty ROB while refilling after a DIVA mis-integration fault.
CPI_INTEGRATION_REPLAY = "integration_replay"
#: Empty ROB while refilling after a mis-speculation squash.
CPI_SQUASH_RECOVERY = "squash_recovery"

#: Every blame bucket, in stack-plot order (retired at the bottom).
CPI_BUCKETS = (
    CPI_RETIRED,
    CPI_FRONTEND_EMPTY,
    CPI_RENAME_STALL,
    CPI_WAITING_OPERANDS,
    CPI_MEMORY,
    CPI_INTEGRATION_REPLAY,
    CPI_SQUASH_RECOVERY,
)


def classify_stall(state) -> str:
    """Blame one non-retiring cycle on a stall bucket.

    ``state`` is a :class:`~repro.core.stages.base.PipelineState` observed
    at the end of a cycle in which nothing retired.  Reads only engine
    state, so ``Processor.step()``, the driver loop and the elided-span
    attribution all agree cycle for cycle.
    """
    rob_entries = state.rob._entries
    if not rob_entries:
        cause = state.stall_cause
        return cause if cause is not None else CPI_FRONTEND_EMPTY
    head = rob_entries[0]
    if head.integrated:
        dest = head.dest_preg
        if dest is not None and not state.prf.ready[dest]:
            return CPI_WAITING_OPERANDS
        return CPI_RENAME_STALL
    if head.completed:
        return CPI_RENAME_STALL
    if head.issued and head.info.is_mem:
        return CPI_MEMORY
    return CPI_WAITING_OPERANDS
