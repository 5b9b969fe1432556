"""Pipeline event tracing: per-instruction lifecycle streams.

A :class:`PipelineTracer` is handed to
:class:`~repro.core.pipeline.Processor` (``tracer=``) and receives one
hook call per lifecycle transition from the four stage components:
``fetch`` (front end), ``rename``/``dispatch`` (rename stage), ``issue``
and ``complete`` (execution engine), ``retire`` (commit) and ``squash``
(recovery controller and front-end flush).  Tracing is strictly opt-in:
every hook site is guarded by a single ``tracer is None`` check, so an
untraced run -- the default -- pays nothing.  An *active* tracer only
forces
``REPRO_ELIDE``-off semantics (elided spans have no per-cycle events to
observe); results are bit-identical either way.

Two output formats, both optional:

* **JSON-lines** -- one event object per line, written as events happen:
  ``{"event": ..., "seq": ..., "cycle": ..., "pc": ..., "op": ...}``;
* **Konata pipetrace** -- a ``Kanata\\t0004`` file replayable in the
  Konata pipeline viewer, generated at :meth:`close` by replaying the
  buffered records in cycle order (``I``/``L``/``S``/``E``/``R``
  records; retired instructions emit an ``R``-type-0 record, squashed
  ones ``R``-type-1, so the retired-record count equals
  ``SimStats.retired`` exactly).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: Konata stage labels, in pipeline order.
_STAGE_FETCH = "F"
_STAGE_RENAME = "R"
_STAGE_EXECUTE = "X"
_STAGE_WAIT = "W"


class PipelineTracer:
    """Collects lifecycle events; optionally streams JSONL and writes a
    Konata pipetrace on :meth:`close`.

    ``collect=True`` additionally keeps every event as a dict in
    :attr:`events` (the test-suite mode).  The counters
    (:attr:`retires`, :attr:`squashes`, ...) are always maintained, so a
    memory-only tracer can cross-validate against :class:`SimStats`
    without any I/O.
    """

    def __init__(self, jsonl_path: Optional[str] = None,
                 konata_path: Optional[str] = None,
                 collect: bool = False) -> None:
        self._jsonl = open(jsonl_path, "w", encoding="utf-8") \
            if jsonl_path else None
        self._konata_path = konata_path
        self.collect = collect
        self.events: List[Dict[str, Any]] = []
        #: seq -> in-flight Konata record state (id, current stage).
        self._live: Dict[int, Tuple[int, str]] = {}
        #: (cycle, record id, line-order, text) tuples, replay-sorted.
        self._konata_events: List[Tuple[int, int, int, str]] = []
        self._next_id = 0
        self._next_retire_id = 1
        self._last_cycle = 0
        self.fetches = 0
        self.renames = 0
        self.dispatches = 0
        self.issues = 0
        self.completes = 0
        self.retires = 0
        self.squashes = 0
        self.closed = False

    # ------------------------------------------------------------------
    def _emit(self, event: str, dyn, cycle: int, **extra: Any) -> None:
        if cycle > self._last_cycle:
            self._last_cycle = cycle
        if self._jsonl is None and not self.collect:
            return
        record: Dict[str, Any] = {
            "event": event, "seq": dyn.seq, "cycle": cycle,
            "pc": dyn.inst.pc, "op": dyn.inst.op.value,
        }
        record.update(extra)
        if self._jsonl is not None:
            self._jsonl.write(json.dumps(record, sort_keys=True) + "\n")
        if self.collect:
            self.events.append(record)

    def _konata(self, cycle: int, rec_id: int, text: str) -> None:
        if self._konata_path is not None:
            self._konata_events.append(
                (cycle, rec_id, len(self._konata_events), text))

    def _stage_change(self, seq: int, cycle: int, stage: str) -> None:
        entry = self._live.get(seq)
        if entry is None:
            return
        rec_id, current = entry
        if current == stage:
            return
        self._konata(cycle, rec_id, f"E\t{rec_id}\t0\t{current}")
        self._konata(cycle, rec_id, f"S\t{rec_id}\t0\t{stage}")
        self._live[seq] = (rec_id, stage)

    def _finalize(self, dyn, cycle: int, flushed: bool) -> None:
        entry = self._live.pop(dyn.seq, None)
        if entry is None:
            return
        rec_id, current = entry
        self._konata(cycle, rec_id, f"E\t{rec_id}\t0\t{current}")
        retire_id = self._next_retire_id
        self._next_retire_id += 1
        self._konata(cycle, rec_id,
                     f"R\t{rec_id}\t{retire_id}\t{1 if flushed else 0}")

    # ------------------------------------------------------------------
    # the stage hooks
    # ------------------------------------------------------------------
    def on_fetch(self, dyn, cycle: int) -> None:
        self.fetches += 1
        self._emit("fetch", dyn, cycle)
        if self._konata_path is not None:
            rec_id = self._next_id
            self._next_id += 1
            self._live[dyn.seq] = (rec_id, _STAGE_FETCH)
            self._konata(cycle, rec_id, f"I\t{rec_id}\t{dyn.seq}\t0")
            self._konata(cycle, rec_id,
                         f"L\t{rec_id}\t0\t{dyn.seq}: "
                         f"{dyn.inst.op.value} @0x{dyn.inst.pc:x}")
            self._konata(cycle, rec_id, f"S\t{rec_id}\t0\t{_STAGE_FETCH}")
        elif self.collect:
            self._live[dyn.seq] = (dyn.seq, _STAGE_FETCH)

    def on_rename(self, dyn, cycle: int) -> None:
        self.renames += 1
        self._emit("rename", dyn, cycle, integrated=dyn.integrated)
        self._stage_change(dyn.seq, cycle, _STAGE_RENAME)
        if dyn.dispatch_cycle == cycle:
            self.dispatches += 1
            self._emit("dispatch", dyn, cycle)
        elif dyn.completed:
            # Integrated / rename-complete instructions finish here and
            # wait for retirement; they never issue.
            self.completes += 1
            self._emit("complete", dyn, cycle)
            self._stage_change(dyn.seq, cycle, _STAGE_WAIT)

    def on_issue(self, dyn, cycle: int) -> None:
        self.issues += 1
        self._emit("issue", dyn, cycle)
        self._stage_change(dyn.seq, cycle, _STAGE_EXECUTE)

    def on_complete(self, dyn, cycle: int) -> None:
        self.completes += 1
        self._emit("complete", dyn, cycle)
        self._stage_change(dyn.seq, cycle, _STAGE_WAIT)

    def on_retire(self, dyn, cycle: int) -> None:
        self.retires += 1
        self._emit("retire", dyn, cycle, integrated=dyn.integrated,
                   mis_integrated=dyn.mis_integrated)
        self._finalize(dyn, cycle, flushed=False)

    def on_squash(self, dyn, cycle: int) -> None:
        self.squashes += 1
        self._emit("squash", dyn, cycle)
        self._finalize(dyn, cycle, flushed=True)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close outputs (idempotent).

        Instructions still in flight (the machine halted around them) are
        finalized as flushed at the last observed cycle, so the Konata
        replay is well-formed and its retired count stays exact.
        """
        if self.closed:
            return
        self.closed = True
        for seq in sorted(self._live):
            rec_id, current = self._live[seq]
            self._konata(self._last_cycle, rec_id,
                         f"E\t{rec_id}\t0\t{current}")
            self._konata(self._last_cycle, rec_id,
                         f"R\t{rec_id}\t{self._next_retire_id}\t1")
            self._next_retire_id += 1
        self._live.clear()
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None
        if self._konata_path is not None:
            with open(self._konata_path, "w", encoding="utf-8") as out:
                out.write("Kanata\t0004\n")
                self._konata_events.sort(key=lambda e: (e[0], e[2]))
                cycle = self._konata_events[0][0] if self._konata_events else 0
                out.write(f"C=\t{cycle}\n")
                for event_cycle, _, _, text in self._konata_events:
                    if event_cycle > cycle:
                        out.write(f"C\t{event_cycle - cycle}\n")
                        cycle = event_cycle
                    out.write(text + "\n")
            self._konata_events = []

    def __enter__(self) -> "PipelineTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
