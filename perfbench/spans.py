"""In-memory spans around the calls the benchmark makes into each layer.

The traced run wraps public functions of the simulator's layers -- the
stage ``tick``/``writeback`` methods of each :class:`Processor`, integration
``consider``/``create_entries``, the DIVA check, the memory hierarchy, the
result cache, the job queue and the sharding planner -- with recorders that
append one row per call: name, parent span, start and end in
``perf_counter_ns``.  Nothing inside ``src/`` changes; every wrapper returns
exactly what the wrapped call returned, so simulation results are
bit-identical (the runner checks this).  Rows live in flat arrays while the
run goes and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanLog:
    """Span rows in parallel arrays; ``parent`` is a row index or -1."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        #: name -> calls whose result the wrapper's ``useful`` test accepted.
        self.useful: Counter = Counter()
        self._stack = [-1]
        self._restore: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable,
             useful: Optional[Callable[[Any], bool]] = None) -> Callable:
        """``fn`` with a span recorded around every call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter_ns
        tally = self.useful

        def span(*args, **kwargs):
            row = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(row)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()
            if useful is not None and useful(result):
                tally[name] += 1
            return result

        return span

    def patch(self, owner: Any, attr: str, name: str,
              useful: Optional[Callable[[Any], bool]] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, useful))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self, lo: int = 0, hi: Optional[int] = None
               ) -> Dict[str, Tuple[int, int, int]]:
        """``name -> (calls, total ns, self ns)`` over rows ``[lo, hi)``.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        hi = len(self) if hi is None else hi
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        child = [0] * len(self.names)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for row in range(lo, hi):
            nid = name[row]
            duration = end[row] - start[row]
            count[nid] += 1
            total[nid] += duration
            up = parent[row]
            if up >= 0:
                child[name[up]] += duration
        return {n: (count[i], total[i], total[i] - child[i])
                for i, n in enumerate(self.names) if count[i]}

    def write(self, path: Path) -> None:
        """Write the rows: ``<path>`` holds the four arrays back to back
        (native byte order), ``<path>.json`` their names, types and length."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("name", self.name), ("parent", self.parent),
                   ("start_ns", self.start), ("end_ns", self.end))
        with open(path, "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        header = {"rows": len(self), "names": self.names,
                  "columns": [[label, column.typecode, column.itemsize]
                              for label, column in columns]}
        path.with_name(path.name + ".json").write_text(json.dumps(header))


def _integrated(decision: Any) -> bool:
    return bool(decision.integrate)


def _loaded(result: Any) -> bool:
    return result is not None


#: Calls wrapped on every traced machine: (attribute path from the
#: ``Processor``, method, span name, useful-outcome test or None).
MACHINE_CALLS = (
    ("front_end", "tick", "stage.fetch", None),
    ("rename_integrate", "tick", "stage.rename", None),
    ("issue_execute", "tick", "stage.issue", None),
    ("issue_execute", "writeback", "stage.writeback", None),
    ("commit_diva", "tick", "stage.commit", None),
    ("state.integration", "consider", "integration.consider", _integrated),
    ("state.integration", "create_entries", "integration.create_entries",
     None),
    ("state.diva", "check_and_commit", "diva.check", None),
    ("state.mem", "load", "memsys.load", None),
    ("state.mem", "store", "memsys.store", None),
    ("state.mem", "ifetch", "memsys.ifetch", None),
)


class Instrumentation:
    """Installs the spans for one traced pass; a context manager.

    ``Processor.run`` is wrapped at class level and, before the original
    runs, wraps that instance's stage and sub-layer methods, so every
    machine built in the pass -- by the runner or inside ``run_suite`` -- is
    covered.  Stage classes stay the stock ones, so the fused driver and
    cycle elision stay eligible.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        #: (cycles advanced, returned SimStats) per traced ``Processor.run``.
        self.runs: List[Tuple[int, Any]] = []

    def __enter__(self) -> "Instrumentation":
        import plans
        from repro.core import pipeline
        from repro.distrib import queue, worker
        from repro.experiments import cache, sharding

        log = self.log
        runs = self.runs
        original_run = pipeline.Processor.run

        def run(processor, *args, **kwargs):
            for path, method, name, useful in MACHINE_CALLS:
                target = attrgetter(path)(processor)
                setattr(target, method,
                        log.wrap(name, getattr(target, method), useful))
            before = processor.state.cycle
            stats = original_run(processor, *args, **kwargs)
            runs.append((processor.state.cycle - before, stats))
            return stats

        log.patch(pipeline.Processor, "__init__", "core.processor_build")
        self._restore_run = original_run
        pipeline.Processor.run = log.wrap("core.run", run)
        log.patch(plans, "build_program", "workloads.build")
        log.patch(worker, "build_workload", "workloads.build")
        log.patch(sharding, "build_workload", "workloads.build")
        log.patch(sharding, "build_plan", "sharding.plan")
        log.patch(sharding, "merge_slices", "sharding.merge")
        log.patch(cache.ResultCache, "load", "cache.load", _loaded)
        log.patch(cache.ResultCache, "store", "cache.store")
        for method in ("submit", "claim", "complete"):
            log.patch(queue.JobQueue, method, f"queue.{method}")
        log.patch(worker, "process_one", "worker.process_one")
        log.patch(worker, "execute_payload", "worker.execute")
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.core import pipeline

        pipeline.Processor.run = self._restore_run
        self.log.unpatch()
