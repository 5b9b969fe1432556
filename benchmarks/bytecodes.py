#!/usr/bin/env python3
"""Bytecodes and calls per retired instruction, per simulator function.

Usage, from the repository root::

    python3 benchmarks/bytecodes.py --workload spec_integration --seed 1 \\
        --programs 3

Runs the first ``--programs`` programs of a perfbench plan (every config the
plan names) under ``sys.settrace`` with opcode events on, and counts, for
each Python function the run enters, the bytecode instructions it executes
and the times it is entered.  Only ``Processor.run`` is traced: program
generation and machine build are not.  Functions under ``src/repro`` are
named by their path below it; a dataclass-generated ``__init__`` by its
class.  The counts repeat exactly from run to run on one CPython version,
so a change that removes work from the per-instruction path shows here
without host noise; the figures move between CPython versions
(specialisation and comprehension inlining change the instruction stream).
Tracing slows the simulator by about 40x.

The output is one row for each of the 40 costliest functions, then one
subtotal per source file and the total, each as bytecodes and calls per
retired instruction.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import repro  # noqa: E402

SRC = str(Path(repro.__file__).resolve().parent) + os.sep

#: ``(file, qualified name)`` -> ``[bytecodes, calls]``
Counts = Dict[Tuple[str, str], List[int]]


def _name(frame) -> Tuple[str, str]:
    code = frame.f_code
    path = code.co_filename
    if path == "<string>" and code.co_name == "__init__":
        self = frame.f_locals.get(code.co_varnames[0])
        return path, f"{type(self).__qualname__}.__init__"
    if path.startswith(SRC):
        path = path[len(SRC):]
    # co_qualname is new in CPython 3.11.
    return path, getattr(code, "co_qualname", code.co_name)


def count_run(run, counts: Counts):
    """Call ``run()`` with every frame it enters counted into ``counts``;
    returns what ``run`` returns."""
    tracers = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        traced = tracers.get(code)
        if traced is None:
            cell = counts[_name(frame)]

            def local(frame, event, arg):
                if event == "opcode":
                    cell[0] += 1
                return local
            traced = tracers[code] = (cell, local)
        traced[0][1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return traced[1]

    sys.settrace(on_call)
    try:
        return run()
    finally:
        sys.settrace(None)


def count_plan(workload: str, seed: int, programs: int,
               tiny: bool = False) -> Tuple[Counts, int]:
    """Counts over the first ``programs`` programs of ``workload``'s plan,
    and the instructions they retired."""
    import plans
    from repro.core import Processor

    plan = plans.PLANS[workload](seed, tiny)
    if plan.sweep is not None:
        raise SystemExit(f"{workload} is a sweep plan; pick a direct one")
    counts: Counts = defaultdict(lambda: [0, 0])
    retired = 0
    for spec in plan.programs[:programs]:
        program = plans.build_program(spec)
        for config in plan.configs.values():
            processor = Processor(program, config, name=spec.label)
            retired += count_run(processor.run, counts).retired
    return counts, retired


def report(counts: Counts, retired: int, top: Optional[int] = None) -> str:
    rows = sorted(counts.items(), key=lambda kv: -kv[1][0])
    files: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for (path, _), (ops, calls) in rows:
        files[path][0] += ops
        files[path][1] += calls
    total_ops = sum(ops for ops, _ in counts.values())
    total_calls = sum(calls for _, calls in counts.values())

    def line(name, ops, calls):
        return f"{ops / retired:10.1f} {calls / retired:8.3f}  {name}"

    out = [f"{retired} retired instructions; per retired instruction:",
           f"{'bytecodes':>10} {'calls':>8}  function"]
    out += [line(f"{path}:{name}", ops, calls)
            for (path, name), (ops, calls) in rows[:top]]
    out += ["", f"{'bytecodes':>10} {'calls':>8}  file"]
    out += [line(path, ops, calls) for path, (ops, calls) in
            sorted(files.items(), key=lambda kv: -kv[1][0])]
    out += ["", line("total", total_ops, total_calls)]
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="spec_integration")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--programs", type=int, default=3,
                        help="how many of the plan's programs to run")
    args = parser.parse_args(argv)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    counts, retired = count_plan(args.workload, args.seed, args.programs)
    print(report(counts, retired, 40))
    return 0


if __name__ == "__main__":
    sys.exit(main())
