#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Runs every workload named in ``BENCHMARK.json`` once with ``--tiny``, with
tracing off and on, and checks that each run exits 0, passes its own output
checks, and prints exactly the metric names and units ``BENCHMARK.json``
declares for that mode.  From the repository root::

    python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_once(workload: str, trace: int, expected: dict) -> list:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        problems.append(f"{where}: checks failed: "
                        f"{done.stdout.strip().splitlines()[1:3]}")
    got = {name: metric["unit"]
           for name, metric in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, "
                        f"unit mismatch {units}")
    for name, metric in result.get("metrics", {}).items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = run_once(workload, trace, expected[trace])
            print(f"{workload:18s} trace={trace} "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
