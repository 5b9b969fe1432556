#!/usr/bin/env python3
"""A/B speed gate: perfbench on this checkout against a base revision.

Usage, from a git checkout of the repository::

    python3 benchmarks/ab.py origin/main

The base side is ``git merge-base HEAD BASE``, checked out into a temporary
worktree; the head side is this checkout as it is on disk.  For each of
``PAIRS`` pairs and each workload in ``BENCHMARK.json``, both sides run
their own ``perfbench/run.py --trace 0`` at the benchmark's ``run_seconds``
and seed 1, the base first on even pairs.  Every end-to-end metric is
printed with each side's median and quartiles and the head's wins (ties
count for neither side); the last stdout line is one JSON object.

Exit status 1 means the gate failed: a head run failed its output checks,
a head median is worse than the base median by more than that metric's
``BENCHMARK.json`` bound, or the upper end of the 95% bootstrap interval
on the geomean ``sim_kips`` slowdown (base over head) exceeds
``SLOWDOWN_BOUND``.  Exit status 2 means a run could not be made.
"""

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 6
SLOWDOWN_BOUND = 1.05
SEED = 1
RESAMPLES = 2000
BOOTSTRAP_SEED = 20021


def pair_order(pair):
    """The sides in the order they run in ``pair``."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def head_wins(base, head, better):
    """Pairs in which the head's value is strictly better than the base's."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def quartiles(values):
    """``(q1, median, q3)`` of ``values``."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def slowdown_interval(kips):
    """Geomean ``sim_kips`` slowdown, base over head, and its 95% bootstrap
    interval.  ``kips`` maps each workload to ``(base, head)`` lists indexed
    by pair; each resample draws pair indices per workload."""
    def geomean(draws):
        logs = [math.log(statistics.median(base[i] for i in idx)
                         / statistics.median(head[i] for i in idx))
                for (base, head), idx in zip(kips.values(), draws)]
        return math.exp(sum(logs) / len(logs))

    rng = random.Random(BOOTSTRAP_SEED)
    sizes = [len(base) for base, _ in kips.values()]
    samples = sorted(
        geomean([[rng.randrange(n) for _ in range(n)] for n in sizes])
        for _ in range(RESAMPLES))
    point = geomean([range(n) for n in sizes])
    return point, samples[int(0.025 * RESAMPLES)], \
        samples[int(0.975 * RESAMPLES) - 1]


def judge(spec, runs):
    """Summary and failures for ``runs``, which maps each workload to
    ``{"base": [...], "head": [...]}`` lists of perfbench results."""
    summary, failures, kips = {}, [], {}
    for workload, sides in runs.items():
        for result in sides["head"]:
            if not result["correct"] or result["failed"] > 0:
                failures.append(f"{workload}: head run failed its checks "
                                f"({result['failed']} failed)")
        rows = summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            base, head = ([r["metrics"][name]["value"] for r in sides[side]]
                          for side in ("base", "head"))
            row = rows[name] = {"base": quartiles(base),
                                "head": quartiles(head),
                                "head_wins": head_wins(base, head, better)}
            b, h = row["base"][1], row["head"][1]
            if (b - h if better == "higher" else h - b) > metric["bound"] * b:
                failures.append(f"{workload}: {name} median {h:.6g} is "
                                f"worse than base {b:.6g} by more than "
                                f"{metric['bound']:.0%}")
            if name == "sim_kips":
                kips[workload] = (base, head)
    point, low, high = slowdown_interval(kips)
    if high > SLOWDOWN_BOUND:
        failures.append(f"geomean sim_kips slowdown {point:.3f} has 95% "
                        f"interval [{low:.3f}, {high:.3f}] above "
                        f"{SLOWDOWN_BOUND}")
    return {"slowdown": {"point": point, "low": low, "high": high,
                         "bound": SLOWDOWN_BOUND},
            "workloads": summary, "failures": failures}


def run_one(spec, root, workload):
    command = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=10 * spec["run_seconds"] + 300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited "
                           f"{done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_rev = git("merge-base", "HEAD", argv[0])
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    roots = {"base": scratch / "base", "head": ROOT}
    runs = {w["name"]: {"base": [], "head": []} for w in spec["workloads"]}
    try:
        git("worktree", "add", "--detach", str(roots["base"]), base_rev)
        for pair in range(PAIRS):
            for workload, sides in runs.items():
                for side in pair_order(pair):
                    result = run_one(spec, roots[side], workload)
                    sides[side].append(result)
                    print(f"pair {pair} {workload:18s} {side} sim_kips "
                          f"{result['metrics']['sim_kips']['value']:.2f}",
                          flush=True)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(roots["base"])], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    verdict = judge(spec, runs)
    print(f"\nbase {base_rev[:12]} vs head {ROOT} ({PAIRS} pairs)")
    for workload, rows in verdict["workloads"].items():
        print(workload)
        for name, row in rows.items():
            (bq1, bmed, bq3), (hq1, hmed, hq3) = row["base"], row["head"]
            print(f"  {name:12s} base {bmed:10.5g} [{bq1:.5g}, {bq3:.5g}]  "
                  f"head {hmed:10.5g} [{hq1:.5g}, {hq3:.5g}]  "
                  f"head wins {row['head_wins']}/{PAIRS}")
    slow = verdict["slowdown"]
    print(f"geomean sim_kips slowdown (base/head) {slow['point']:.3f}, 95% "
          f"interval [{slow['low']:.3f}, {slow['high']:.3f}], bound "
          f"{SLOWDOWN_BOUND}")
    for failure in verdict["failures"]:
        print(f"FAIL {failure}")
    print(json.dumps(dict(verdict, base=base_rev, pairs=PAIRS)))
    return 1 if verdict["failures"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
