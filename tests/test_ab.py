"""The A/B speed gate in ``benchmarks/ab.py``, fed synthetic perfbench
results: no subprocess, no git, no simulation.  ``test_gate`` checks the
verdict; ``test_driver`` checks ``main`` and ``run_one`` with git and
perfbench replaced by recorders."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" /
                                               "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}
#: Same-code run-to-run spread, as sim_kips values of one side's pairs.
KIPS = [50.0, 51.5, 48.8, 52.3, 49.6, 50.9]


def _result(kips, failed=0, **values):
    metrics = {name: 1.0 for name in METRICS}
    metrics.update(values, sim_kips=kips)
    return {"correct": failed == 0, "attempted": 8, "failed": failed,
            "metrics": {name: {"value": value, "unit": METRICS[name]["unit"]}
                        for name, value in metrics.items()}}


def _runs(head=_result):
    """Every workload with one pair per ``KIPS`` value."""
    return {w["name"]: {"base": [_result(k) for k in KIPS],
                        "head": [head(k) for k in KIPS]}
            for w in BENCH["workloads"]}


def pair_order_alternates():
    orders = [ab.pair_order(pair) for pair in range(ab.PAIRS)]
    assert orders[0] == ("base", "head")
    assert all(a == b[::-1] for a, b in zip(orders, orders[1:]))


def ties_count_for_neither_side():
    assert ab.head_wins([1, 2, 3], [1, 3, 2], "higher") == 1
    assert ab.head_wins([1, 2, 3], [1, 3, 2], "lower") == 1
    assert ab.head_wins([1, 2, 3], [1, 2, 3], "higher") == 0


def identical_samples_pass():
    verdict = ab.judge(BENCH, _runs())
    assert verdict["failures"] == []
    assert verdict["slowdown"]["high"] == pytest.approx(1.0)
    for rows in verdict["workloads"].values():
        assert all(row["head_wins"] == 0 for row in rows.values())
        assert rows["sim_kips"]["base"] == rows["sim_kips"]["head"]


def failed_run_fails():
    def head(kips):
        return _result(kips, failed=int(kips == KIPS[2]))

    failures = ab.judge(BENCH, _runs(head=head))["failures"]
    assert len(failures) == len(BENCH["workloads"])
    assert all("failed its checks" in f for f in failures)


def metric_beyond_bound_fails(name):
    metric = METRICS[name]
    sign = -1 if metric["better"] == "higher" else 1
    for scale, fails in ((0.8, False), (1.2, True)):
        worse = 1 + sign * scale * metric["bound"]
        failures = ab.judge(BENCH, _runs(
            head=lambda k: _result(k, **{name: worse})))["failures"]
        assert bool(failures) == fails, (scale, failures)
        assert all(f"{name} median" in f for f in failures)


def ten_percent_slowdown_fails():
    verdict = ab.judge(BENCH, _runs(head=lambda k: _result(k / 1.1)))
    assert verdict["slowdown"]["low"] == pytest.approx(1.1)
    assert len(verdict["failures"]) == 1
    assert "slowdown" in verdict["failures"][0]


def bootstrap_interval_repeats():
    kips = {w["name"]: (KIPS, [k * (1 + 0.01 * i) for i, k in
                               enumerate(reversed(KIPS))])
            for w in BENCH["workloads"]}
    first = ab.slowdown_interval(kips)
    assert first == ab.slowdown_interval(kips)
    point, low, high = first
    assert low < point < high


CASES = {
    "pair-order-alternates": pair_order_alternates,
    "ties-count-for-neither-side": ties_count_for_neither_side,
    "identical-samples-pass": identical_samples_pass,
    "failed-run-fails": failed_run_fails,
    "higher-is-better-metric-beyond-bound-fails":
        lambda: metric_beyond_bound_fails("sim_kcps"),
    "lower-is-better-metric-beyond-bound-fails":
        lambda: metric_beyond_bound_fails("wall_s"),
    "ten-percent-slowdown-fails": ten_percent_slowdown_fails,
    "bootstrap-interval-repeats": bootstrap_interval_repeats,
}


@pytest.mark.parametrize("case", CASES)
def test_gate(case):
    CASES[case]()


class _Driver:
    """Runs ``ab.main`` with ``git`` and ``run_one`` replaced by recorders;
    ``head(kips)`` makes a head result; the ``fail_at``-th run raises."""

    REV = "0123456789abcdef"

    def __init__(self, monkeypatch, capsys, head=_result,
                 fail_at=None):
        self.git_calls, self.removed, self.runs = [], [], []
        self.capsys, self.head, self.fail_at = capsys, head, fail_at
        monkeypatch.setattr(ab, "git", self.git)
        monkeypatch.setattr(ab, "run_one", self.run_one)
        real_run = subprocess.run

        def run(args, **kwargs):
            if args[:3] == ["git", "worktree", "remove"]:
                self.removed.append(Path(args[-1]))
                return subprocess.CompletedProcess(args, 0)
            return real_run(args, **kwargs)

        monkeypatch.setattr(ab.subprocess, "run", run)

    def git(self, *args):
        self.git_calls.append(args)
        return self.REV if args[0] == "merge-base" else ""

    def run_one(self, spec, root, workload):
        side = "head" if root == ab.ROOT else "base"
        self.runs.append((side, workload, root))
        if len(self.runs) == self.fail_at:
            raise RuntimeError("perfbench exited 1")
        n = sum(s == side and w == workload for s, w, _ in self.runs) - 1
        kips = KIPS[n % len(KIPS)]
        return _result(kips) if side == "base" else self.head(kips)

    def main(self, *argv):
        status = ab.main(list(argv))
        self.out, self.err = self.capsys.readouterr()
        return status


def usage_exits_2(monkeypatch, capsys):
    driver = _Driver(monkeypatch, capsys)
    assert driver.main() == 2
    assert driver.main("a", "b") == 2
    assert driver.git_calls == driver.runs == []


def runs_every_pair_in_order_and_cleans_up(monkeypatch, capsys):
    driver = _Driver(monkeypatch, capsys)
    assert driver.main("origin/main") == 0
    assert driver.git_calls[0] == ("merge-base", "HEAD", "origin/main")
    worktree, base_root = driver.git_calls[1], driver.runs[0][2]
    assert worktree == ("worktree", "add", "--detach", str(base_root),
                        driver.REV)
    expected = [side for pair in range(ab.PAIRS)
                for _ in BENCH["workloads"] for side in ab.pair_order(pair)]
    assert [side for side, _, _ in driver.runs] == expected
    workloads = [w["name"] for w in BENCH["workloads"]]
    assert [w for _, w, _ in driver.runs[::2]] == workloads * ab.PAIRS
    assert {root for side, _, root in driver.runs if side == "base"} == \
        {base_root}
    assert driver.removed == [base_root]
    assert not base_root.parent.exists()
    verdict = json.loads(driver.out.strip().splitlines()[-1])
    assert (verdict["base"], verdict["pairs"]) == (driver.REV, ab.PAIRS)
    assert verdict["failures"] == []
    assert set(verdict["workloads"]) == set(workloads)


def slow_head_exits_1(monkeypatch, capsys):
    driver = _Driver(monkeypatch, capsys,
                     head=lambda kips: _result(kips / 1.1))
    assert driver.main("origin/main") == 1
    assert "FAIL geomean sim_kips slowdown" in driver.out
    verdict = json.loads(driver.out.strip().splitlines()[-1])
    assert verdict["slowdown"]["low"] == pytest.approx(1.1)


def failed_run_exits_2_and_cleans_up(monkeypatch, capsys):
    driver = _Driver(monkeypatch, capsys, fail_at=3)
    assert driver.main("origin/main") == 2
    assert len(driver.runs) == 3
    base_root = driver.runs[0][2]
    assert driver.removed == [base_root]
    assert not base_root.parent.exists()
    assert "error: perfbench exited 1" in driver.err


def run_one_command_and_last_line(monkeypatch, capsys):
    calls = []

    def run(command, **kwargs):
        calls.append((command, kwargs))
        stdout = "warming up\n" + json.dumps({"kips": 1}) + "\n"
        return subprocess.CompletedProcess(command, 0, stdout, "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    spec = dict(BENCH, run_seconds=7)
    assert ab.run_one(spec, Path("/side"), "memory_wall") == {"kips": 1}
    (command, kwargs), = calls
    assert command == BENCH["command"] + [
        "--workload", "memory_wall", "--seed", "1", "--seconds", "7",
        "--trace", "0"]
    assert kwargs["cwd"] == Path("/side")


def run_one_nonzero_exit_raises(monkeypatch, capsys):
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, 3, "", "Traceback: boom")

    monkeypatch.setattr(ab.subprocess, "run", run)
    with pytest.raises(RuntimeError, match="exited 3: Traceback: boom"):
        ab.run_one(BENCH, Path("/side"), "memory_wall")


DRIVER_CASES = {
    "usage-exits-2": usage_exits_2,
    "runs-every-pair-in-order-and-cleans-up":
        runs_every_pair_in_order_and_cleans_up,
    "slow-head-exits-1": slow_head_exits_1,
    "failed-run-exits-2-and-cleans-up": failed_run_exits_2_and_cleans_up,
    "run-one-command-and-last-line": run_one_command_and_last_line,
    "run-one-nonzero-exit-raises": run_one_nonzero_exit_raises,
}


@pytest.mark.parametrize("case", DRIVER_CASES)
def test_driver(case, monkeypatch, capsys):
    DRIVER_CASES[case](monkeypatch, capsys)
