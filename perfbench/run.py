#!/usr/bin/env python3
"""Benchmark of the register-integration simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload spec_integration --seed 1 \\
        --seconds 25 --trace 0

The workload name selects a plan (see ``plans.py``) and one runner body
executes it: closed loop, one simulation at a time in this process, each on
a freshly built machine (every modelled cache, predictor and integration
table starts empty).  Passes over the plan repeat until ``--seconds`` would
be exceeded; every host time is divided by the host factor measured around
it (see ``hostspeed.py``) and taken at its median over the passes.
The outputs are checked, a human-readable table goes to stdout, and the
last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host speed, set-up time,
memory, simulated IPC, per-job latency).  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics computed from spans
(see ``spans.py``), plus the tracing overhead.  ``README.md`` beside this
file lists the metrics and what each one should move.
"""

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
#: Fresh-process set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Reference-loop samples each set-up probe takes for its host factor.
PROBE_SAMPLES = 5
#: Passes (rounds, when tracing) made even when ``--seconds`` is short.
MIN_ROUNDS = 2
#: Traced rounds kept at most, which bounds the span arrays' memory.
MAX_TRACED_ROUNDS = 3

END_TO_END_UNITS = {
    "sim_kips": "kinst/s", "sim_kcps": "kcycle/s", "wall_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ipc": "inst/cycle",
    "job_s.p50": "s", "job_s.p80": "s",
}
STAGES = ("fetch", "rename", "issue", "writeback", "commit")

#: Time kinds (see :attr:`Pass.times`) summed into ``wall_s`` and into the
#: simulating time behind ``sim_kips``/``sim_kcps``, and those that are
#: per-job latencies.  ``build`` is program generation, ``job`` one
#: ``simulate`` (machine build + ``run``), ``run`` its ``Processor.run``,
#: ``slice`` one slice job of the sweep, ``cold`` the rest of the cold
#: sweep and ``warm`` the warm repeat.
WALL = ("build:", "job:", "slice:", "cold:", "warm:")
SIM = ("run:", "slice:", "cold:")
LATENCY = ("job:", "slice:")


def _isolate() -> None:
    """Run the simulator from this checkout's sources, with no ``REPRO_*``
    setting inherited from the caller's environment."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# one pass over a plan
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One simulation: a program under one config (or one sweep cell)."""

    label: str
    config: str
    stats: Any = None
    error: Optional[str] = None


@dataclass
class Pass:
    traced: bool
    #: Reference-loop samples taken between the pass's jobs.
    speed: HostSpeed = field(default_factory=HostSpeed)
    jobs: List[Job] = field(default_factory=list)
    #: Host seconds by ``kind:name``; the kind says what each adds up to
    #: (see :data:`WALL`, :data:`SIM`, :data:`LATENCY`).
    times: Dict[str, float] = field(default_factory=dict)
    #: Job time name -> the reference sample taken just before that job.
    sampled_at: Dict[str, int] = field(default_factory=dict)
    #: Sweep only: warm-repeat cells, simulations each phase ran, and the
    #: span-row / useful-count marks at the phase boundaries.
    warm: List[Job] = field(default_factory=list)
    sims: Tuple[int, int] = (0, 0)
    marks: Tuple[int, ...] = ()
    useful: Tuple[Dict[str, int], ...] = ()


def direct_pass(plan: Any, record: Pass) -> None:
    import plans
    from repro.core import Processor

    times = record.times
    for spec in plan.programs:
        began = time.perf_counter()
        program = plans.build_program(spec)
        times[f"build:{spec.label}"] = time.perf_counter() - began
        for config_name, config in plan.configs.items():
            key = f"{spec.label}/{config_name}"
            job = Job(spec.label, config_name)
            record.sampled_at[f"job:{key}"] = record.sampled_at[f"run:{key}"] \
                = record.speed.sample()
            began = time.perf_counter()
            try:
                processor = Processor(program, config, name=spec.label)
                ran = time.perf_counter()
                job.stats = processor.run()
                times[f"run:{key}"] = time.perf_counter() - ran
            except Exception as exc:  # counted in ``failed``; the run goes on
                job.error = f"{type(exc).__name__}: {exc}"
            times[f"job:{key}"] = time.perf_counter() - began
            record.jobs.append(job)


def sweep_pass(plan: Any, record: Pass, cache_root: Path,
               log: Any) -> None:
    """A cold ``run_suite`` into an empty cache, then a warm repeat."""
    from repro.distrib.backend import DistributedBackend
    from repro.experiments import runner

    sweep = plan.sweep
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    telemetry = runner.telemetry
    marks = [len(log) if log is not None else 0]
    useful = [dict(log.useful) if log is not None else {}]
    sims = [telemetry.simulations]
    phases: List[List[Job]] = []
    try:
        for phase in ("cold", "warm"):
            # Drop the in-process memo so the warm pass reads the disk cache.
            runner.clear_cache()
            sampled = record.speed.total
            began = time.perf_counter()
            results = runner.run_suite(
                sweep.benchmarks, plan.configs, scale=sweep.scale, jobs=1,
                shards=sweep.shards, backend=DistributedBackend())
            # Less the reference samples taken before each slice job.
            record.times[f"{phase}:"] = (time.perf_counter() - began
                                         - (record.speed.total - sampled))
            phases.append([Job(bench, name, stats)
                           for name, cells in results.items()
                           for bench, stats in cells.items()])
            sims.append(telemetry.simulations)
            if log is not None:
                marks.append(len(log))
                useful.append(dict(log.useful))
        record.jobs, record.warm = phases
    except Exception as exc:  # counted in ``failed``; the run goes on
        error = f"{type(exc).__name__}: {exc}"
        cells = [Job(bench, name, error=error)
                 for name in plan.configs for bench in sweep.benchmarks]
        record.jobs = cells
        record.warm = [Job(j.label, j.config, error=error) for j in cells]
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
        os.environ.pop("REPRO_CACHE_DIR", None)
    if "cold:" in record.times:
        # The cold phase less its slice jobs: planning, queue and cache.
        record.times["cold:"] -= sum(
            v for k, v in record.times.items() if k.startswith("slice:"))
    record.sims = (sims[1] - sims[0], sims[-1] - sims[1]) if len(sims) == 3 \
        else (0, 0)
    record.marks = tuple(marks)
    record.useful = tuple(useful)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, plan: Any, seconds: float, traced: bool,
                 run_dir: Path) -> None:
        from spans import SpanLog

        self.plan = plan
        self.seconds = seconds
        self.traced = traced
        self.run_dir = run_dir
        self.passes: List[Pass] = []
        self.log = SpanLog() if traced else None
        self.instrumented_runs: List[Tuple[int, Any]] = []
        self.failures: List[str] = []
        self.job_samples = 0

    # -- measuring -----------------------------------------------------
    def measure(self) -> None:
        from spans import Instrumentation

        modes = (False, True) if self.traced else (False,)
        start = time.perf_counter()
        rounds = 0
        while True:
            for traced in modes:
                record = Pass(traced)
                if traced:
                    with Instrumentation(self.log) as inst:
                        self._run_pass(record)
                    self.instrumented_runs.extend(inst.runs)
                else:
                    self._run_pass(record)
                self.passes.append(record)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and (
                    elapsed * (rounds + 1) / rounds > self.seconds
                    or (self.traced and rounds >= MAX_TRACED_ROUNDS)):
                return

    def _run_pass(self, record: Pass) -> None:
        if self.plan.sweep is None:
            direct_pass(self.plan, record)
            return
        from repro.distrib import worker

        # Installed inside any span wrapper, so the slice timing and its
        # reference sample stay out of the traced ``process_one`` span.
        process_one = worker.process_one

        def timed_process_one(queue: Any, cache: Any, job: Any,
                              summary: Any) -> None:
            name = f"slice:{job.key}"
            record.sampled_at[name] = record.speed.sample()
            began = time.perf_counter()
            try:
                process_one(queue, cache, job, summary)
            finally:
                record.times[name] = time.perf_counter() - began

        worker.process_one = timed_process_one
        try:
            sweep_pass(self.plan, record,
                       self.run_dir / f"cache-{len(self.passes)}",
                       self.log if record.traced else None)
        finally:
            worker.process_one = process_one

    # -- checking ------------------------------------------------------
    def check(self) -> Tuple[int, int]:
        """Check every output; returns ``(attempted, failed)``.

        * retired equals the functional emulator's dynamic count;
        * the CPI stack sums to cycles;
        * every pass -- traced ones included -- returns SimStats identical
          to the first pass's (same seed, same bits; tracing perturbs
          nothing);
        * sweep: the warm repeat simulates nothing and returns the cold
          pass's stats bit for bit; each sharded merge retires the whole
          program.
        """
        import plans
        from repro.functional.emulator import run_program

        dynamic = {spec.label: run_program(
                       plans.build_program(spec)).instructions
                   for spec in self.plan.programs}
        reference: Dict[Tuple[str, str], Dict[str, Any]] = {}
        attempted = failed = 0
        for number, record in enumerate(self.passes):
            cold = {(j.label, j.config): j for j in record.jobs}
            outcomes = [(job, self._problem(job, record, dynamic, reference))
                        for job in record.jobs]
            outcomes += [(job, self._warm_problem(job, record, cold))
                         for job in record.warm]
            for job, problem in outcomes:
                attempted += 1
                if problem:
                    failed += 1
                    self.failures.append(
                        f"pass {number} {job.label}/{job.config}: {problem}")
        return attempted, failed

    @staticmethod
    def _warm_problem(job: Job, record: Pass, cold: Dict) -> Optional[str]:
        if job.error is not None:
            return job.error
        if record.sims[1]:
            return f"warm repeat ran {record.sims[1]} simulations"
        if job.stats.to_dict() != cold[(job.label, job.config)].stats.to_dict():
            return "warm stats differ from the cold pass"
        return None

    @staticmethod
    def _problem(job: Job, record: Pass, dynamic: Dict,
                 reference: Dict) -> Optional[str]:
        if job.error is not None:
            return job.error
        stats = job.stats
        key = (job.label, job.config)
        if stats.retired != dynamic[job.label]:
            return (f"retired {stats.retired} != functional count "
                    f"{dynamic[job.label]}")
        if sum(stats.cpi_stack.values()) != stats.cycles:
            return "cpi_stack does not sum to cycles"
        body = stats.to_dict()
        first = reference.setdefault(key, body)
        if body != first:
            return ("traced " if record.traced else "") + \
                "stats differ from the first pass"
        return None

    # -- metrics -------------------------------------------------------
    def totals(self) -> Tuple[int, int]:
        """Retired instructions and cycles of one pass (from SimStats)."""
        first = self.passes[0]
        retired = sum(j.stats.retired for j in first.jobs if j.stats)
        cycles = sum(j.stats.cycles for j in first.jobs if j.stats)
        return retired, cycles

    def scaled(self, traced: bool) -> List[Dict[str, float]]:
        """Each pass's times divided by the host factor (see hostspeed):
        a job's from the reference samples around it, the rest the pass's."""
        return [{name: seconds / record.speed.factor(
                     record.sampled_at.get(name))
                 for name, seconds in record.times.items()}
                for record in self.passes if record.traced == traced]

    @staticmethod
    def typical(passes: List[Dict[str, float]],
                kinds: Tuple[str, ...]) -> List[float]:
        """The times of the given kinds, each at its median over the
        passes: one typical pass."""
        names = sorted({k for times in passes for k in times
                        if k.startswith(kinds)})
        return [statistics.median(times[k] for times in passes if k in times)
                for k in names]

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        retired, cycles = self.totals()
        passes = self.scaled(traced=False)
        sim_s = sum(self.typical(passes, SIM))
        latencies = self.typical(passes, LATENCY)
        self.job_samples = len(latencies)
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        return {
            "sim_kips": retired / sim_s / 1000.0,
            "sim_kcps": cycles / sim_s / 1000.0,
            "wall_s": sum(self.typical(passes, WALL)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ipc": retired / cycles,
            "job_s.p50": statistics.median(latencies),
            "job_s.p80": cuts[7],
        }

    def per_layer(self) -> Dict[str, float]:
        log = self.log
        spans = log.totals()
        cycles = sum(c for c, _ in self.instrumented_runs) or 1
        counted = sum(s.cycles for _, s in self.instrumented_runs) or 1
        elided = sum(s.cycles_elided for _, s in self.instrumented_runs)

        def calls(name: str) -> int:
            return spans.get(name, (0, 0, 0))[0]

        def per_cycle(name: str, own: bool = False) -> float:
            _, total, self_ns = spans.get(name, (0, 0, 0))
            return (self_ns if own else total) / 1000.0 / cycles

        metrics: Dict[str, float] = {}
        for stage in STAGES:
            own = stage in ("rename", "commit")
            label = "self_us_per_cycle" if own else "us_per_cycle"
            metrics[f"stage.{stage}.{label}"] = per_cycle(f"stage.{stage}",
                                                          own)
            metrics[f"stage.{stage}.calls_per_cycle"] = \
                calls(f"stage.{stage}") / cycles
        considered = calls("integration.consider")
        metrics.update({
            "integration.consider.us_per_cycle":
                per_cycle("integration.consider"),
            "integration.create_entries.us_per_cycle":
                per_cycle("integration.create_entries"),
            "integration.integrated_per_considered":
                log.useful["integration.consider"] / considered
                if considered else 0.0,
            "diva.check.us_per_cycle": per_cycle("diva.check"),
            "memsys.load.us_per_cycle": per_cycle("memsys.load"),
            "memsys.store.us_per_cycle": per_cycle("memsys.store"),
            "memsys.ifetch.us_per_cycle": per_cycle("memsys.ifetch"),
            "driver.us_per_cycle": per_cycle("core.run", own=True),
            "core.elided_frac": elided / counted,
            "workloads.build_ms": _mean(spans, "workloads.build", 1e6),
            "core.processor_build_ms": _mean(spans, "core.processor_build",
                                             1e6),
        })
        metrics.update(self._sweep_layers(spans))
        untraced = sum(self.typical(self.scaled(traced=False), WALL))
        traced = sum(self.typical(self.scaled(traced=True), WALL))
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        return metrics

    def _sweep_layers(self, spans: Dict) -> Dict[str, float]:
        names = ("sharding.plan_s", "sharding.merge_ms", "cache.load_us",
                 "cache.store_us", "cache.probes_per_job",
                 "cache.warm_hit_ratio", "queue.submit_us", "queue.claim_us",
                 "queue.complete_us", "worker.overhead_frac")
        sweeps = [p for p in self.passes if p.traced and len(p.marks) == 3]
        if not sweeps:
            return dict.fromkeys(names, 0.0)
        log = self.log
        cold = [log.totals(p.marks[0], p.marks[1]) for p in sweeps]
        warm = [log.totals(p.marks[1], p.marks[2]) for p in sweeps]

        def cold_sum(name: str, index: int = 1) -> float:
            return sum(t.get(name, (0, 0, 0))[index] for t in cold)

        warm_loads = sum(t.get("cache.load", (0, 0, 0))[0] for t in warm)
        warm_hits = sum(p.useful[2].get("cache.load", 0)
                        - p.useful[1].get("cache.load", 0) for p in sweeps)
        worker_ns = spans.get("worker.process_one", (0, 0, 0))[1]
        execute_ns = spans.get("worker.execute", (0, 0, 0))[1]
        jobs = cold_sum("worker.process_one", 0)
        return {
            "sharding.plan_s": cold_sum("sharding.plan") / 1e9 / len(sweeps),
            "sharding.merge_ms": cold_sum("sharding.merge") / 1e6
            / len(sweeps),
            "cache.load_us": _mean(spans, "cache.load", 1e3),
            "cache.store_us": _mean(spans, "cache.store", 1e3),
            "cache.probes_per_job": cold_sum("cache.load", 0) / jobs
            if jobs else 0.0,
            "cache.warm_hit_ratio": warm_hits / warm_loads
            if warm_loads else 0.0,
            "queue.submit_us": _mean(spans, "queue.submit", 1e3),
            "queue.claim_us": _mean(spans, "queue.claim", 1e3),
            "queue.complete_us": _mean(spans, "queue.complete", 1e3),
            "worker.overhead_frac": 1.0 - execute_ns / worker_ns
            if worker_ns else 0.0,
        }


def _mean(spans: Dict, name: str, unit_ns: float) -> float:
    """Mean duration of the ``name`` spans, in units of ``unit_ns``."""
    count, total, _ = spans.get(name, (0, 0, 0))
    return total / count / unit_ns if count else 0.0


# ----------------------------------------------------------------------
# set-up time, in fresh processes
# ----------------------------------------------------------------------
def probe_setup(plan: Any) -> float:
    """Import, workload generation and machine construction -- everything
    up to the first simulated cycle -- measured from this process's start."""
    import plans
    from repro.core import Processor

    if plan.sweep is not None:
        from repro.distrib import backend  # noqa: F401
        from repro.experiments.cache import code_version
        code_version()
    for spec in plan.programs:
        program = plans.build_program(spec)
        for config in plan.configs.values():
            Processor(program, config, name=spec.label)
    elapsed = time.perf_counter() - _T_PROCESS
    speed = HostSpeed()
    for _ in range(PROBE_SAMPLES):
        speed.sample()
    return elapsed / speed.factor()


def measure_setup(args: argparse.Namespace) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs, for the self-test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_table(workload: str, seed: int, metrics: Dict[str, float],
                 units: Dict[str, str], lines: List[str]) -> None:
    print(f"perfbench {workload} seed={seed}")
    for line in lines:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    _isolate()
    import plans

    if args.workload not in plans.PLANS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(plans.PLANS)}", file=sys.stderr)
        return 2
    plan = plans.PLANS[args.workload](args.seed, args.tiny)
    if args.probe_setup:
        print(probe_setup(plan))
        return 0

    run_dir = WORK / f"run-{os.getpid()}"
    bench = Bench(plan, args.seconds, bool(args.trace), run_dir)
    try:
        setup_s = measure_setup(args) if not args.trace else 0.0
        bench.measure()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = bench.check()
    lines = [f"passes={len(bench.passes)} attempted={attempted} "
             f"failed={failed} failed_frac={failed / attempted:.4g}"]
    lines += [f"FAILED {problem}" for problem in bench.failures[:20]]
    if args.trace:
        metrics = bench.per_layer()
        units = {name: _layer_unit(name) for name in metrics}
        trace_path = WORK / "trace" / f"{args.workload}-seed{args.seed}.spans"
        bench.log.write(trace_path)
        lines.append(f"spans={len(bench.log)} written to "
                     f"{trace_path.relative_to(ROOT)}")
    else:
        metrics = bench.end_to_end(setup_s)
        units = END_TO_END_UNITS
        factors = [p.speed.factor() for p in bench.passes]
        lines.append(f"job_s over {bench.job_samples} jobs, each at its "
                     f"median over {len(bench.passes)} passes; setup_s the "
                     f"median of {SETUP_PROBES} fresh processes; host "
                     f"factor {min(factors):.3f}-{max(factors):.3f}")
    _print_table(args.workload, args.seed, metrics, units, lines)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    for suffix, unit in (("us_per_cycle", "us/cycle"),
                         ("calls_per_cycle", "calls/cycle"),
                         ("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
