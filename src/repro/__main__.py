"""Command-line interface to the experiment engine: ``python -m repro``.

Subcommands::

    repro run      -- simulate benchmarks under the paper's configurations
    repro figures  -- regenerate the paper's figure/table reports
    repro trace    -- per-instruction pipeline trace (JSONL + Konata)
    repro submit   -- publish a sweep to the distributed work queue
    repro worker   -- drain jobs from the queue (run any number of these)
    repro fleet    -- supervise N workers: restart-on-crash, graceful drain
    repro status   -- queue depth, lease ages, per-worker throughput
    repro variants -- list the registered machine variants
    repro cache    -- inspect, clear or garbage-collect the result cache

``--jobs`` fans simulations out over a process pool; ``--backend`` (or
``REPRO_BACKEND``) picks the execution backend -- ``local`` (this machine,
``--jobs`` processes) or ``distributed``, which publishes every job to a
filesystem queue that any fleet of ``repro worker`` processes sharing
``REPRO_CACHE_DIR`` drains;
``--shards`` splits every benchmark into checkpointed slices so even one
long benchmark uses many cores (1 = bit-exact unsharded engine);
``--scale`` shrinks or grows the synthetic workloads; ``--benchmarks``
picks the benchmark set (``smoke``/``fast``/``all`` or an explicit
comma-separated list); ``--variant`` (or ``REPRO_VARIANT``) retargets the
sweep at a registered machine variant (see ``repro variants``);
``--verbose`` prints the full run-telemetry breakdown (including remote
jobs and reclaimed leases under the distributed backend); ``figures
--plot-dir DIR`` additionally renders PNG panels (requires matplotlib).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__


def _parse_benchmarks(spec: str) -> List[str]:
    from repro.experiments import runner

    sets = {
        "smoke": runner.SMOKE_BENCHMARKS,
        "fast": runner.FAST_BENCHMARKS,
        "all": runner.DEFAULT_BENCHMARKS,
    }
    if spec.lower() in sets:
        return list(sets[spec.lower()])
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [n for n in names if n not in runner.DEFAULT_BENCHMARKS]
    if unknown:
        raise SystemExit(
            f"unknown benchmarks: {', '.join(unknown)} "
            f"(available: {', '.join(runner.DEFAULT_BENCHMARKS)})")
    if not names:
        raise SystemExit("no benchmarks selected")
    return names


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmarks", default="fast", metavar="SET",
                        help="smoke|fast|all or a comma-separated list "
                             "(default: fast)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default: REPRO_SCALE "
                             "or 0.5)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel simulation processes; 0 = one per "
                             "CPU (default: REPRO_JOBS or 1)")
    parser.add_argument("--shards", type=int, default=None, metavar="S",
                        help="checkpointed slices per benchmark; 1 = "
                             "bit-exact unsharded engine (default: "
                             "REPRO_SHARDS or 1)")
    parser.add_argument("--variant", default=None, metavar="NAME",
                        help="machine variant to simulate; see `repro "
                             "variants` (default: REPRO_VARIANT or "
                             "baseline; ignored by --figures scenarios, "
                             "which sweeps every variant)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        choices=("local", "distributed"),
                        help="execution backend: local or distributed "
                             "(default: REPRO_BACKEND, else local)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result caches entirely")
    parser.add_argument("--verbose", action="store_true",
                        help="print the full run-telemetry breakdown")


def _add_queue_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="work queue directory "
                             "(default: <cache root>/queue)")
    parser.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                        help="seconds before an unheartbeated claim may be "
                             "reclaimed (default: 60)")


def _queue_from(args: argparse.Namespace):
    from repro.distrib import JobQueue

    root = Path(args.queue_dir) if args.queue_dir else None
    return JobQueue(root=root, lease_ttl=args.lease_ttl)


def _print_summary(verbose: bool = False) -> None:
    """The post-run provenance line(s): who computed what, from the
    process-wide :data:`repro.experiments.runner.telemetry`."""
    from repro.experiments.runner import format_run_summary, telemetry

    print(format_run_summary(telemetry, verbose))


def _check_shards(args: argparse.Namespace) -> None:
    if args.shards is not None and args.shards < 1:
        raise SystemExit(f"invalid --shards {args.shards}: must be >= 1 "
                         f"(1 = unsharded)")


def _resolve_variant(args: argparse.Namespace):
    """Explicit ``--variant`` > ``REPRO_VARIANT`` > None (leave configs).

    Both paths reject unregistered names with a one-line error listing the
    registry.
    """
    from repro.experiments.runner import default_variant, validate_variant

    if args.variant is not None:
        return validate_variant(args.variant)
    return default_variant()


def _suite_configs(args: argparse.Namespace):
    """The named integration-config suite shared by run and submit."""
    from repro.core import MachineConfig
    from repro.integration.config import IntegrationConfig

    machine = MachineConfig()
    named = {
        "none": IntegrationConfig.disabled(),
        "squash": IntegrationConfig.squash(),
        "general": IntegrationConfig.general(),
        "opcode": IntegrationConfig.opcode(),
        "full": IntegrationConfig.full(),
    }
    wanted = args.configs.split(",") if args.configs else ["none", "full"]
    unknown = [c for c in wanted if c not in named]
    if unknown:
        raise SystemExit(f"unknown configs: {', '.join(unknown)} "
                         f"(available: {', '.join(named)})")
    return wanted, {name: machine.with_integration(named[name])
                    for name in wanted}


def _print_run_table(results, wanted, benchmarks) -> None:
    header = (f"{'benchmark':<12} {'config':<8} {'cycles':>9} {'retired':>9} "
              f"{'IPC':>7} {'int.rate':>9} {'misint/M':>9}")
    print(header)
    print("-" * len(header))
    for config_name in wanted:
        for benchmark in benchmarks:
            stats = results[config_name][benchmark]
            print(f"{benchmark:<12} {config_name:<8} {stats.cycles:>9} "
                  f"{stats.retired:>9} {stats.ipc:>7.3f} "
                  f"{stats.integration_rate:>9.3f} "
                  f"{stats.mis_integrations_per_million:>9.1f}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    _check_shards(args)
    benchmarks = _parse_benchmarks(args.benchmarks)
    wanted, suite_configs = _suite_configs(args)
    variant = _resolve_variant(args)
    if variant is not None:
        print(f"variant: {variant}")
    results = runner.run_suite(benchmarks, suite_configs, scale=args.scale,
                               jobs=args.jobs, shards=args.shards,
                               use_cache=not args.no_cache, variant=variant,
                               backend=args.backend)
    _print_run_table(results, wanted, benchmarks)
    _print_summary(args.verbose)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Publish a sweep to the distributed queue; optionally await results.

    With ``--wait`` (the default) this blocks until every merged SimStats
    is resolvable from the shared cache -- i.e. until the worker fleet (or
    this process itself, with ``--drain``) has finished the sweep -- and
    prints the same table as ``repro run``.  ``--no-wait`` enqueues the
    jobs and returns immediately; workers publish results into the shared
    content-addressed cache, so a later ``repro submit --wait`` (or plain
    ``repro run``) assembles them without re-simulating.
    """
    from repro.distrib import DistributedBackend
    from repro.experiments import runner

    _check_shards(args)
    if args.no_cache:
        raise SystemExit(
            "repro submit requires the shared disk cache (it is how "
            "workers hand results back); drop --no-cache")
    benchmarks = _parse_benchmarks(args.benchmarks)
    wanted, suite_configs = _suite_configs(args)
    variant = _resolve_variant(args)
    if variant is not None:
        print(f"variant: {variant}")
    queue_dir = Path(args.queue_dir) if args.queue_dir else None
    backend = DistributedBackend(queue_dir=queue_dir,
                                 lease_ttl=args.lease_ttl,
                                 drain=args.drain,
                                 timeout=args.timeout)

    if args.no_wait:
        configs = runner.apply_variant(suite_configs, variant)
        plan = runner.plan_suite(benchmarks, configs, args.scale,
                                 args.shards, use_cache=True)
        submitted = backend.submit(plan.jobs, use_cache=True)
        cached = sum(len(cells) for cells in plan.results.values())
        queue = backend.queue()
        print(f"submitted {len(submitted)} job(s) to {queue.root} "
              f"({cached} result(s) already cached); drain with any "
              f"number of `repro worker` processes sharing this cache")
        return 0

    try:
        results = runner.run_suite(benchmarks, suite_configs,
                                   scale=args.scale, jobs=args.jobs,
                                   shards=args.shards, use_cache=True,
                                   variant=variant, backend=backend)
    except (TimeoutError, RuntimeError) as exc:
        # Timed-out wait or dead-lettered jobs: one line, not a traceback
        # (`repro status` has the details).
        raise SystemExit(str(exc)) from None
    _print_run_table(results, wanted, benchmarks)
    _print_summary(args.verbose)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.distrib import run_worker
    from repro.experiments.cache import ResultCache
    from repro.reliability import SimulatedCrash

    stop = threading.Event()
    previous = None
    try:
        previous = signal.signal(signal.SIGTERM,
                                 lambda _sig, _frame: stop.set())
    except ValueError:
        pass                     # not the main thread (library/test use)
    try:
        summary = run_worker(
            queue=_queue_from(args),
            cache=ResultCache(),
            max_jobs=args.max_jobs,
            idle_timeout=args.idle_timeout,
            poll_interval=args.poll_interval,
            log=None if args.quiet else print,
            stop=stop,
        )
    except SimulatedCrash as crash:
        # An injected crash must look like a real one to supervisors
        # (distinct nonzero exit, no summary, protocol state abandoned),
        # minus the traceback noise.
        print(f"repro: worker crashed: {crash}", file=sys.stderr)
        return 70
    finally:
        # Restore the inherited handler: an embedding process (tests,
        # library use) must not keep a handler bound to this worker's
        # stale stop event -- forked children would inherit it and
        # swallow real SIGTERMs (e.g. multiprocessing Pool.terminate).
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:
                pass
    return 1 if summary.failed and not summary.jobs_done else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Supervise a fleet of ``repro worker`` subprocesses.

    Workers that drain (exit 0) are done; workers that crash are
    restarted with exponential backoff up to ``--max-restarts``, with
    ``REPRO_FAULTS`` stripped from restarted children so an injected
    one-shot crash schedule cannot re-fire forever.  SIGTERM (and Ctrl-C)
    forwards a graceful stop to every child and escalates to SIGKILL
    after ``--grace`` seconds.
    """
    import os
    import signal
    import subprocess

    from repro.reliability import ENV_FAULTS, FleetSupervisor

    if args.workers < 1:
        raise SystemExit(f"invalid --workers {args.workers}: must be >= 1")
    queue = _queue_from(args)
    command = [sys.executable, "-m", "repro", "worker",
               "--poll-interval", str(args.poll_interval)]
    if args.queue_dir:
        command += ["--queue-dir", args.queue_dir]
    if args.lease_ttl is not None:
        command += ["--lease-ttl", str(args.lease_ttl)]
    if args.idle_timeout is not None:
        command += ["--idle-timeout", str(args.idle_timeout)]
    if args.max_jobs is not None:
        command += ["--max-jobs", str(args.max_jobs)]
    if args.quiet:
        command += ["--quiet"]

    def spawn(index: int, clean: bool):
        env = dict(os.environ)
        if clean:
            env.pop(ENV_FAULTS, None)
        return subprocess.Popen(command, env=env)

    supervisor = FleetSupervisor(
        count=args.workers, spawn=spawn, max_restarts=args.max_restarts,
        grace=args.grace,
        log=None if args.quiet else
        (lambda message: print(message, file=sys.stderr)))
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(
                signum, lambda _sig, _frame: supervisor.stop())
        except ValueError:
            pass                 # not the main thread (library/test use)
    try:
        print(f"fleet: {args.workers} worker(s) draining {queue.root}")
        summary = supervisor.run()
    finally:
        # Restore inherited handlers so an embedding process is not left
        # with handlers bound to this (finished) supervisor.
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
    print(f"fleet: {summary.describe()}")
    return 0 if summary.ok else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs import dashboard

    queue = _queue_from(args)
    if args.purge:
        removed = queue.purge()
        print(f"purged {removed} job file(s) from {queue.root}")
        return 0
    if args.prune is not None:
        removed = queue.prune_terminal(max_age_seconds=args.prune * 3600.0)
        print(f"pruned {removed} terminal record(s) (done/dead/worker "
              f"stats older than {args.prune:g}h) from {queue.root}")
        return 0
    if args.watch:
        if args.interval <= 0:
            raise SystemExit(f"invalid --interval {args.interval}: "
                             f"must be > 0")
        dashboard.watch(queue, interval=args.interval,
                        refreshes=args.refreshes)
        return 0
    print(dashboard.render_status(queue))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one benchmark's pipeline events (``repro trace``).

    Writes ``<prefix>.jsonl`` (one lifecycle event per line) and
    ``<prefix>.kanata`` (a Konata-viewer pipetrace).  Tracing forces the
    per-cycle driver (no span elision), so expect traced runs to be
    slower than ``repro run``; statistics are bit-identical either way.
    """
    from repro.core import MachineConfig, simulate
    from repro.experiments import runner
    from repro.obs.trace import PipelineTracer
    from repro.workloads import build_workload

    if args.benchmark not in runner.DEFAULT_BENCHMARKS:
        raise SystemExit(
            f"unknown benchmark: {args.benchmark} "
            f"(available: {', '.join(runner.DEFAULT_BENCHMARKS)})")
    if args.no_jsonl and args.no_konata:
        raise SystemExit("nothing to write: drop one of "
                         "--no-jsonl/--no-konata")
    scale = runner.default_scale() if args.scale is None else args.scale
    config = MachineConfig()
    variant = _resolve_variant(args)
    if variant is not None:
        config = config.with_variant(variant)
        print(f"variant: {variant}")
    jsonl_path = None if args.no_jsonl else f"{args.out}.jsonl"
    konata_path = None if args.no_konata else f"{args.out}.kanata"
    program = build_workload(args.benchmark, scale=scale)
    with PipelineTracer(jsonl_path=jsonl_path,
                        konata_path=konata_path) as tracer:
        stats = simulate(program, config, name=args.benchmark,
                         max_instructions=args.max_instructions,
                         tracer=tracer)
    print(f"{args.benchmark}: {stats.retired} retired in {stats.cycles} "
          f"cycles (IPC {stats.ipc:.3f}); traced {tracer.fetches} fetches, "
          f"{tracer.retires} retires, {tracer.squashes} squashes")
    for path in (jsonl_path, konata_path):
        if path is not None:
            print(f"wrote {path}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    _check_shards(args)
    if args.plot_dir is not None:
        # Fail before simulating anything, not after.
        from repro.analysis import plots

        if not plots.matplotlib_available():
            raise plots.MissingDependencyError("matplotlib", "--plot-dir")
    benchmarks = _parse_benchmarks(args.benchmarks)
    variant = _resolve_variant(args)
    wanted = (args.figures.split(",") if args.figures
              else list(figures.DEFAULT_FIGURES))
    unknown = [f for f in wanted if f not in figures.FIGURES]
    if unknown:
        raise SystemExit(f"unknown figures: {', '.join(unknown)} "
                         f"(available: {', '.join(figures.FIGURES)})")
    results = figures.run(wanted, benchmarks, scale=args.scale,
                          jobs=args.jobs, shards=args.shards,
                          backend=args.backend, variant=variant,
                          use_cache=not args.no_cache)
    for name, result in results.items():
        print(figures.report(name, result))
        print()
        if args.plot_dir is not None:
            path = plots.render(name, figures.FIGURES[name].tables(result),
                                args.plot_dir)
            print(f"wrote {path}")
            print()
    _print_summary(args.verbose)
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    from repro.variants import describe_variants

    listing = describe_variants()
    width = max(len(name) for name in listing)
    for name, info in listing.items():
        print(f"{name:<{width}}  {info['description']}")
        overrides = info["overrides"]
        slots = ", ".join(overrides) if overrides else "(none: the baseline)"
        print(f"{'':<{width}}  overrides: {slots}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import ResultCache

    cache = ResultCache()
    if args.cache_action == "info":
        info = cache.info()
        print(f"cache root:   {info['root']}")
        print(f"entries:      {info['entries']}")
        if info.get("corrupt"):
            print(f"corrupt:      {info['corrupt']} (quarantined)")
        print(f"size:         {info['bytes'] / 1024:.1f} KiB")
        print(f"code version: {info['code_version']}")
    elif args.cache_action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
    elif args.cache_action == "gc":
        max_age = (None if args.max_age_days is None
                   else args.max_age_days * 86400.0)
        max_bytes = (None if args.max_size_mb is None
                     else int(args.max_size_mb * 1024 * 1024))
        stats = cache.gc(max_age_seconds=max_age, max_bytes=max_bytes,
                         tmp_grace_seconds=args.tmp_grace_minutes * 60.0)
        print(f"cache root:        {cache.root}")
        print(f"orphaned tmp:      {stats['tmp_removed']} removed")
        print(f"aged out:          {stats['aged_out']} removed")
        print(f"size evictions:    {stats['evicted_for_size']} removed")
        print(f"freed:             {stats['bytes_freed'] / 1024:.1f} KiB")
        print(f"kept:              {stats['entries_kept']} entries, "
              f"{stats['bytes_kept'] / 1024:.1f} KiB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Register-integration reproduction "
                    "(Petric, Bracy & Roth, MICRO 2002)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate benchmarks")
    _add_common(p_run)
    p_run.add_argument("--configs", default=None, metavar="LIST",
                       help="comma-separated integration configs: none,"
                            "squash,general,opcode,full (default: none,full)")
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    _add_common(p_fig)
    p_fig.add_argument("--figures", default=None, metavar="LIST",
                       help="comma-separated: 4,5,6,7,diagnostics,ablations,"
                            "scenarios,cpistack (default: 4,5,6,7)")
    p_fig.add_argument("--plot-dir", default=None, metavar="DIR",
                       help="also render PNG panels into DIR (requires "
                            "matplotlib)")
    p_fig.set_defaults(func=_cmd_figures)

    p_tr = sub.add_parser(
        "trace",
        help="trace one benchmark's pipeline events (JSONL + Konata)")
    p_tr.add_argument("benchmark", metavar="BENCHMARK",
                      help="benchmark to trace (see --benchmarks all)")
    p_tr.add_argument("--scale", type=float, default=None,
                      help="workload scale factor (default: REPRO_SCALE "
                           "or 0.5)")
    p_tr.add_argument("--variant", default=None, metavar="NAME",
                      help="machine variant to trace (default: "
                           "REPRO_VARIANT or baseline)")
    p_tr.add_argument("--max-instructions", type=int, default=None,
                      metavar="N",
                      help="stop after N retired instructions (default: "
                           "run to completion)")
    p_tr.add_argument("--out", default="trace", metavar="PREFIX",
                      help="output path prefix for PREFIX.jsonl and "
                           "PREFIX.kanata (default: 'trace')")
    p_tr.add_argument("--no-jsonl", action="store_true",
                      help="skip the JSON-lines event stream")
    p_tr.add_argument("--no-konata", action="store_true",
                      help="skip the Konata pipetrace file")
    p_tr.set_defaults(func=_cmd_trace)

    p_sub = sub.add_parser(
        "submit",
        help="publish a sweep to the distributed work queue")
    _add_common(p_sub)
    _add_queue_args(p_sub)
    p_sub.add_argument("--configs", default=None, metavar="LIST",
                       help="comma-separated integration configs: none,"
                            "squash,general,opcode,full (default: none,full)")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="enqueue and exit instead of blocking until "
                            "the merged results are resolvable from cache")
    p_sub.add_argument("--drain", action="store_true",
                       help="while waiting, also work the queue from this "
                            "process (completes even with no workers)")
    p_sub.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="abort the wait after S seconds without "
                            "progress (default: wait forever)")
    p_sub.set_defaults(func=_cmd_submit)

    p_wrk = sub.add_parser(
        "worker", help="drain simulation jobs from the work queue")
    _add_queue_args(p_wrk)
    p_wrk.add_argument("--max-jobs", type=int, default=None, metavar="N",
                       help="exit after completing N jobs (default: "
                            "unbounded)")
    p_wrk.add_argument("--idle-timeout", type=float, default=None,
                       metavar="S",
                       help="exit after S seconds with no claimable work "
                            "(default: wait forever)")
    p_wrk.add_argument("--poll-interval", type=float, default=0.2,
                       metavar="S", help="idle poll period (default: 0.2s)")
    p_wrk.add_argument("--quiet", action="store_true",
                       help="suppress per-job log lines")
    p_wrk.set_defaults(func=_cmd_worker)

    p_fleet = sub.add_parser(
        "fleet",
        help="supervise N workers: restart-on-crash, graceful SIGTERM drain")
    _add_queue_args(p_fleet)
    p_fleet.add_argument("-n", "--workers", type=int, default=2, metavar="N",
                         help="worker subprocesses to supervise (default: 2)")
    p_fleet.add_argument("--max-jobs", type=int, default=None, metavar="N",
                         help="per-worker job bound (default: unbounded)")
    p_fleet.add_argument("--idle-timeout", type=float, default=None,
                         metavar="S",
                         help="per-worker idle exit, i.e. the fleet drains "
                              "and stops S seconds after the queue empties "
                              "(default: run forever)")
    p_fleet.add_argument("--poll-interval", type=float, default=0.2,
                         metavar="S",
                         help="worker idle poll period (default: 0.2s)")
    p_fleet.add_argument("--max-restarts", type=int, default=5, metavar="N",
                         help="crash restarts per worker slot before "
                              "giving up (default: 5)")
    p_fleet.add_argument("--grace", type=float, default=5.0, metavar="S",
                         help="SIGTERM drain window before SIGKILL "
                              "(default: 5s)")
    p_fleet.add_argument("--quiet", action="store_true",
                         help="suppress supervisor and worker log lines")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_st = sub.add_parser(
        "status", help="show queue depth, lease ages and worker throughput")
    _add_queue_args(p_st)
    p_st.add_argument("--watch", action="store_true",
                      help="live dashboard: redraw the status every "
                           "--interval seconds until Ctrl-C")
    p_st.add_argument("--interval", type=float, default=2.0, metavar="S",
                      help="--watch refresh period (default: 2s)")
    p_st.add_argument("--refreshes", type=int, default=None, metavar="N",
                      help="--watch: stop after N redraws (default: "
                           "until Ctrl-C)")
    p_st.add_argument("--purge", action="store_true",
                      help="delete every job file (all states), lease and "
                           "worker record in the queue -- including live "
                           "pending/claimed work")
    p_st.add_argument("--prune", type=float, default=None, metavar="H",
                      nargs="?", const=0.0,
                      help="safe cleanup: delete only terminal records "
                           "(done/dead markers, worker stats) older than "
                           "H hours (default 0 = all); never touches "
                           "pending or claimed jobs")
    p_st.set_defaults(func=_cmd_status)

    p_var = sub.add_parser("variants",
                           help="list the registered machine variants")
    p_var.set_defaults(func=_cmd_variants)

    p_cache = sub.add_parser(
        "cache", help="manage the on-disk result cache")
    p_cache.add_argument("cache_action", choices=("info", "clear", "gc"))
    p_cache.add_argument("--max-age-days", type=float, default=None,
                         metavar="D",
                         help="gc: drop entries older than D days")
    p_cache.add_argument("--max-size-mb", type=float, default=None,
                         metavar="MB",
                         help="gc: evict oldest entries until the cache "
                              "fits in MB megabytes")
    p_cache.add_argument("--tmp-grace-minutes", type=float, default=60.0,
                         metavar="M",
                         help="gc: sweep orphaned *.tmp files older than "
                              "M minutes (default: 60)")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
