"""The machine entry points the benchmark's traced run wraps.

``perfbench/spans.py`` lists, in ``MACHINE_CALLS``, the methods of a built
:class:`Processor` that a ``--trace 1`` run replaces with span recorders
before ``run``: the stage ticks, integration, the DIVA check and the memory
hierarchy.  A refactor that renames one fails that run; one that stops
calling it through the listed attribute leaves its per-layer metric
silently at 0.  This test reads the list from the file and checks both on a
short whole-program run.
"""

import importlib.util
from collections import Counter
from operator import attrgetter
from pathlib import Path

from repro.core import MachineConfig, Processor
from repro.integration.config import IntegrationConfig
from repro.workloads import build_workload

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def machine_calls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MACHINE_CALLS


def test_every_wrapped_entry_point_resolves_and_runs():
    config = MachineConfig().with_integration(IntegrationConfig.full())
    processor = Processor(build_workload("gzip", scale=0.05), config)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = []
    for path, method, name, _ in machine_calls():
        target = attrgetter(path)(processor)
        original = getattr(target, method)
        assert callable(original), f"{path}.{method}"
        setattr(target, method, counting(name, original))
        names.append(name)
    stats = processor.run()
    assert processor.state.arch.halted
    # Every wrapped call stays on the simulated path...
    assert sorted(n for n in names if not calls[n]) == []
    # ...and DIVA checks each retirement once, through the instance
    # attribute the trace wraps.
    assert calls["diva.check"] == stats.retired > 0
