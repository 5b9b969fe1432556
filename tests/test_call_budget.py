"""Python calls per retired instruction: a speed measure that host noise
cannot move.

The simulator's host time is spread thinly over the path each instruction
takes from fetch to retirement, so the number of Python function calls it
makes per retired instruction tracks that cost.  cProfile counts those
calls exactly, and the count repeats exactly from run to run.  Only
functions defined under ``src/repro`` count (builtins, the standard library
and dataclass-generated ``__init__`` methods do not), and neither do list,
dict and set comprehensions, which CPython 3.12 inlines and 3.10/3.11 call;
filtering that way makes CPython 3.10, 3.11 and 3.12 agree.

Quote :func:`calls_per_instruction` next to the ``benchmarks/ab.py`` ratio
when a change claims a speed gain.  The budgets hold for the default
driver, which elides quiescent cycles; the test unsets ``REPRO_ELIDE`` so
an environment that steps every cycle measures the same thing.
"""

import cProfile
import os
import pstats
from pathlib import Path

import pytest

import repro
from repro.core import MachineConfig, Processor
from repro.integration import IntegrationConfig
from repro.workloads import build_workload

SRC = str(Path(repro.__file__).resolve().parent) + os.sep
PROGRAMS = ("crafty", "gzip")
INLINED_BY_312 = {"<listcomp>", "<dictcomp>", "<setcomp>"}

#: Bound per integration config on calls per retired instruction, summed
#: over PROGRAMS at scale 0.02 (11399 retired instructions).  Before the
#: rename, execute and retirement paths lost their one-line layers the
#: counts were 40.65 (full) and 35.60 (disabled); after, 25.35 and 21.93.
#: With IT entries placed inline by ``create_entries`` (no per-entry
#: ``insert`` call) full measures 23.95, and 23.87 / 21.42 once the
#: memory system returns plain latencies.  With the issue group's events
#: scheduled inline and no per-instruction sign-conversion or
#: sorted-list-removal calls, they are 21.73 / 19.21; each budget is that
#: count plus under 2%.
BUDGETS = {
    "full": (IntegrationConfig.full(), 22.1),
    "disabled": (IntegrationConfig.disabled(), 19.5),
}


def calls_per_instruction(integration, programs=PROGRAMS, scale=0.02):
    """Python calls into ``repro`` per retired instruction while running
    ``programs`` under ``integration``; machine build is not counted."""
    calls = 0
    retired = 0
    config = MachineConfig(integration=integration)
    for name in programs:
        processor = Processor(build_workload(name, scale), config)
        profile = cProfile.Profile()
        profile.enable()
        try:
            stats = processor.run()
        finally:
            profile.disable()
        retired += stats.retired
        for (filename, _, function), row in pstats.Stats(
                profile).stats.items():
            if (str(Path(filename).resolve()).startswith(SRC)
                    and function not in INLINED_BY_312):
                calls += row[1]
    return calls / retired


@pytest.mark.parametrize("config_name", sorted(BUDGETS))
def test_calls_per_retired_instruction(config_name, monkeypatch):
    monkeypatch.delenv("REPRO_ELIDE", raising=False)
    integration, budget = BUDGETS[config_name]
    measured = calls_per_instruction(integration)
    assert measured <= budget, (
        f"{measured:.2f} Python calls per retired instruction under "
        f"{config_name} integration, budget {budget}")
