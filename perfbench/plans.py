"""Workload plans for the simulator benchmark.

A workload name and a seed select a :class:`Plan`: the programs to generate,
the machine configurations to run them under, and -- for the sweep workload
-- the experiment-engine settings.  ``run.py`` executes every plan with one
runner body.  The seed only chooses inputs; the simulator receives nothing
but the generated :class:`~repro.isa.program.Program` objects (or, for the
sweep, the benchmark names and scale that ``run_suite`` generates them from).

Each plan is sized so that one pass over it is a fixed amount of simulated
work whatever the seed, which keeps host-speed figures comparable across
seeds while the generated code differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.core import MachineConfig
from repro.integration.config import IntegrationConfig
from repro.isa.program import Program
from repro.memsys.hierarchy import MemSysConfig
from repro.workloads import SPEC_WORKLOADS, build_workload, pointer_chase_memory_bound
from repro.workloads.spec_like import _Generator

#: SPEC-like kinds in the ``spec_*`` mix, with the outer-iteration count
#: that makes each one about 12k dynamic instructions.  Equal lengths keep
#: the per-job latency distribution one cluster, so its percentiles do not
#: jump between programs from seed to seed.  The first four are call-heavy
#: (the food of reverse and general reuse), the last four loop- or
#: memory-heavy.
SPEC_ITERS: Dict[str, int] = {
    "crafty": 3, "vortex": 1, "perl.d": 2, "gcc": 3,
    "gzip": 13, "bzip2": 13, "mcf": 12, "vpr.r": 17,
}

#: ``suite_sweep`` picks one benchmark from each group; members of a group
#: have nearly the same dynamic length at :data:`SWEEP_SCALE`, so every
#: seed's sweep does about the same work.
SWEEP_GROUPS: Tuple[Tuple[str, ...], ...] = (
    ("perl.d", "perl.s"), ("gcc", "crafty"), ("gap", "eon.k"),
    ("eon.r", "eon.c"), ("parser", "mcf"), ("gzip", "bzip2"),
    ("twolf", "vpr.p"), ("vpr.r",),
)
SWEEP_SCALE = 0.05
SWEEP_SHARDS = 4

#: Pointer-chase chases per pass.  They come in pairs whose hop counts sum
#: to ``2 * CHASE_HOPS``, so a pass always makes the same number of hops.
CHASE_PAIRS = 8
CHASE_HOPS = 512
CHASE_MEMORY_LATENCY = 400


@dataclass(frozen=True)
class ProgramSpec:
    """One generated input: a label and a deterministic builder."""

    label: str
    build: Callable[[], Program] = field(compare=False)


@dataclass(frozen=True)
class Sweep:
    """``run_suite`` settings for the sweep workload."""

    benchmarks: Tuple[str, ...]
    scale: float
    shards: int


@dataclass(frozen=True)
class Plan:
    """Everything one pass of a workload runs."""

    configs: Dict[str, MachineConfig]
    programs: Tuple[ProgramSpec, ...]
    #: None: each program runs once per config through ``Processor.run``.
    #: Set: one cold then one warm ``run_suite`` over ``programs``' names.
    sweep: Optional[Sweep] = None


def build_program(spec: ProgramSpec) -> Program:
    """Generate one input (the workload-generation layer call)."""
    return spec.build()


def _spec_program(kind: str, iters: int, gen_seed: int) -> Program:
    """A registered SPEC-like program with its code drawn from ``gen_seed``.

    ``build_workload`` takes no seed, so this drives the spec generator
    directly: same structure as the registered program, different code.
    """
    spec = replace(SPEC_WORKLOADS[kind], outer_iters=iters, seed=gen_seed)
    return _Generator(spec).generate()


def spec_mix(integration: IntegrationConfig, seed: int, tiny: bool) -> Plan:
    rng = random.Random(seed)
    kinds = ["crafty", "gzip"] if tiny else list(SPEC_ITERS)
    rng.shuffle(kinds)
    programs = []
    for kind in kinds:
        iters = 1 if tiny else SPEC_ITERS[kind]
        gen_seed = rng.randrange(1 << 31)
        programs.append(ProgramSpec(
            f"{kind}#{gen_seed}", partial(_spec_program, kind, iters, gen_seed)))
    return Plan({"config": MachineConfig(integration=integration)},
                tuple(programs))


def memory_wall(seed: int, tiny: bool) -> Plan:
    rng = random.Random(seed)
    hops = 64 if tiny else CHASE_HOPS
    programs = []
    for _ in range(1 if tiny else CHASE_PAIRS):
        delta = rng.randrange(-hops // 16, hops // 16 + 1)
        for count in (hops + delta, hops - delta):
            # More ring nodes than the DL1 and L2 have ways, so every hop
            # conflict-misses to memory.
            nodes = rng.randrange(6, 17)
            programs.append(ProgramSpec(
                f"chase-{nodes}x{count}",
                partial(pointer_chase_memory_bound, nodes=nodes, hops=count)))
    memsys = replace(MemSysConfig(), memory_latency=CHASE_MEMORY_LATENCY)
    return Plan({"config": MachineConfig(memsys=memsys)}, tuple(programs))


def suite_sweep(seed: int, tiny: bool) -> Plan:
    rng = random.Random(seed)
    groups = SWEEP_GROUPS[:2] if tiny else SWEEP_GROUPS
    names = [rng.choice(group) for group in groups]
    rng.shuffle(names)
    scale = 0.02 if tiny else SWEEP_SCALE
    shards = 2 if tiny else SWEEP_SHARDS
    programs = tuple(ProgramSpec(name, partial(build_workload, name, scale))
                     for name in names)
    configs = {"none": MachineConfig(integration=IntegrationConfig.disabled()),
               "full": MachineConfig(integration=IntegrationConfig.full())}
    return Plan(configs, programs, Sweep(tuple(names), scale, shards))


PLANS: Dict[str, Callable[[int, bool], Plan]] = {
    "spec_integration": partial(spec_mix, IntegrationConfig.full()),
    "spec_baseline": partial(spec_mix, IntegrationConfig.disabled()),
    "memory_wall": memory_wall,
    "suite_sweep": suite_sweep,
}
