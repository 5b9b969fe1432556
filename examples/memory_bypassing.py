#!/usr/bin/env python
"""Speculative memory bypassing via reverse integration (paper Section 2.4).

This example runs the call-heavy ``save_restore_chain`` and recursive
Fibonacci micro-kernels -- programs dominated by stack saves and restores --
and shows how reverse integration turns the restores (register fills) into
integrations that bypass the execution engine entirely.  It prints the
per-instruction-type integration rates so you can see the paper's claim that
stack-pointer loads integrate at far higher rates than anything else.

Run with::

    python examples/memory_bypassing.py
"""

from repro.analysis.breakdowns import per_type_integration_rates
from repro.analysis.metrics import format_table
from repro.core import MachineConfig, simulate
from repro.experiments import figure5
from repro.integration import IntegrationConfig
from repro.workloads import fib_recursive, save_restore_chain


def run_one(name, program) -> None:
    baseline_cfg = MachineConfig().with_integration(
        IntegrationConfig.disabled())
    direct_cfg = MachineConfig().with_integration(
        IntegrationConfig.opcode())          # extensions 1+2, no reverse
    full_cfg = MachineConfig().with_integration(IntegrationConfig.full())

    baseline = simulate(program, baseline_cfg, name=name)
    direct = simulate(program, direct_cfg, name=name)
    full = simulate(program, full_cfg, name=name)

    print(f"== {name} ==")
    print(f"  baseline            : {baseline.cycles} cycles")
    print(f"  direct-only         : {direct.cycles} cycles "
          f"(integration rate {direct.integration_rate:.1%})")
    print(f"  with reverse        : {full.cycles} cycles "
          f"(integration rate {full.integration_rate:.1%}, of which "
          f"reverse {full.reverse_integration_rate:.1%})")
    print(f"  speedup from reverse integration alone: "
          f"{direct.cycles / full.cycles - 1:+.1%}")
    rates = per_type_integration_rates(full)
    print(f"  stack-load integration rate : {rates['load_sp']:.1%}")
    print(f"  other-load integration rate : {rates['load']:.1%}")
    print()
    breakdowns = figure5.Figure5Result([name], {"full": {name: full}})
    for title, columns, rows in figure5.tables(breakdowns):
        print(format_table(title, columns, rows))
        print()


def main() -> None:
    run_one("save_restore_chain", save_restore_chain(depth=6, iterations=48))
    run_one("fib(14)", fib_recursive(14))


if __name__ == "__main__":
    main()
