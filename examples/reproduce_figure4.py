#!/usr/bin/env python
"""Reproduce the paper's Figure 4 (and the Section 3.2 diagnostics).

Runs the four extension configurations (squash reuse, +general reuse,
+opcode indexing, +reverse integration), each with a realistic and an
oracle LISP, against the no-integration baseline over the synthetic
SPEC2000-INT-like suite, and prints the per-benchmark speedups,
integration rates and reverse-integration rates with their means.  Both
figures run as one suite, so the baseline they share simulates once.

Usage::

    python examples/reproduce_figure4.py                 # fast subset
    python examples/reproduce_figure4.py --all           # all 16 benchmarks
    python examples/reproduce_figure4.py --scale 1.0     # longer runs
"""

import argparse

from repro.experiments import DEFAULT_BENCHMARKS, FAST_BENCHMARKS, figures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="run all 16 benchmarks (slower)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default REPRO_SCALE)")
    args = parser.parse_args()

    benchmarks = DEFAULT_BENCHMARKS if args.all else FAST_BENCHMARKS
    results = figures.run(["4", "diagnostics"], benchmarks, scale=args.scale)
    for name, result in results.items():
        print(figures.report(name, result))
        print()


if __name__ == "__main__":
    main()
