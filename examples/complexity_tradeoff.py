#!/usr/bin/env python
"""Reproduce the paper's Figure 7: integration vs. execution-core complexity.

Simulates four machine organisations -- the 4-way/40-reservation-station
baseline, a 20-RS machine, a 3-way machine with a single load/store port,
and both reductions combined -- with and without integration, and reports
speedups relative to the baseline machine without integration.  The paper's
claim is that a 1K-entry 4-way integration table can compensate for a 25%
issue-width reduction or a 50% buffering reduction.

Usage::

    python examples/complexity_tradeoff.py [--all] [--scale S]
"""

import argparse

from repro.experiments import DEFAULT_BENCHMARKS, FAST_BENCHMARKS, figures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="run all 16 benchmarks (slower)")
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args()

    benchmarks = DEFAULT_BENCHMARKS if args.all else FAST_BENCHMARKS
    result = figures.run(["7"], benchmarks, scale=args.scale)["7"]
    print(figures.report("7", result))


if __name__ == "__main__":
    main()
