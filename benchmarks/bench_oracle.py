#!/usr/bin/env python3
"""Benchmark the class-sum oracle kernel against the brute-force reference.

Runs a fixed grid of raw stable counts through `oracle.raw_stable_count`
(conjugacy classes; the closed framing count for one matrix, the
submodule DP for commuting pairs) and through the reference
`tests/brute_force.py` (every matrix tuple and framing), checks that they
agree exactly, and prints a timing table.  Exits with status 1 on a
mismatch.

Usage:  python3 benchmarks/bench_oracle.py [--quick]
"""

import argparse
import pathlib
import sys
import time

# the reference is not part of the package; it lives next to the tests
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import brute_force  # noqa: E402
# the kernel module is loaded lazily on the first count; load it here so
# that its import is not timed as part of the first case
from quotmotives import _classsum, oracle  # noqa: E402,F401

FULL_GRID = [
    # (n, r, q, d, punctual)
    (2, 2, 2, 1, True),
    (3, 1, 2, 1, True),
    (3, 2, 2, 1, True),
    (3, 1, 3, 1, True),
    (4, 1, 2, 1, True),
    (2, 2, 2, 2, True),
    (2, 1, 3, 2, True),
    (3, 1, 2, 2, True),
    (3, 2, 2, 1, False),
    (2, 2, 2, 2, False),
]
QUICK_GRID = FULL_GRID[:3] + [FULL_GRID[5]]


def timed(fn, case):
    t0 = time.perf_counter()
    value = fn(*case)
    return value, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run a reduced grid")
    args = parser.parse_args()
    grid = QUICK_GRID if args.quick else FULL_GRID

    header = (f"{'case (n,r,q,d,punctual)':<28} {'class-sum':>10} "
              f"{'brute':>10} {'speedup':>9}")
    print(header)
    print("-" * len(header))

    totals = [0.0, 0.0]
    for case in grid:
        fast, t_fast = timed(oracle.raw_stable_count, case)
        brute, t_brute = timed(brute_force.count_stable, case)
        if fast != brute:
            print(f"MISMATCH on {case}: class-sum={fast} brute={brute}")
            return 1
        totals[0] += t_fast
        totals[1] += t_brute
        print(f"{str(case):<28} {t_fast:>9.3f}s {t_brute:>9.3f}s "
              f"{t_brute / t_fast if t_fast else float('inf'):>8.1f}x")

    print("-" * len(header))
    print(f"{'total':<28} {totals[0]:>9.3f}s {totals[1]:>9.3f}s "
          f"{totals[1] / totals[0] if totals[0] else float('inf'):>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
