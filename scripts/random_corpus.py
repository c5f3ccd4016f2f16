#!/usr/bin/env python3
"""Solve a reproducible corpus of random problems and report gap statistics.

Every solve must converge with a certified dual bound; the script prints
the worst relative gap, the worst certificate margin, and timing, and
exits nonzero if anything failed.
"""

import argparse
import sys
import time

import numpy as np

from qnetopt.instances import random_problem
from qnetopt.sdp import SolverOptions, solve


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--seed", type=int, default=20260823)
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    opts = SolverOptions(tol=args.tol)
    worst_gap = 0.0
    worst_margin = np.inf
    failures = 0
    t0 = time.perf_counter()
    for k in range(args.count):
        problem = random_problem(rng)
        try:
            sol = solve(problem, opts)
        except Exception as e:
            failures += 1
            print("instance %d FAILED: %r" % (k, e))
            continue
        worst_gap = max(worst_gap, sol.rel_gap)
        worst_margin = min(worst_margin, sol.certificate.min_margin)
    dt = time.perf_counter() - t0
    print("%d instances, %d failures, %.1fs total (%.2fs each)"
          % (args.count, failures, dt, dt / max(1, args.count)))
    print("worst relative gap   %.3e" % worst_gap)
    print("worst dual margin    %.3e" % worst_margin)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
