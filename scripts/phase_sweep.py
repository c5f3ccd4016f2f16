#!/usr/bin/env python3
"""Sweep the phase-estimation cost over the number of levels.

For each d the script solves the grid-restricted problem through the
covariant reduction, compares it against the exact tridiagonal optimum,
prints the commonly quoted 4 sin^2(pi/(2d)) shorthand next to them and the
seconds each reduced solve took, and tabulates the entangled-over-product
cost ratio for sums of phases, which approaches the number of copies as d
grows.  ``--max-levels 16`` runs the ladder up to 16 levels.
"""

import argparse
import sys
import time

from qnetopt.covariant import (covariant_gamma, phase_estimation_optimum,
                               phase_grid_problem, sum_of_phases)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-levels", type=int, default=5)
    ap.add_argument("--copies", type=int, default=2)
    args = ap.parse_args(argv)

    print("levels  c_grid        c_exact       4sin^2(pi/2d)  match  seconds")
    for d in range(2, args.max_levels + 1):
        problem, action = phase_grid_problem(d)
        start = time.perf_counter()
        res = covariant_gamma(problem, action)
        seconds = time.perf_counter() - start
        c_grid = 2.0 * (1.0 - (res.gamma_max - problem.payoff_shift))
        oracle = phase_estimation_optimum(d)
        print("%4d    %-12.9f  %-12.9f  %-12.9f   %-5s  %.3f"
              % (d, c_grid, oracle.c_min, oracle.quoted_value,
                 oracle.quoted_matches, seconds), flush=True)

    print()
    print("levels  copies  ratio (entangled advantage, -> copies)")
    d = 8
    while d <= 32:
        rep = sum_of_phases(d, args.copies)
        print("%4d    %4d    %.6f" % (d, args.copies, rep.ratio))
        d *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
