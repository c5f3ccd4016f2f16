#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 bench/selftest.py

Checks that the same seed builds byte-identical inputs, that another seed
builds different inputs for every workload whose generator is random, and
that two traced runs at the same seed report identical counts and pass
every op.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
# phase-direct and covariant draw from three fixed grid triples each, so two
# seeds may coincide
RANDOM_INPUTS = ("memory-chain", "cli-corpus")
EXACT_COUNTS = ("ipm.iterations", "ipm.schur_calls", "standard_form.rows",
                "standard_form.tensor_mb", "estimation.payoff_ops_per_solve")


def _check(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def check_inputs(seed: int) -> None:
    sys.path[:0] = [os.path.abspath("src"), HERE]
    import workloads
    workdir = os.path.join(".bench_out", "selftest-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for name in workloads.BUILDERS:
            first = workloads.digest(workloads.build(name, seed, workdir))
            again = workloads.digest(workloads.build(name, seed, workdir))
            _check(first == again, "%s: seed %d builds the same inputs twice"
                   % (name, seed))
            if name in RANDOM_INPUTS:
                other = workloads.digest(workloads.build(name, seed + 1, workdir))
                _check(first != other, "%s: seeds %d and %d build different "
                       "inputs" % (name, seed, seed + 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180)
    _check(proc.returncode == 0, "%s: traced run exits 0" % name)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(seed: int) -> None:
    sys.path.insert(0, HERE)
    import run
    for name in run.WORKLOADS:
        a, b = _traced_run(name, seed), _traced_run(name, seed)
        for res in (a, b):
            _check(res["correct"] and res["failed"] == 0,
                   "%s: every op passes its check" % name)
        for key in EXACT_COUNTS:
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            _check(va == vb, "%s: %s repeats exactly (%r)" % (name, key, va))


def main() -> int:
    check_inputs(SEED)
    check_counts(SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
