#!/usr/bin/env python3
"""The performance ladder: each rung in its own process, under limits.

A rung is one call: a ``solve`` of a phase grid, of a memoryful random
comb or of N sequential uses of a qubit phase gate (seq-N; ``solve`` finds
the orbit of the grids and of seq-N and solves their seed program), or
``covariant_gamma`` on a phase grid, on N sequential gates (gates-N), or on
a phase grid rotated by a random unitary (a non-diagonal action).  Each runs
in a fresh Python process with BLAS pinned to one thread, an address-space
limit of MEMORY_GIB (RLIMIT_AS) and a wall-clock budget, so running out of
memory or time is a result, not a crash.  The child repeats the call while
the calls so far total under REPEAT_S seconds, up to MAX_CALLS calls, so a
sub-second rung is timed more than once.  A record holds the seconds the
child took to build the rung's problem, once (build_s), the median wall
seconds of those calls and how many there were, the child's peak RSS
(ru_maxrss) when the last call returns, before the certificate check
(peak_rss_mb; a timeout, refused, memory_limit or error record has the
whole child's, from wait4), its peak RSS when the first call returns
(first_rss_mb, which the allocator's state after repeated calls cannot
raise), the median over
its calls of the minor page faults each call took (minflt, from getrusage
around the call: pages the allocator mapped afresh), iterations, gamma
(on the caller's score scale), its distance to the oracle where there is
one, whether the certificate checks on the full problem (not timed), the
largest peak-memory estimate the call checked (estimate_mb, null on a tree
without check_memory), the largest row count m among the programs it
checked (rows, null alike), the route a ``solve`` took ("direct" or
"orbit"; null for ``covariant_gamma`` and on a tree whose solutions carry
none), and the outcome: ok, timeout, memory_limit, refused (DimensionCap)
or error.

    python scripts/ladder.py --out ladder.json
    python scripts/ladder.py --side parent=OLD/src --side change=src \\
        --repeat 2 --out BENCH.json

Each --side NAME=SRC runs the rungs against the package under SRC (by
default, this checkout's src as "local"); sides take turns rung by rung,
so a slow spell of the host hits both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
RUNGS = ("grid-4", "grid-6", "grid-8", "grid-9", "grid-16", "grid-24",
         "memory-3x22", "memory-2x33", "covariant-12", "covariant-16",
         "gates-3", "gates-4", "gates-5", "seq-4", "seq-5", "rotated-7")
POLL_S = 0.05
MEMORY_GIB = 3  # address-space limit of each child
REPEAT_S = 6.0  # a child repeats its call while the calls total less
MAX_CALLS = 5


def _grid(levels):
    from qnetopt.covariant import phase_estimation_optimum, phase_grid_problem
    from qnetopt.sdp import solve
    problem = phase_grid_problem(levels)[0]
    oracle = phase_estimation_optimum(levels).cos_max
    return lambda: solve(problem), oracle


def _memory(shape):
    """A random memoryful comb, K=2: shape "3x22" is 3 steps of (2, 2)."""
    import numpy as np
    from qnetopt.instances import random_channel_problem
    from qnetopt.sdp import solve
    steps, (d_in, d_out) = shape.split("x")
    problem = random_channel_problem(np.random.default_rng(0), 2,
                                     [(int(d_in), int(d_out))] * int(steps),
                                     memory=True)
    return lambda: solve(problem), None


def _phase_grid(levels):
    from qnetopt.covariant import phase_estimation_optimum, phase_grid_problem
    problem, action = phase_grid_problem(levels)
    return problem, action, phase_estimation_optimum(levels).cos_max


def _gates(steps):
    """steps sequential uses of diag(1, w^j), j on a grid of 8; payoff 1 + cos.

    They reach steps + 1 phase levels, whose optimum is the oracle's.
    """
    import numpy as np
    from qnetopt.covariant import (FiniteGroupAction, cyclic_group,
                                   phase_estimation_optimum)
    from qnetopt.estimation import EstimationProblem
    from qnetopt.networks import choi_of_channel, comb_of_memoryless_sequence
    from qnetopt.operators import SystemLabel
    grid = 8
    systems = [(SystemLabel("i%d" % s, 2), SystemLabel("o%d" % s, 2))
               for s in range(steps)]
    rep = {j: np.diag([1.0, np.exp(2j * np.pi * j / grid)])
           for j in range(grid)}
    combs = tuple(comb_of_memoryless_sequence(
        [choi_of_channel([rep[j]], i, o) for i, o in systems])
        for j in range(grid))
    d = np.arange(grid)
    payoff = 1.0 + np.cos(2 * np.pi * (d[:, None] - d[None, :]) / grid)
    problem = EstimationProblem(combs[0].space, tuple(range(grid)),
                                np.full(grid, 1.0 / grid), combs, payoff,
                                payoff_shift=1.0)
    elements, table = cyclic_group(grid)
    action = FiniteGroupAction(elements, table,
                               {o.id: rep for _, o in systems})
    return problem, action, phase_estimation_optimum(steps + 1).cos_max


def _rotated(levels):
    """The phase grid with every channel conjugated by a seeded random V."""
    import numpy as np
    from qnetopt.covariant import FiniteGroupAction
    from qnetopt.estimation import EstimationProblem
    from qnetopt.instances import random_unitary
    from qnetopt.networks import choi_of_channel, comb_of_memoryless_sequence
    problem, action, oracle = _phase_grid(levels)
    step = problem.space.steps[0]
    v = random_unitary(np.random.default_rng(0), levels)
    rep = {el: v @ action.rep[step.out_sys.id][el] @ v.conj().T
           for el in action.elements}
    combs = tuple(comb_of_memoryless_sequence(
        [choi_of_channel([rep[el]], step.in_sys, step.out_sys)])
        for el in action.elements)
    rotated = EstimationProblem(problem.space, problem.labels_x, problem.prior,
                                combs, problem.payoff, problem.payoff_shift)
    return rotated, FiniteGroupAction(action.elements, action.table,
                                      {step.out_sys.id: rep}), oracle


COVARIANT = {"covariant": _phase_grid, "gates": _gates, "rotated": _rotated}


def _record_estimates() -> tuple:
    """Wrap check_memory where the engine looks it up; collect what it saw.

    Each estimate lands in the first returned list and each program's row
    count m in the second; both stay empty on a tree without check_memory.
    """
    from qnetopt.sdp import engine
    estimates, rows = [], []
    check = getattr(engine, "check_memory", None)
    if check is not None:
        def wrapped(sdp, *args, **kwargs):
            rows.append(sdp.cmap.m)
            estimates.append(check(sdp, *args, **kwargs))
            return estimates[-1]
        engine.check_memory = wrapped
    return estimates, rows


def run_rung(name: str) -> dict:
    """Set up and time one rung in this process; the record."""
    from qnetopt.errors import DimensionCap  # loads the whole package
    kind, _, arg = name.partition("-")
    start = time.perf_counter()
    if kind == "grid":
        call, oracle = _grid(int(arg))
    elif kind == "seq":
        from qnetopt.sdp import solve
        problem, _, oracle = _gates(int(arg))
        call = lambda: solve(problem)
    elif kind in COVARIANT:
        from qnetopt.covariant import covariant_gamma
        problem, action, oracle = COVARIANT[kind](int(arg))
        call = lambda: covariant_gamma(problem, action)
    else:
        call, oracle = _memory(arg)
    build_s = time.perf_counter() - start
    estimates, rows = _record_estimates()
    walls, faults = [], []
    try:
        while len(walls) < MAX_CALLS and sum(walls) < REPEAT_S:
            result = None  # not held while the next call runs
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            result = call()
            walls.append(time.perf_counter() - start)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            faults.append(usage.ru_minflt - before)
            if len(walls) == 1:
                first_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    except DimensionCap as exc:
        return {"outcome": "refused", "detail": str(exc)}
    except MemoryError as exc:
        return {"outcome": "memory_limit", "detail": str(exc)}
    # the calls' peak: the certificate check below builds full-size payoffs
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if kind in COVARIANT:
        from qnetopt.networks import QuantumComb
        from qnetopt.sdp import certify_dual
        gamma = result.gamma_max - 1.0  # phase problems store 1 + cos
        certified = certify_dual(
            result.gamma_max, QuantumComb(problem.space, result.invariant_op),
            problem, tol=1e-7).certified
    else:
        gamma = result.gamma_primal
        certified = result.certificate.certified
    rec = {"outcome": "ok", "build_s": build_s,
           "wall_s": statistics.median(walls),
           "calls": len(walls), "iterations": result.iterations,
           "gamma": gamma, "certified": bool(certified),
           "peak_rss_mb": peak_mb, "first_rss_mb": first_mb,
           "minflt": statistics.median_low(faults),
           "estimate_mb": max(estimates) / 2 ** 20 if estimates else None,
           "rows": max(rows) if rows else None,
           "route": getattr(result, "route", None)}
    if oracle is not None:
        rec["oracle_distance"] = abs(gamma - oracle)
    return rec


def _limits(memory_bytes: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
    return apply


def spawn(name: str, src: str, memory_bytes: int, budget_s: float) -> dict:
    """Run one rung in a child process under the limits.

    The record's peak_rss_mb is the child's own when it wrote one, else
    the whole child's from wait4.
    """
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--rung", name],
            stdout=out, stderr=err, env=env,
            preexec_fn=_limits(memory_bytes))
        deadline = time.monotonic() + budget_s
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.send_signal(signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(POLL_S)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().splitlines()
        # the exception, without the traceback's file paths
        error = (err.read().strip().splitlines() or [""])[-1]
    peak_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    if timed_out:
        return {"outcome": "timeout", "budget_s": budget_s,
                "peak_rss_mb": peak_mb}
    if proc.returncode == 0 and lines:
        rec = json.loads(lines[-1])
    elif "MemoryError" in error:
        rec = {"outcome": "memory_limit"}
    else:
        rec = {"outcome": "error", "exit": proc.returncode, "error": error}
    rec.setdefault("peak_rss_mb", peak_mb)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--rung", choices=RUNGS, help=argparse.SUPPRESS)
    ap.add_argument("--side", action="append", default=[],
                    help="NAME=SRC: run against the package under SRC "
                         "(default: local=%s)" % SRC)
    ap.add_argument("--rungs", default=",".join(RUNGS),
                    help="comma-separated subset of %s" % ", ".join(RUNGS))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--budget-s", type=float, default=300.0,
                    help="wall-clock budget of each child")
    ap.add_argument("--out", default=None, help="JSON path (default stdout)")
    args = ap.parse_args(argv)

    if args.rung:
        print(json.dumps(run_rung(args.rung)), flush=True)
        return 0

    sides = [(name, os.path.abspath(src)) for name, src in
             (s.partition("=")[::2] for s in args.side)] or [("local", SRC)]
    rungs = [r for r in args.rungs.split(",") if r]
    unknown = set(rungs) - set(RUNGS)
    if unknown:
        ap.error("unknown rungs %s" % sorted(unknown))
    memory_bytes = MEMORY_GIB * 2 ** 30
    results = {name: {r: [] for r in rungs} for name, _ in sides}
    for rung in rungs:
        for rep in range(args.repeat):
            order = sides if rep % 2 == 0 else sides[::-1]
            for name, src in order:
                rec = spawn(rung, src, memory_bytes, args.budget_s)
                results[name][rung].append(rec)
                print("%-8s %-13s %s" % (name, rung, json.dumps(rec)),
                      file=sys.stderr, flush=True)
    doc = {"rungs": rungs, "repeat": args.repeat,
           "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
           "limits": {"memory_gib": MEMORY_GIB,
                      "budget_s": args.budget_s, "blas_threads": 1},
           "sides": results}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
