"""One workload in one fresh interpreter: set up, run ops, print a JSON line.

run.py starts this with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count pinned.  Set-up ends when the inputs exist; the worker
prints the CLOCK_MONOTONIC reading at that moment so the parent can time
interpreter start, ``import qnetopt`` and input generation together.

Ops run back to back (a closed loop with one client).  One pass runs every
op of the workload once.  A run makes a fixed number of passes: --seconds
over the workload's nominal pass time (``Workload.pass_s``), rounded down,
and at least one.  The count does not depend on how fast the passes go, so
two commits are measured with the same number of samples.

Timings are calibrated against host speed.  On a shared 2-vCPU cloud
host, the whole machine can run up to 1.8 times slower for minutes at a
time, and process CPU time slows as much as wall-clock time, so neither the
best nor the median of raw times over a run is steady from run to run.  A
fixed reference kernel (``reference``: small dense linear algebra and
interpreter work, no qnetopt code) runs before the first op of a pass and
after every op.  Each op sample is divided by the mean of the reference
times on either side of it, and an op's time is the median of these ratios
over the passes, times REF_S.  Times therefore read in seconds on a host
that runs the reference kernel in REF_S seconds; a change to the program
moves them as it moves raw times, while a slower host moves both the op and
the reference.  wall_s is the sum of the op times and op_s_p50 their median
over the ops.  The raw times are printed beside them.  With --trace 1 passes
alternate untraced and traced, starting untraced, with at least one of
each; the trace overhead is the difference of the two sums, and per-layer
times are scaled by REF_S over the median reference time of the traced
passes.

Passes take turns on the CPUs the process may run on, so that a spell on
one CPU does not set every sample of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

import numpy as np

import workloads
from tracer import Tracer, layer_metrics


REF_S = 0.005  # nominal seconds of one reference call; the unit of op times
SETUP_REFS = 5  # reference calls timed after set-up, to calibrate it


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_REF_INPUTS = [np.random.default_rng(0).standard_normal((n, n))
               for n in (16, 32, 64)]


def reference() -> float:
    """Time one call of the fixed reference kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(6):
        for a in _REF_INPUTS:
            s = a @ a.T + np.eye(len(a))
            np.linalg.eigh(s)
            np.linalg.cholesky(s)
        d = {}
        for i in range(2000):
            d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - t0


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in qnetopt eats it."""


def _alarm(signum, frame):
    raise OpTimeout()


def _environment() -> dict:
    import numpy
    import scipy
    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (info.get("name"), info.get("version"))
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count()}


def run_op(op, budget_s: float, tracer, op_id):
    """Time one op; returns (seconds, ok).  Checks run outside the timing."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    t0 = time.perf_counter()
    try:
        result = op.run() if tracer is None else tracer.run_op(op_id, op.run)
    except (Exception, OpTimeout) as exc:
        print("op %s failed: %r" % (op.name, exc), file=sys.stderr)
        return time.perf_counter() - t0, False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception as exc:
        print("op %s check raised: %r" % (op.name, exc), file=sys.stderr)
        ok = False
    if not ok:
        print("op %s failed its check" % op.name, file=sys.stderr)
    return elapsed, ok and elapsed <= budget_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    workdir = os.path.join(args.out_dir, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        ready = _now()
        reference()  # warm-up
        # run.py times set-up and scales it by this, as op times are scaled
        setup_scale = REF_S / statistics.median(
            reference() for _ in range(SETUP_REFS))
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        return _measure(args, workload, ready, setup_scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, ready, setup_scale) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer() if args.trace else None
    n = len(workload.ops)
    ratios = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    raw = [[] for _ in range(n)]
    refs = {False: [], True: []}
    walls = {False: [], True: []}
    attempted = failed = 0
    passes = max(1 + args.trace, int(args.seconds // workload.pass_s))
    cpus = sorted(os.sched_getaffinity(0))
    for k in range(passes):
        # a traced pass runs on the same CPU as the untraced one before it
        os.sched_setaffinity(0, {cpus[k // (1 + args.trace) % len(cpus)]})
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        ref_before = reference()
        for i, op in enumerate(workload.ops):
            dt, ok = run_op(op, workload.budget_s, tracer if traced else None,
                            attempted)
            ref_after = reference()
            attempted += 1
            failed += not ok
            wall += dt
            ratios[traced][i].append(2.0 * dt / (ref_before + ref_after))
            refs[traced].append(ref_after)
            if not traced:
                raw[i].append(dt)
            ref_before = ref_after
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)

    def op_times(traced):
        return [REF_S * statistics.median(r) for r in ratios[traced]]

    times = op_times(False)
    out = {"ready": ready,
           "setup_scale": setup_scale,
           "attempted": attempted,
           "failed": failed,
           "wall_s": sum(times),
           "op_s_p50": statistics.median(times),
           "raw_wall_s": sum(statistics.median(r) for r in raw),
           "ref_s": statistics.median(refs[False]),
           "ops_per_pass": n,
           "pass_walls": walls[False],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "inputs_sha256": workloads.digest(workload),
           "environment": _environment()}
    if tracer is not None:
        layers, coverage_error = layer_metrics(tracer, len(walls[True]))
        scale = REF_S / statistics.median(refs[True])
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= scale
        layers["trace.overhead_s"] = sum(op_times(True)) - sum(times)
        out["layers"] = layers
        out["coverage_error"] = coverage_error
        tracer.write(os.path.join(args.out_dir, "trace-%s-seed%d.jsonl"
                                  % (args.workload, args.seed)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
