#!/usr/bin/env python3
"""qnetopt benchmark: one workload per call, every metric by name and unit.

Run from the root of a source checkout:

    python3 bench/run.py --workload phase-direct --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and bench/README.md.  Each call
starts the workload in fresh single-threaded subprocesses (PYTHONPATH=src,
BLAS and OpenMP pinned to one thread): SETUP_RUNS - 1 that only set up, then
one that sets up and measures.  setup_s is the median set-up time of all of
them, each scaled to a fixed host speed as bench/worker.py describes.  With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 it reports the per-layer split of a traced run.  Every op's result
is checked, and the last line always has the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the same names as workloads.BUILDERS; the parent never imports qnetopt
WORKLOADS = ("phase-direct", "memory-chain", "covariant", "cli-corpus")
SETUP_RUNS = 5
BLAS_THREADS = 1  # on a 2-core host, 1 thread was faster and steadier than 2
DEADLINE_S = 170.0  # the whole call, set-up included, ends before this
OUT_DIR = ".bench_out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("standard_form.build_s", "s"), ("standard_form.rows", "count"),
    ("standard_form.tensor_mb", "MB"),
    ("ipm.solve_s", "s"), ("ipm.self_s", "s"), ("ipm.schur_s", "s"),
    ("ipm.schur_calls", "count"), ("ipm.iterations", "count"),
    ("ipm.apply_s", "s"), ("ipm.schur_chol_s", "s"),
    ("engine.self_s", "s"), ("engine.slater_s", "s"),
    ("engine.tighten_s", "s"), ("engine.certify_s", "s"),
    ("networks.validate_s", "s"),
    ("estimation.payoff_ops_s", "s"),
    ("estimation.payoff_ops_per_solve", "ratio"),
    ("covariant.self_s", "s"), ("covariant.ipm_s", "s"),
    ("serde.load_s", "s"), ("serde.dump_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
COVERAGE_TOL = 0.01  # layer self times must add up to the traced op time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, extra, deadline, cpus=None):
    """Run bench/worker.py once; returns (calibrated set-up s, its result).

    ``cpus``, when given, is the set of CPUs the worker may run on.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.abspath(OUT_DIR)] + extra
    spawned = _now()
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(os.path.join(OUT_DIR, "work-%d" % proc.pid),
                      ignore_errors=True)
        raise RuntimeError("worker exceeded the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    result = json.loads(out.strip().splitlines()[-1])
    return (result["ready"] - spawned) * result["setup_scale"], result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qnetopt", "__init__.py")):
        print("error: run from the root of a qnetopt checkout (no src/qnetopt)",
              file=sys.stderr)
        return 2
    deadline = _now() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        # set-ups take turns on the CPUs, as the worker's passes do
        cpus = sorted(os.sched_getaffinity(0))
        setups = [_worker(args, ["--setup-only"], deadline,
                          {cpus[i % len(cpus)]})[0]
                  for i in range(SETUP_RUNS - 1)]
        setup, res = _worker(args, [], deadline)
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    setups.append(setup)

    env = res["environment"]
    print("environment: " + json.dumps(env))
    print("inputs_sha256: %s" % res["inputs_sha256"])
    print("ops: %d attempted, %d failed, %d per pass"
          % (res["attempted"], res["failed"], res["ops_per_pass"]))
    print("untraced pass walls (raw s): " + " ".join(
        "%.3f" % w for w in res["pass_walls"]))
    print("raw wall (sum of op medians): %.4f s; reference call: %.5f s"
          % (res["raw_wall_s"], res["ref_s"]))
    correct = res["failed"] == 0
    if args.trace:
        values, names = res["layers"], PER_LAYER
        print("coverage error: %.3g" % res["coverage_error"])
        correct = correct and res["coverage_error"] <= COVERAGE_TOL
    else:
        values = dict(res, setup_s=statistics.median(setups))
        names = END_TO_END
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-34s %.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
