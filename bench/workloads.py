"""The benchmark workloads: seeded inputs, the ops that run on them, and checks.

Every op calls a public entry point (``qnetopt.sdp.solve``,
``qnetopt.covariant.covariant_gamma`` or ``qnetopt.cli.main``), looked up at
call time so that the tracer's wrappers apply.  Every op carries a check of
its result against an independent reference; a failed check, an exception
or an overrun of the workload's per-op budget counts the op as failed.

The seed changes what the inputs contain, not their total size, so runs
with different seeds cost about the same and the run-to-run spread of the
end-to-end metrics stays small.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, List, NamedTuple

import numpy as np

from qnetopt import cli, covariant, instances, sdp, serde

TOL = sdp.SolverOptions().tol
ORACLE_TOL = 1e-6  # the bound used by the covariant acceptance gate

# Ops are kept short (0.02-0.3 s on a 2-core shared host): the reference
# calls the worker makes on either side of an op then measure the host's
# speed while the op ran, and a run of 25 s times each op 5 to 70 times.
PHASE_LEVELS = 4
# Alias-free grid triples (grid >= 2 * levels) with the same total number of
# outcome blocks, so each seed's triple costs about as much as any other.
PHASE_GRIDS = ((8, 10, 12), (9, 10, 11), (8, 11, 11))

# Memoryful combs per pass: K parameters, steps [(2, 2), (2, 2)] (m = 273).
# Several small combs, so a pass sums over seeded instances whose interior-
# point iteration counts (10-14 each) average out.
MEMORY_DIMS = ((2, 2), (2, 2))
MEMORY_PARAMS = 3
MEMORY_COMBS = 6

# covariant_gamma on 3-level phase grids; grid triples as for phase-direct.
# The twirl grows with the grid and the reduced program does not, so large
# grids keep the covariant module's own work the largest share.
COVARIANT_LEVELS = 3
COVARIANT_GRIDS = ((18, 24, 30), (20, 24, 28), (22, 24, 26))

# Corpus file shapes: (kind, parameters, dimension).  Every shape appears
# equally often with each payoff kind; the seed draws the contents and order.
CLI_SHAPES = ([("state", n, d) for n in range(2, 6) for d in range(2, 5)]
              + [("channel", n, 2) for n in range(2, 4)])
CLI_ROUNDS = 3  # 3 rounds x 14 shapes x 2 payoff kinds = 84 files


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload(NamedTuple):
    ops: List[Op]
    budget_s: float  # per-op limit; an op running longer counts as failed
    pass_s: float    # nominal seconds of one pass; sets the pass count
    problems: list   # every generated problem, for the input digest


def _solve(problem):
    return sdp.solve(problem)


def _certified(sol) -> bool:
    return sol.rel_gap <= TOL and sol.certificate.certified


def phase_direct(rng, workdir) -> Workload:
    """Direct solves of the phase grid: K outcome blocks sharing one tensor."""
    oracle = covariant.phase_estimation_optimum(PHASE_LEVELS).cos_max
    grids = PHASE_GRIDS[rng.integers(len(PHASE_GRIDS))]
    ops, problems = [], []
    for grid in grids:
        problem, _ = covariant.phase_grid_problem(PHASE_LEVELS, int(grid))
        problems.append(problem)
        ops.append(Op("phase-%d" % grid,
                      lambda p=problem: _solve(p),
                      lambda sol: (_certified(sol) and abs(
                          sol.gamma_primal - oracle) <= ORACLE_TOL)))
    return Workload(ops, 10.0, 1.1, problems)


def _round_trip(doc):
    return serde.loads(serde.dumps(doc))


def _memory_check(problem):
    """Re-certify the solution as the CLI's dual-check would: from its JSON."""
    cold_problem = serde.problem_from_json(
        _round_trip(serde.problem_to_json(problem)))

    def check(sol) -> bool:
        if sol.rel_gap > TOL:
            return False
        doc = _round_trip(serde.solution_to_json(sol))
        lam = float(doc["lambda"])
        comb = serde.comb_from_json(doc["comb_certificate"])
        cold = sdp.certify_dual(lam, comb, cold_problem, tol=10.0 * TOL)
        stored = float(doc["gamma"]) + problem.payoff_shift
        return cold.certified and lam >= stored - 10.0 * TOL
    return check


def memory_chain(rng, workdir) -> Workload:
    """Direct solves of random memoryful combs: chain-level Schur entries."""
    ops, problems = [], []
    for i in range(MEMORY_COMBS):
        problem = instances.random_channel_problem(
            rng, MEMORY_PARAMS, MEMORY_DIMS, memory=True)
        problems.append(problem)
        ops.append(Op("memory-%d" % i, lambda p=problem: _solve(p),
                      _memory_check(problem)))
    return Workload(ops, 10.0, 1.8, problems)


def covariant_reduction(rng, workdir) -> Workload:
    """covariant_gamma on phase grids: the covariant program build."""
    oracle = covariant.phase_estimation_optimum(COVARIANT_LEVELS).cos_max
    grids = COVARIANT_GRIDS[rng.integers(len(COVARIANT_GRIDS))]
    ops, problems = [], []
    for grid in grids:
        problem, action = covariant.phase_grid_problem(COVARIANT_LEVELS,
                                                       int(grid))
        problems.append(problem)
        best = problem.payoff_shift + oracle  # on the stored scale
        ops.append(Op("covariant-%d" % grid,
                      lambda p=problem, a=action: covariant.covariant_gamma(p, a),
                      lambda res, best=best: abs(res.gamma_max - best)
                      <= ORACLE_TOL))
    return Workload(ops, 10.0, 0.35, problems)


def _corpus_problem(rng, kind, n, d, delta):
    if kind == "state":
        return instances.random_state_problem(rng, n, d, delta=delta)
    return instances.random_channel_problem(rng, n, [(d, d)], delta=delta)


def _cli_op(problem_path, solution_path):
    def run():
        solved = cli.main(["solve", problem_path, "--out", solution_path,
                           "--quiet"])
        checked = cli.main(["dual-check", problem_path, solution_path,
                            "--quiet"])
        return solved, checked
    return run


def cli_corpus(rng, workdir) -> Workload:
    """Many small problem files through the CLI's solve and dual-check."""
    plan = [shape + (delta,) for shape in CLI_SHAPES
            for delta in (True, False)] * CLI_ROUNDS
    ops, problems = [], []
    for i in rng.permutation(len(plan)):
        problem = _corpus_problem(rng, *plan[i])
        problems.append(problem)
        path = os.path.join(workdir, "problem-%03d.json" % i)
        serde.dump_path(serde.problem_to_json(problem), path)
        out = os.path.join(workdir, "solution-%03d.json" % i)
        ops.append(Op("cli-%03d" % i, _cli_op(path, out),
                      lambda rcs: rcs == (0, 0)))
    return Workload(ops, 10.0, 4.5, problems)


BUILDERS = {
    "phase-direct": phase_direct,
    "memory-chain": memory_chain,
    "covariant": covariant_reduction,
    "cli-corpus": cli_corpus,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed), workdir)


def digest(workload: Workload) -> str:
    """Hash of the numeric content of the inputs (label ids left out)."""
    h = hashlib.sha256()
    for problem in workload.problems:
        h.update(repr(tuple((s.in_sys.dim, s.out_sys.dim)
                            for s in problem.space.steps)).encode())
        for arr in [problem.prior, problem.payoff] + [c.op.data for c in
                                                      problem.combs]:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
