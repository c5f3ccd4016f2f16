"""Command-line front end.

Subcommands
-----------
validate PATH            check a comb / tester / problem file
solve PATH               solve a problem file, emit a solution report
dual-check PROBLEM SOL   re-check a solution's upper-bound certificate
example NAME             reproduce a named worked example
product-rule PATHS...    factor-vs-joint comparison over problem files

Exit codes (stable):
  0  success
  1  unexpected internal error
  2  validation or certificate failure
  3  malformed input file
  4  size cap exceeded (an operator side over 4096, or a program whose
     estimated peak memory is over sdp.engine.MEMORY_CAP_BYTES)
  5  iteration limit reached
  6  numerical failure inside the solver
  7  bad usage (unknown example, bad parameter)

All human-readable numbers are printed with 9 significant digits; report
files carry full double precision.  Identical inputs and flags produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

import numpy as np

from . import serde
from .covariant import (FiniteGroupAction, cyclic_group, phase_estimation_optimum,
                        phase_grid_problem, qmax_state, sum_of_phases)
from .errors import (BadDimension, BadParameter, DimensionCap, MaxIterations,
                     NumericalFailure, ParseError, QnetoptError,
                     UnknownExample)
from .estimation import EstimationProblem
from .networks import comb_of_state, validate_comb, validate_tester
from .operators import LabeledOperator, SystemLabel
from .product_rule import (counterexample_correlated_payoff,
                           counterexample_multicopy, verify_product_rule)
from .sdp import SolverOptions, certify_dual, solve, yuen_kennedy_lax

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_DIMENSION = 4
EXIT_MAXITER = 5
EXIT_NUMERICAL = 6
EXIT_USAGE = 7


def _say(args, text: str) -> None:
    if not getattr(args, "quiet", False):
        print(text, file=sys.stderr)


def _emit(args, doc) -> None:
    """Report to --out when given, else to stdout."""
    text = serde.dump_path(doc, args.out or None)
    if not args.out:
        sys.stdout.write(text)


def _g(x: float) -> str:
    return "%.9g" % x


def _options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = serde.load_path(args.path)
    if "outcomes" in doc:
        validate_tester(serde.tester_from_json(doc))
        _say(args, "OK tester: %d outcomes" % len(doc["outcomes"]))
    elif "combs" in doc:
        problem = serde.problem_from_json(doc)
        problem.validated()
        _say(args, "OK problem: %d parameters" % problem.num_params)
    elif "matrix" in doc and "steps" in doc:
        comb = validate_comb(serde.comb_from_json(doc))
        _say(args, "OK comb: %d steps" % comb.space.num_steps)
    else:
        raise ParseError("file is neither a comb, a tester, nor a problem")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = serde.problem_from_json(serde.load_path(args.path))
    sol = solve(problem, _options(args))
    _emit(args, serde.solution_to_json(sol))
    _say(args, "gamma %s  lambda %s  gap %s  (%d iterations)"
         % (_g(sol.gamma_primal), _g(sol.lambda_), _g(sol.gap), sol.iterations))
    ok = sol.rel_gap <= args.tol and sol.certificate.certified
    return EXIT_OK if ok else EXIT_INVALID


def cmd_dual_check(args) -> int:
    problem = serde.problem_from_json(serde.load_path(args.problem))
    doc = serde.load_path(args.solution)
    if "comb_certificate" in doc:
        comb = serde.comb_from_json(doc["comb_certificate"])
    else:
        comb = serde.comb_from_json(doc)
    try:
        lam = serde.json_number(doc["lambda"], "lambda")
    except (KeyError, ParseError):
        lam = np.nan
    if not 0.0 <= lam < np.inf:  # NaN too
        raise ParseError("certificate file needs a finite, nonnegative "
                         "numeric 'lambda'")
    report = certify_dual(lam, comb, problem, tol=args.tol)
    _say(args, "lambda %s  min margin %s  certified %s"
         % (_g(report.lambda_), _g(report.min_margin), report.certified))
    return EXIT_OK if report.certified else EXIT_INVALID


def _qubit_state_problem(vectors, priors, tag: str = "q") -> EstimationProblem:
    lab = SystemLabel(tag, 2)
    combs = tuple(comb_of_state(LabeledOperator((lab,), np.outer(v, v.conj())))
                  for v in vectors)
    labels = tuple(range(len(vectors)))
    return EstimationProblem(combs[0].space, labels, np.asarray(priors, float),
                             combs, np.eye(len(vectors)))


def _helstrom_problem(tag: str = "q") -> EstimationProblem:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return _qubit_state_problem([np.array([1.0, 0.0]), plus], [0.5, 0.5], tag)


def _example_helstrom(args) -> dict:
    sol = solve(_helstrom_problem(), _options(args))
    oracle = 0.5 * (1.0 + np.sqrt(2.0) / 2.0)
    _say(args, "gamma %s  closed form %s  gap %s"
         % (_g(sol.gamma_primal), _g(oracle), _g(sol.gap)))
    return {"gamma": sol.gamma_primal, "closed_form": oracle,
            "difference": sol.gamma_primal - oracle, "iterations": sol.iterations}


def _example_ykl(args) -> dict:
    lab = SystemLabel("q", 2)
    states = []
    for k in range(3):
        th = 2.0 * np.pi * k / 3.0
        v = np.array([np.cos(th / 2.0), np.sin(th / 2.0)])
        states.append(LabeledOperator((lab,), np.outer(v, v)))
    res = yuen_kennedy_lax(states, [1.0 / 3.0] * 3, _options(args))
    _say(args, "p_success %s  closed form %s  witness slack %s"
         % (_g(res.p_succ), _g(2.0 / 3.0), _g(res.slack)))
    return {"p_success": res.p_succ, "closed_form": 2.0 / 3.0,
            "witness_slack": res.slack}


def _example_qmax(args) -> dict:
    lab = SystemLabel("q", 2)
    rho0 = LabeledOperator((lab,), np.array([[1.0, 0.0], [0.0, 0.0]]))
    elements, table = cyclic_group(2)
    rep = {lab.id: {0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])}}
    action = FiniteGroupAction(elements, table, rep)
    q, rho = qmax_state(rho0, action)
    p_succ = 1.0 / (len(elements) * q)
    _say(args, "q_max %s  delta-payoff success probability %s"
         % (_g(q), _g(p_succ)))
    return {"q_max": q, "p_success": p_succ,
            "invariant_state_diag": [float(rho.data[i, i].real) for i in range(2)]}


def _example_phase(args) -> dict:
    levels = args.levels
    grid = args.d_grid if args.d_grid else None
    problem, _action = phase_grid_problem(levels, grid)
    sol = solve(problem, _options(args))
    c_sdp = 2.0 * (1.0 - sol.gamma_primal)
    oracle = phase_estimation_optimum(levels)
    _say(args, "cost from grid optimization  %s" % _g(c_sdp))
    _say(args, "exact tridiagonal optimum    %s" % _g(oracle.c_min))
    _say(args, "quoted shorthand 4sin^2(pi/(2N)) = %s  matches oracle: %s"
         % (_g(oracle.quoted_value), oracle.quoted_matches))
    if not oracle.quoted_matches:
        _say(args, "  (shorthand disagrees with the exact optimum; "
                   "the oracle value is authoritative)")
    return {"levels": levels, "cost_sdp": c_sdp, "cost_oracle": oracle.c_min,
            "quoted_value": oracle.quoted_value,
            "quoted_matches": oracle.quoted_matches}


def _example_two_phase(args) -> dict:
    rep = counterexample_correlated_payoff(args.p, args.d_grid or 8,
                                           _options(args))
    _say(args, "joint gamma %s  expected %s  best product %s  Bell overlap^2 %s"
         % (_g(rep.gamma_joint), _g(rep.gamma_expected),
            _g(rep.product_grid_value), _g(rep.bell_sq_overlap)))
    return {"p": rep.p, "gamma_joint": rep.gamma_joint,
            "gamma_expected": rep.gamma_expected,
            "product_grid_value": rep.product_grid_value,
            "product_tester_value": rep.product_tester_value,
            "bell_sq_overlap": rep.bell_sq_overlap}


def _example_sum_phases(args) -> dict:
    rep = sum_of_phases(args.levels, args.copies)
    _say(args, "entangled cost %s  product cost %s  ratio %s (copies %d)"
         % (_g(rep.c_entangled), _g(rep.c_product), _g(rep.ratio), rep.copies))
    return {"levels": rep.levels, "copies": rep.copies,
            "c_entangled": rep.c_entangled, "c_product": rep.c_product,
            "ratio": rep.ratio}


def _example_multicopy(args) -> dict:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rep = counterexample_multicopy(np.array([1.0, 0.0]), plus, (0.5, 0.5),
                                   args.copies)
    _say(args, "p(1) %s  p(%d) %s  p(1)^%d %s"
         % (_g(rep.p_single), rep.copies, _g(rep.p_multi), rep.copies,
            _g(rep.p_single_power)))
    return {"copies": rep.copies, "p_single": rep.p_single,
            "p_multi": rep.p_multi, "p_single_power": rep.p_single_power,
            "advantage": rep.advantage}


def _example_product_rule(args) -> dict:
    a, b = _helstrom_problem(), _helstrom_problem("r")
    rep = verify_product_rule([a, b], _options(args))
    _say(args, "joint %s  product of factors %s  deviation %s  certified %s"
         % (_g(rep.gamma_joint), _g(rep.product_of_factors),
            _g(rep.relative_deviation), rep.certified))
    return serde.product_report_to_json(rep)


EXAMPLES = {"helstrom": _example_helstrom, "ykl": _example_ykl,
            "qmax": _example_qmax, "phase": _example_phase,
            "two-phase": _example_two_phase,
            "sum-phases": _example_sum_phases,
            "multicopy": _example_multicopy,
            "product-rule": _example_product_rule}
EXAMPLE_NAMES = tuple(EXAMPLES)


def cmd_example(args) -> int:
    if args.name not in EXAMPLES:
        raise UnknownExample("unknown example %r (have: %s)"
                             % (args.name, ", ".join(EXAMPLE_NAMES)))
    _emit(args, EXAMPLES[args.name](args))
    return EXIT_OK


def cmd_product_rule(args) -> int:
    problems = [serde.problem_from_json(serde.load_path(p)) for p in args.paths]
    rep = verify_product_rule(problems, _options(args))
    _emit(args, serde.product_report_to_json(rep))
    _say(args, "joint %s  product %s  deviation %s  certified %s"
         % (_g(rep.gamma_joint), _g(rep.product_of_factors),
            _g(rep.relative_deviation), rep.certified))
    bound = 3.0 * args.tol * (1.0 + abs(rep.product_of_factors))
    ok = rep.certified and abs(rep.gamma_joint - rep.product_of_factors) <= bound
    return EXIT_OK if ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _add_solver_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", type=int, default=200)


def _add_io_flags(sub) -> None:
    sub.add_argument("--out", default=None, help="report path (default stdout)")
    sub.add_argument("--quiet", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    parse_args leaves the parser unchanged and returns a fresh Namespace,
    so repeated main() calls in one process share it.  Each subcommand's
    handler (cmd_*) is bound when the parser is built: replacing a cmd_*
    function after the first call has no effect on main().
    """
    parser = argparse.ArgumentParser(prog="qnetopt",
                                     description="network estimation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("validate", help="validate a comb/tester/problem file")
    v.add_argument("path")
    v.add_argument("--quiet", action="store_true")
    v.set_defaults(func=cmd_validate)

    s = subs.add_parser("solve", help="solve a problem file")
    s.add_argument("path")
    _add_solver_flags(s)
    _add_io_flags(s)
    s.set_defaults(func=cmd_solve)

    d = subs.add_parser("dual-check", help="re-check an upper-bound certificate")
    d.add_argument("problem")
    d.add_argument("solution")
    d.add_argument("--tol", type=float, default=1e-7)
    d.add_argument("--quiet", action="store_true")
    d.set_defaults(func=cmd_dual_check)

    e = subs.add_parser("example", help="run a named worked example")
    e.add_argument("name")
    e.add_argument("--p", type=float, default=0.7)
    e.add_argument("--levels", type=int, default=2)
    e.add_argument("--copies", type=int, default=2)
    e.add_argument("--d-grid", type=int, default=0, help="0 selects the default")
    _add_solver_flags(e)
    _add_io_flags(e)
    e.set_defaults(func=cmd_example)

    p = subs.add_parser("product-rule", help="factor-vs-joint over problem files")
    p.add_argument("paths", nargs="+")
    _add_solver_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_product_rule)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except DimensionCap as e:
        print("dimension cap: %s" % e, file=sys.stderr)
        return EXIT_DIMENSION
    except MaxIterations as e:
        print("iteration limit: %s" % e, file=sys.stderr)
        return EXIT_MAXITER
    except NumericalFailure as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL
    except (UnknownExample, BadParameter, BadDimension) as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except QnetoptError as e:
        print("invalid: %s" % e, file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # pragma: no cover - last resort
        print("internal error: %r" % e, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
