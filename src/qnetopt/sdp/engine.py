"""End-to-end solution of tester optimization problems.

``solve`` builds the standard-form program, runs the interior-point core on
its Hermitian blocks, wraps the result as labeled operators, and returns a
validated tester together with a scalar-times-comb certificate: a pair
(lambda, R) with R a valid comb and lambda * R dominating every payoff
operator, which upper-bounds the payoff of *every* admissible strategy.

The certificate is read off the row multipliers y through the program's own
A and A^T.  The raw dual satisfies its chain conditions as inequalities; a
mixing correction of the multipliers (add the shortfall, averaged over a
maximally mixed state on each output) turns them into exact equalities
without breaking positivity.  After it, lambda = -b.y, the trace of the
first level of the dual chain that has rows, and -A^T y on the outcome
groups is lambda R on the outcome sectors, R a normalized comb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import (BadParameter, DimensionCap, InvalidComb,
                      NormalizationViolation, NotPSD, NumericalFailure,
                      ShapeMismatch)
from ..estimation import EstimationProblem, payoff_operators
from ..networks import (QuantumComb, Tester, comb_of_state, validate_comb,
                        validate_tester)
from ..operators import LabeledOperator, min_eig
from .ipm import SolverOptions, solve_ipm
from .standard_form import (ChargeSectors, StandardSdp, build_primal,
                            charge_sectors)


@dataclass(frozen=True)
class CertificateReport:
    """Margins of lambda R - G_est, one per estimate; certified if >= -tol."""

    lambda_: float
    labels_x: tuple
    margins: tuple
    min_margin: float
    tol: float
    certified: bool
    payoff_shift: float  # subtract from lambda_ to reach the unshifted score

    @classmethod
    def of(cls, lambda_, problem, margins, tol) -> "CertificateReport":
        m = tuple(float(x) for x in margins)
        return cls(float(lambda_), problem.labels_x, m, min(m), tol,
                   min(m) >= -tol, problem.payoff_shift)


@dataclass(frozen=True)
class SdpSolution:
    """Optimal tester, matching dual certificate, and convergence data.

    gamma_primal and gamma_dual are reported on the caller's original score
    scale (payoff_shift already subtracted); lambda_ stays on the stored
    nonnegative scale, so lambda_ == gamma_dual + payoff_shift, and
    lambda_ * comb_certificate is -A^T y on the outcome groups (solve_program).
    history holds one IpmStep per interior-point iteration, in order.
    """

    gamma_primal: float
    gamma_dual: float
    tester: Tester
    lambda_: float
    comb_certificate: QuantumComb
    gap: float
    rel_gap: float
    iterations: int
    payoff_shift: float
    certificate: CertificateReport
    feas_primal: float
    feas_dual: float
    history: tuple


def slater_point(sdp: StandardSdp) -> np.ndarray:
    """Row multipliers of a strictly feasible dual chain of scaled identities.

    Level j's rows, j = 0..N, hold -c_j on its diagonal coordinates, those of
    -c_j I (no level below the first step with an input has rows).  c_N tops
    every payoff eigenvalue, read from C, the payoffs' only
    copy, so the top level dominates with definite margin; each step down
    doubles the traced-out scale, which keeps the chain inequalities strict
    whatever the step dimensions.
    """
    problem = sdp.problem
    lam_max = max(float(np.linalg.eigvalsh(-c)[..., -1].max())
                  for c in sdp.C[sdp.outcome_groups])
    c = max(problem.g_max(), 1.5 * lam_max, 1.0)
    y = np.zeros(sdp.cmap.m)
    for j in range(sdp.num_steps, -1, -1):
        diagonal = sdp.coords[j] < sdp.level_dims[j]
        y[sdp.level_offsets[j] + np.flatnonzero(diagonal)] = -c
        if j:
            c = 2.0 * (sdp.level_dims[j] // sdp.level_dims[j - 1]) * c
    return y


def tighten_dual(sdp: StandardSdp, y: np.ndarray) -> np.ndarray:
    """Row multipliers whose chain inequalities hold as equalities.

    Level by level, the shortfall Delta_n = S^(n-1) (x) I_in - Tr_out S^(n)
    is -A^T y on the Xi^(n) groups, their dual slack (C is 0 there).  The
    level-n rows of A(Delta_n), 0 on the other groups, over d_out, are
    added to those of y, so S^(n) = -y there gains I_out / d_out (x) Delta_n.
    Deltas are PSD for a feasible dual, so each corrected level still
    dominates the original one; the first level with rows, and so lambda =
    -b.y, is unchanged.  A fixed Xi^(n) has no group and no slack.  Delta_n
    is 0 off the sectors of Xi^(n), whose labels every level's rows share
    (those of a covariant program too), so the chain holds at full size.
    """
    y = np.array(y, dtype=float)
    cmap = sdp.cmap
    for n, groups in enumerate(sdp.xi_groups, start=1):
        if not groups:  # Xi^(n) is fixed: no slack to close
            continue
        delta = [-a[None] if g in groups else np.zeros((1,) + a.shape)
                 for g, a in enumerate(cmap.apply_AT(y))]
        rows = sdp.level_rows(n)
        d_out = sdp.problem.space.steps[n - 1].out_sys.dim
        y[rows] += cmap.apply_A(delta)[rows] / d_out
    return y


def certify_dual(lambda_: float, comb: QuantumComb, problem: EstimationProblem,
                 tol: float = 1e-7) -> CertificateReport:
    """Check lambda * R >= G_est for all estimates; report per-estimate margins.

    Any pair passing this check proves that no admissible strategy can exceed
    an expected payoff of lambda on the stored scale.
    """
    if not np.isfinite(lambda_) or lambda_ < 0:
        raise BadParameter("certificate scalar must be finite and nonnegative")
    if not 0.0 <= tol < np.inf:
        raise BadParameter("tol must be finite and nonnegative, got %r" % (tol,))
    try:
        comb = validate_comb(comb, max(tol, 1e-8))
    except (NotPSD, NormalizationViolation, ShapeMismatch) as exc:
        raise InvalidComb(str(exc)) from exc
    if comb.space != problem.space:
        raise ShapeMismatch("comb space %r does not match problem space %r"
                            % (comb.space.factors(), problem.space.factors()))
    margins = [min_eig(lambda_ * comb.op.data - g)
               for g in payoff_operators(problem)]
    return CertificateReport.of(lambda_, problem, margins, tol)


# Cap on check_memory's estimate: half of an 8 GB host, a constant so no exit
# code depends on the host.  Overcommit kills oversized solves: no MemoryError.
MEMORY_CAP_BYTES = 4 << 30


def check_memory(sdp: StandardSdp, k: int) -> int:
    """The estimated peak bytes of solving sdp; DimensionCap over the cap.

    cmap.peak_bytes(), which counts C, plus three complex (K, D, D) stacks, K
    the caller's outcomes: combs, payoffs and their Hermitian part in
    build_primal; combs, tester and validation temporaries after the solve.
    """
    estimate = sdp.cmap.peak_bytes() + 3 * 16 * k * sdp.level_dims[-1] ** 2
    if estimate > MEMORY_CAP_BYTES:
        raise DimensionCap("estimated peak of %d MB exceeds the %d MB cap"
                           % (estimate >> 20, MEMORY_CAP_BYTES >> 20))
    return estimate


def solve_program(problem: EstimationProblem, opts: SolverOptions,
                  seed: Optional[tuple] = None):
    """solve short of the tester: (sdp, IpmResult, lambda, R, report).

    seed = (weights, characters) solves problem's one-outcome seed program
    instead (covariant_gamma): the comb sum_x w_x R_x / sum_x w_x, Hermitian
    part taken, the characters (diagonal_characters) joining the torus
    charges in the labels.  With y the tightened multipliers, lambda = -b.y
    (-y[0] when step 1 has an input, Tr S^(1) for a state problem) and R's
    outcome-sector blocks are -A^T y / lambda; R is checked as solve does,
    and the margins on those blocks.  The caller has validated the
    problem's combs.
    """
    k, characters = len(problem.combs), {}
    if seed is not None:
        weights, characters = seed
        r = sum(w * c.op.data for w, c in zip(weights, problem.combs))
        r = r / float(weights.sum())
        r = LabeledOperator(problem.space.factors(), (r + r.conj().T) / 2.0)
        problem = EstimationProblem(problem.space, (0,), np.ones(1),
                                    (QuantumComb(problem.space, r),), np.eye(1))
    sdp = build_primal(problem, ChargeSectors(charge_sectors(problem).charges,
                                              characters))
    check_memory(sdp, k)
    res = solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(),
                    slater_point(sdp), opts)
    y = tighten_dual(sdp, res.y)
    lambda_ = float(-np.dot(sdp.b, y))
    groups = sdp.outcome_groups
    blocks = [-a / lambda_ for a in sdp.cmap.apply_AT(y)[groups]]
    top = LabeledOperator(problem.space.factors(), sdp.outcome(blocks))
    comb = _validated(validate_comb, QuantumComb(problem.space, top),
                      10.0 * opts.tol, res)
    margins = np.inf
    for r, c in zip(blocks, sdp.C[groups]):
        margins = np.minimum(margins, min_eig(lambda_ * r + c).min(axis=-1))
    report = CertificateReport.of(lambda_, problem, margins, 10.0 * opts.tol)
    if not report.certified:
        raise NumericalFailure(
            "dual certificate margin %.3e below -%.1e"
            % (report.min_margin, report.tol),
            {"rel_gap": res.rel_gap, "iterations": res.iterations})
    return sdp, res, lambda_, comb, report


def _validated(validate, obj, tol: float, res):
    """validate(obj, tol); NumericalFailure if the converged point fails."""
    try:
        return validate(obj, tol)
    except (NotPSD, NormalizationViolation) as exc:
        raise NumericalFailure(
            "converged point failed validation: %s" % exc,
            {"rel_gap": res.rel_gap, "iterations": res.iterations}) from exc


def solve(problem: EstimationProblem,
          options: Optional[SolverOptions] = None) -> SdpSolution:
    """Optimize a tester for the problem and certify the result.

    The problem's combs are validated first (NotPSD, NormalizationViolation).
    The program runs on the charge sectors of the largest local diagonal torus
    that fixes the combs (charge_sectors).  The tester and the comb are
    validated at full size, the margins on the outcome sectors: R and every
    G_est are exactly zero off them.  Raises DimensionCap when the program's
    estimated peak memory exceeds MEMORY_CAP_BYTES (check_memory), before the
    interior-point loop allocates, and MaxIterations / NumericalFailure when
    that loop cannot reach the requested tolerance.
    """
    opts = options if options is not None else SolverOptions()
    sdp, res, lambda_, comb, report = solve_program(problem.validated(), opts)
    factors = problem.space.factors()
    X = res.X[sdp.outcome_groups]
    outcomes = [(label, LabeledOperator(factors, sdp.outcome(x)))
                for label, x in zip(problem.labels_x, zip(*X))]
    tester = _validated(validate_tester, Tester(problem.space, tuple(outcomes)),
                        report.tol, res)
    shift = problem.payoff_shift
    gamma_primal, gamma_dual = -res.pobj - shift, -res.dobj - shift
    return SdpSolution(gamma_primal, gamma_dual, tester, lambda_, comb,
                       abs(gamma_dual - gamma_primal), res.rel_gap,
                       res.iterations, shift, report,
                       res.feas_primal, res.feas_dual, res.history)


@dataclass(frozen=True)
class YklResult:
    """Minimum-error discrimination: success probability, POVM, and witness.

    The witness operator dominates every weighted state, its trace equals the
    success probability, and the slack reports how far the POVM is from
    complementary slackness with it.
    """

    p_succ: float
    povm: tuple
    witness: LabeledOperator
    slack: float
    solution: SdpSolution


def yuen_kennedy_lax(states: Sequence[LabeledOperator],
                     priors: Sequence[float],
                     options: Optional[SolverOptions] = None) -> YklResult:
    """Best success probability for discriminating the given states.

    Solves the tester program for the preparation combs with the hit-or-miss
    payoff, then reads the measurement and the dual witness off the solution.
    """
    if len(states) < 1:
        raise BadParameter("need at least one state")
    label = states[0].factors[0]
    for s in states:
        if len(s.factors) != 1 or s.factors[0] != label:
            raise ShapeMismatch("states must share a single common system")
    priors = np.asarray(priors, dtype=float)
    combs = tuple(comb_of_state(s) for s in states)
    space = combs[0].space
    n = len(states)
    problem = EstimationProblem(space, tuple(range(n)), priors, combs,
                                np.eye(n))
    sol = solve(problem, options)

    povm = [LabeledOperator((label,), t.data) for _, t in sol.tester.outcomes]
    witness = LabeledOperator((label,),
                              sol.lambda_ * sol.comb_certificate.op.data)
    resid = sum(m.data @ (witness.data - w * s.data)
                for m, w, s in zip(povm, priors, states))
    slack = float(np.linalg.norm(resid, 2))
    return YklResult(sol.gamma_primal, tuple(povm), witness, slack, sol)
