"""End-to-end solution of tester optimization problems.

``solve`` builds the standard-form program, runs the interior-point core on
its Hermitian blocks, wraps the result as labeled operators, and returns a
validated tester together with a scalar-times-comb certificate: a pair
(lambda, R) with R a valid comb and lambda * R dominating every payoff
operator, which upper-bounds the payoff of *every* admissible strategy.

The certificate is read off the row multipliers y through the program's own
A and A^T.  The rows are written on the outcome sum alone (standard_form),
and range(A^T) is the span of the combs, so -A^T y on the outcome groups
is lambda R for a comb R and lambda = -b.y, with no correction of y: R's
normalization is exact by construction, and its positivity is the dual
slack's.  R is still validated at full size.

A diagonal orbit, R_x = U_x R_e U_x^H for local diagonal U_x, takes one
seed path, solve_program's, whether solve finds it (diagonal_orbit) or
covariant_gamma is given it, and lambda R >= G_y is checked on every
caller outcome y.  solve lifts the seed outcome to every label
(_orbit_solution); SdpSolution.route names the program run.
covariant_gamma's other branch twirls R, on the twirl argument alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import (BadParameter, DimensionCap, InvalidComb, MaxIterations,
                      NormalizationViolation, NotPSD, NumericalFailure,
                      ShapeMismatch)
from ..estimation import EstimationProblem, payoff_operators
from ..networks import (QuantumComb, Tester, comb_of_state, validate_comb,
                        validate_tester)
from ..operators import LabeledOperator, batches, min_eig
from .ipm import SolverOptions, solve_ipm
from .standard_form import (ChargeSectors, StandardSdp, build_primal,
                            charge_sectors, diagonal_orbit)


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
    history holds one IpmStep per interior-point iteration, in order, of
    the program solved.  route is "direct" for the caller's K-outcome
    program and "orbit" for the seed program of a diagonal orbit (solve).
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
    route: str


def slater_point(sdp: StandardSdp) -> np.ndarray:
    """Row multipliers of a strictly feasible dual: -A^T y = c I exactly.

    Level j's rows, j = 0..N, hold -c prod_(k>j) d_out(k) on its diagonal
    coordinates and 0 elsewhere (no level below the first step with an
    input has rows).  A level-j diagonal row reads the projector P_j onto
    the level's position with every later output at 0 less the same
    position with out(j) at 0, so the sum telescopes to c times the
    identity: c I is lambda times the comb I / prod_k d_out(k).  c tops
    every payoff eigenvalue, read from C, the payoffs' only copy, so the
    dual slack c I - G_est is definite.
    """
    problem = sdp.problem
    lam_max = max(float(np.linalg.eigvalsh(-c)[..., -1].max()) for c in sdp.C)
    c = max(problem.g_max(), 1.5 * lam_max, 1.0)
    y = np.zeros(sdp.cmap.m)
    for j, coords in enumerate(sdp.coords):
        outs = [step.out_sys.dim for step in problem.space.steps[j:]]
        y[sdp.level_rows(j)][coords < sdp.level_dims[j]] = \
            -c * float(np.prod(outs))
    return y


def tighten_dual(y: np.ndarray) -> np.ndarray:
    """The row multipliers as they are: y itself.

    The chain is exact for every y (standard_form: range(A^T) is the span
    of the combs), so there is nothing to tighten.  The name stays only as
    the target of the benchmark tracer's engine.tighten span.
    """
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
    r, G = lambda_ * comb.op.data, payoff_operators(problem)
    margins = np.concatenate([min_eig(r - G[part])
                              for part in batches(len(G), r.nbytes)])
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
                  orbit: Optional[tuple] = None,
                  torus: Optional[ChargeSectors] = None):
    """solve short of the tester: (sdp, IpmResult, primal, lambda, R, report).

    torus is the caller's (charge_sectors), found when None.  orbit =
    (characters, phases, e), column x of the (D, K) phases diag(U_x) (one
    column of ones serves every x) and e the identity's index, solves the
    seed program instead: one outcome, the comb sum_x w_x R_x / gamma_0, w
    = g(e, .) / K, gamma_0 = sum_x w_x.  lambda = -b.y (-y[0] when step 1
    has an input), times gamma_0 on an orbit, and R's outcome-sector blocks
    are -A^T y / -b.y, a comb as they come; R is checked as solve does.  One
    margin of lambda R - G_y a caller outcome y is taken on the outcome
    sectors, off which R and every G_y vanish: on an orbit G_y is summed
    from the combs, so lambda R >= G_y is checked, not argued.  primal is
    -pobj, or on an orbit the lifted tester's payoff, T_y = U_y T U_y^H /
    K.  The caller has validated the problem's combs.
    """
    k, program, characters = problem.num_params, problem, {}
    if torus is None:
        torus = charge_sectors(problem)
    if orbit is not None:
        characters, phases, e = orbit
        phases = np.broadcast_to(phases, (len(phases), k))
        weights = problem.payoff[e] / k
        gamma_0 = float(weights.sum())
        seed = sum(w * c.op.data for w, c in zip(weights, problem.combs))
        seed = seed / gamma_0
        seed = QuantumComb(problem.space, LabeledOperator(
            problem.space.factors(), (seed + seed.conj().T) / 2.0))
        program = EstimationProblem(problem.space, (0,), np.ones(1), (seed,),
                                    np.eye(1))
    sdp = build_primal(program, ChargeSectors(torus.charges, characters))
    check_memory(sdp, k)
    res = solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(),
                    slater_point(sdp), opts)
    y = tighten_dual(res.y)
    lambda_ = float(-np.dot(sdp.b, y))
    blocks = [-a / lambda_ for a in sdp.cmap.apply_AT(y)]
    top = LabeledOperator(problem.space.factors(), sdp.outcome(blocks))
    comb = _validated(validate_comb, QuantumComb(problem.space, top),
                      10.0 * opts.tol, res)
    primal, margins, side = -res.pobj, np.inf, sdp.level_dims[-1]
    if orbit is not None:
        lambda_, primal = gamma_0 * lambda_, 0.0
        w = problem.payoff * problem.prior
    for pos, r, cost, x in zip(sdp.positions, blocks, sdp.C, res.X):
        g = -cost
        if orbit is not None:  # G_y, and the payoff of T_y, on the sectors
            at = pos[:, :, None] * side + pos[:, None, :]
            g = np.tensordot(w, [c.op.data.take(at) for c in problem.combs],
                             1)
            g = (g + g.conj().swapaxes(-1, -2)) / 2.0
            ph = np.moveaxis(phases[pos], -1, 0)  # (K, s, n)
            t = ph[..., :, None] * x[0] * ph[..., None, :].conj()
            primal += float(np.vdot(g, t).real) / k
        margins = np.minimum(margins, min_eig(lambda_ * r - g).min(axis=-1))
    report = CertificateReport.of(lambda_, problem, margins, 10.0 * opts.tol)
    _check_certified(report, res)
    return sdp, res, primal, lambda_, comb, report


def _check_certified(report: CertificateReport, res):
    if not report.certified:
        raise NumericalFailure(
            "dual certificate margin %.3e below -%.1e"
            % (report.min_margin, report.tol),
            {"rel_gap": res.rel_gap, "iterations": res.iterations})


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
    that fixes the combs (charge_sectors).  When the combs are an orbit of
    a group of local diagonal unitaries, with a uniform prior and a
    left-invariant payoff (diagonal_orbit), solve takes the orbit route: it
    solves the one-outcome seed program and lifts its outcome to every label
    (_orbit_solution); a route that fails any check falls back to the
    direct program, the caller's K outcomes.  The tester and the comb are
    validated at full size, the margins on the outcome sectors: R and every
    G_est are exactly zero off them.  Raises DimensionCap when the program's
    estimated peak memory exceeds MEMORY_CAP_BYTES (check_memory), before the
    interior-point loop allocates, and MaxIterations / NumericalFailure when
    that loop cannot reach the requested tolerance.
    """
    opts = options if options is not None else SolverOptions()
    torus = charge_sectors(problem.validated())
    orbit = diagonal_orbit(problem, torus)
    if orbit is not None:
        try:
            return _orbit_solution(problem, opts, torus, orbit)
        except (MaxIterations, NumericalFailure):
            pass  # the direct program decides
    sdp, res, primal, lambda_, comb, report = solve_program(problem, opts,
                                                            torus=torus)
    return _solution(problem, (sdp.outcome(x) for x in zip(*res.X)), res,
                     primal, lambda_, comb, report, "direct")


def _solution(problem: EstimationProblem, outcomes, res, primal: float,
              lambda_: float, comb: QuantumComb, report: CertificateReport,
              route: str) -> SdpSolution:
    """The SdpSolution of the full-size outcomes, their tester validated.

    outcomes yields one array a label, each copied into the tester before
    the next is made.  primal and lambda_ are the primal and dual values on
    the stored scale (solve_program).
    """
    factors = problem.space.factors()
    tester = _validated(validate_tester, Tester(problem.space, tuple(
        (label, LabeledOperator(factors, t))
        for label, t in zip(problem.labels_x, outcomes))), report.tol, res)
    shift = problem.payoff_shift
    gamma_primal, gamma_dual = primal - shift, lambda_ - shift
    return SdpSolution(gamma_primal, gamma_dual, tester, lambda_, comb,
                       abs(gamma_dual - gamma_primal), res.rel_gap,
                       res.iterations, shift, report,
                       res.feas_primal, res.feas_dual, res.history, route)


def _orbit_solution(problem: EstimationProblem, opts: SolverOptions,
                    torus: ChargeSectors, orbit: tuple) -> SdpSolution:
    """solve on a diagonal orbit (diagonal_orbit), from the seed program.

    solve_program solves the seed program at e = 0 and checks lambda R >=
    G_y for every y; the tester is the covariant T_y = U_y T U_y^H / K, a
    phase mask on the seed outcome T.  The bracket [primal, lambda] must
    pass the interior point's test, or NumericalFailure; rel_gap,
    iterations and history are the seed program's.
    """
    characters, phases = orbit
    sdp, res, primal, lambda_, comb, report = solve_program(
        problem, opts, (characters, phases, 0), torus)
    gap = abs(lambda_ - primal)
    if not gap <= opts.tol * (1.0 + abs(primal) + abs(lambda_)):
        raise NumericalFailure("lifted gap %.3e above the tolerance" % gap)
    top = sdp.outcome([x[0] for x in res.X]) / problem.num_params
    return _solution(problem, (top * np.outer(ph, ph.conj()) for ph in phases.T),
                     res, primal, lambda_, comb, report, "orbit")


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
