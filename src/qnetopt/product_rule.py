"""Multiplicativity of independent estimation tasks, and how it breaks.

For fully independent tasks (disjoint systems, product prior, product
nonnegative payoff) the optimal joint payoff factorizes, and the factor
certificates tensor into a joint certificate.  ``verify_product_rule`` checks
both statements numerically on concrete problems.

The two counterexample builders show each hypothesis is needed: perfectly
correlated preparations (identical copies) beat the power of the single-copy
optimum, and a correlated payoff on independent channels forces an entangled
input that no product strategy can match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadParameter, DimensionCap, NonProductPayoff
from .estimation import (EstimationProblem, expected_payoff, float_array,
                         joint_problem)
from .networks import Tester, tensor_combs, validate_tester
from .operators import DIMENSION_CAP, LabeledOperator, trace_middle
from .sdp import CertificateReport, SdpSolution, SolverOptions, certify_dual, solve
from .covariant import (two_phase_correlated, two_phase_payoff_matrix,
                        two_phase_problem)

#: Points of best_product_input_value's grid of angles over [0, pi/2].
PRODUCT_SAMPLES = 37


@dataclass(frozen=True)
class ProductRuleReport:
    """Joint optimum versus product of factor optima, with certificates."""

    gamma_joint: float
    gamma_factors: tuple
    product_of_factors: float
    relative_deviation: float
    lambdas: tuple
    joint_certificate: CertificateReport
    factor_solutions: tuple
    joint_solution: SdpSolution

    @property
    def certified(self) -> bool:
        return self.joint_certificate.certified


def _check_joint_matches(joint: EstimationProblem,
                         reference: EstimationProblem) -> None:
    if joint.labels_x != reference.labels_x:
        raise NonProductPayoff("joint labels are not the product of the factors")
    if np.max(np.abs(joint.prior - reference.prior)) > 1e-12:
        raise NonProductPayoff("joint prior is not the product of the factors")
    if np.max(np.abs(joint.payoff - reference.payoff)) > 1e-12:
        raise NonProductPayoff("joint payoff is not the product of the factors")
    if joint.space != reference.space:
        raise NonProductPayoff("joint space is not the concatenation of the factors")
    for a, b in zip(joint.combs, reference.combs):
        if np.max(np.abs(a.op.data - b.op.data)) > 1e-10:
            raise NonProductPayoff("joint combs are not tensor products of the factors")


def verify_product_rule(problems: Sequence[EstimationProblem],
                        options: Optional[SolverOptions] = None,
                        joint: Optional[EstimationProblem] = None
                        ) -> ProductRuleReport:
    """Solve factors and joint, compare, and assemble the tensor certificate.

    When `joint` is supplied it is verified to be the literal product of the
    factor problems (labels, prior, payoff, combs); anything correlated is
    rejected with NonProductPayoff rather than silently compared.
    """
    problems = list(problems)
    if not problems:
        raise BadParameter("need at least one problem")
    for p in problems:
        if p.payoff_shift != 0.0:
            raise NonProductPayoff(
                "factor payoffs carry a shift; the product form is undefined")
    reference = joint_problem(problems)
    if joint is None:
        joint = reference
    else:
        _check_joint_matches(joint, reference)

    factor_solutions = tuple(solve(p, options) for p in problems)
    joint_solution = solve(joint, options)

    gammas = tuple(s.gamma_primal for s in factor_solutions)
    product = float(np.prod(gammas))
    lambdas = tuple(s.lambda_ for s in factor_solutions)
    comb = factor_solutions[0].comb_certificate
    for s in factor_solutions[1:]:
        comb = tensor_combs(comb, s.comb_certificate)
    joint_certificate = certify_dual(float(np.prod(lambdas)), comb, joint)

    deviation = abs(joint_solution.gamma_primal - product) / (1.0 + abs(product))
    return ProductRuleReport(joint_solution.gamma_primal, gammas, product,
                             deviation, lambdas, joint_certificate,
                             factor_solutions, joint_solution)


# ---------------------------------------------------------------------------
# counterexample: perfectly correlated preparations (identical copies)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticopyReport:
    """K-copy discrimination of two pure states versus the power law."""

    copies: int
    overlap: float
    p_single: float
    p_multi: float
    p_single_power: float
    advantage: float


def _binary_pure_success(pi0: float, pi1: float, overlap_mod: float) -> float:
    """Best discrimination probability for two pure states.

    Works inside the two-dimensional span: the weighted difference has trace
    norm sqrt(1 - 4 pi0 pi1 c^2) for overlap modulus c, independent of the
    ambient dimension.
    """
    c = min(max(overlap_mod, 0.0), 1.0)
    return 0.5 * (1.0 + float(np.sqrt(max(0.0, 1.0 - 4.0 * pi0 * pi1 * c * c))))


def counterexample_multicopy(psi0: np.ndarray, psi1: np.ndarray,
                             priors: Sequence[float], copies: int
                             ) -> MulticopyReport:
    """Discriminating K identical copies beats the single-copy power.

    The K-copy pair is again a pure pair, with overlap raised to the K-th
    power, so the exact optimum follows from the two-dimensional reduction;
    no 2^K-sized operators are ever formed.
    """
    a = np.asarray(psi0, dtype=complex).reshape(-1)
    b = np.asarray(psi1, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise BadParameter("states live on different spaces")
    for v in (a, b):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise BadParameter("states must be unit vectors")
    if copies < 1:
        raise BadParameter("copies must be >= 1")
    # a dimension of 2 or more passes the cap within its bit length of
    # copies, so no power past that is formed
    if a.size ** min(copies, DIMENSION_CAP.bit_length()) > DIMENSION_CAP:
        raise DimensionCap("%d copies of a dim-%d system exceed the cap"
                           % (copies, a.size))
    p = float_array(priors, "priors")
    if p.shape != (2,) or not np.all(np.isfinite(p)) or np.any(p < 0) \
            or abs(p.sum() - 1.0) > 1e-9:
        raise BadParameter("priors must be a length-2 distribution")
    pi0, pi1 = float(p[0]), float(p[1])
    c = abs(np.vdot(a, b))
    p1 = _binary_pure_success(pi0, pi1, c)
    pk = _binary_pure_success(pi0, pi1, c ** copies)
    return MulticopyReport(copies, float(c), p1, pk, p1 ** copies,
                           pk - p1 ** copies)


# ---------------------------------------------------------------------------
# counterexample: correlated payoff on independent phase channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatedPayoffReport:
    """Joint optimum, best product strategies, and the recovered input state."""

    p: float
    d_grid: int
    gamma_joint: float
    gamma_expected: float
    product_grid_value: float
    product_tester_value: float
    bell_sq_overlap: float
    recovered_state: np.ndarray
    solution: SdpSolution


def _covariant_qubit_povm(grid: int) -> list:
    """The grid phase-covariant qubit measurement (2/M weighted projectors)."""
    povm = []
    for k in range(grid):
        v = np.array([1.0, np.exp(2j * np.pi * k / grid)]) / np.sqrt(2.0)
        povm.append((2.0 / grid) * np.outer(v, v.conj()))
    return povm


def best_product_input_value(p: float) -> float:
    """Brute-force max of the two-phase form over product inputs e (x) f.

    Real nonnegative amplitudes suffice: every term of the form pairs
    conjugate amplitude products, so phases can only lower the modulus.  The
    PRODUCT_SAMPLES-point grid over [0, pi/2] includes pi/4, where the
    maximum 1/4 sits.
    """
    q = two_phase_payoff_matrix(p)
    angles = np.linspace(0.0, np.pi / 2.0, PRODUCT_SAMPLES)
    best = -np.inf
    for alpha in angles:
        e = np.array([np.cos(alpha), np.sin(alpha)])
        for beta in angles:
            f = np.array([np.cos(beta), np.sin(beta)])
            v = np.kron(e, f)
            best = max(best, float(v @ q @ v))
    return best


def _pure_input(rho_in: np.ndarray, p: float) -> np.ndarray:
    """A pure optimal two-phase input recovered from the input state rho_in.

    The optimal face is invariant under rigid phase shifts of the input, and
    the interior-point solution sits at its center, so this first takes the
    support of rho_in and then fixes the phase gauge by the top eigenvector
    of the payoff form on that support.
    """
    vals, vecs = np.linalg.eigh((rho_in + rho_in.conj().T) / 2.0)
    keep = vals > 0.01 * vals[-1]
    support = vecs[:, keep]
    q = two_phase_payoff_matrix(p)
    qs = support.conj().T @ q @ support
    svals, svecs = np.linalg.eigh((qs + qs.conj().T) / 2.0)
    state = support @ svecs[:, -1]
    k = int(np.argmax(np.abs(state)))
    return state * (state[k].conj() / abs(state[k]))  # fix the global phase


def counterexample_correlated_payoff(p: float, d_grid: int = 8,
                                     options: Optional[SolverOptions] = None
                                     ) -> CorrelatedPayoffReport:
    """Correlated payoff on independent channels: joint beats every product.

    Solves the discretized problem, recovers a pure optimal input from the
    solution, and evaluates product strategies two ways: a brute-force scan
    of product inputs against the payoff form, and one explicit product
    tester (plus input, per-qubit phase-covariant measurements) run through
    the Born rule.
    """
    problem, _action = two_phase_problem(p, d_grid)
    sol = solve(problem, options)

    (step,) = problem.space.steps
    arrays = [t.data for _, t in sol.tester.outcomes]
    xi = trace_middle(sum(arrays[1:], arrays[0]), 1, step.out_sys.dim,
                      step.in_sys.dim) * (1.0 / step.out_sys.dim)  # Xi^(1)
    state = _pure_input(xi.conj(), p)  # tester inputs pair through the transpose
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell_sq = float(abs(np.vdot(bell, state)) ** 2)

    grid_value = best_product_input_value(p)

    povm = _covariant_qubit_povm(d_grid)
    plus = np.full((2, 2), 0.5)
    rho_prod = np.kron(plus, plus)
    factors = problem.space.factors()
    outcomes = []
    for (j, k2) in problem.labels_x:
        t = np.kron(np.kron(povm[j], povm[k2]), rho_prod)
        outcomes.append(((j, k2), LabeledOperator(factors, t)))
    tester = validate_tester(Tester(problem.space, tuple(outcomes)))
    tester_value = expected_payoff(tester, problem) - problem.payoff_shift

    return CorrelatedPayoffReport(p, d_grid, sol.gamma_primal,
                                  two_phase_correlated(p).gamma_max, grid_value,
                                  tester_value, bell_sq, state, sol)
