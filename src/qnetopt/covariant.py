"""Group-covariant problems: twirling, invariant-domination programs, phases.

For a finite group acting on the parameter set, with a payoff that only
depends on group-relative displacement and process operators forming an
orbit, the full tester optimization collapses to a much smaller question:
how large a multiple of the weighted seed operator fits under an invariant
state (or comb).  An optimal tester can be taken covariant, so that question
is the ordinary tester program with a single seed outcome T whose
normalization is imposed on twirl(T) rather than on T.  ``covariant_gamma``
solves it and returns gamma_max = gamma_0 / q_max, read off the tightened
dual, together with the invariant comb that certifies it.  It solves
through ``solve``'s own pipeline (``sdp.engine.solve_program``), so the
certificate R is validated, and R's margins checked, as ``solve`` does;
the input combs are checked once, by the orbit check.  The result's gap,
iterations and history are those of the program solved: the seed program
for a diagonal action, the caller's problem for any other.

When every representative is diagonal (phases, and products of cyclic
groups), each level of each factor carries a character, the phases that
the group elements put on it (``diagonal_characters``), and a position
carries the product of its levels' characters.  The twirl multiplies entry
(p, q) by the mean of a character, which is 0 or 1: it keeps a coordinate
iff its row and column carry the same character.  So the characters are
sector labels of the kind the direct program already takes from the torus
of the combs (``ChargeSectors``): the Xi chain and the rows of every level
take the pair (charge, character), and the seed outcome, which need not be
invariant, the charge only.  The group acts locally, so twirling the Xi
chain keeps it a chain, and the rows left out never bind; the dual's S^(N)
lives on the invariant coordinates, so it is invariant as it comes.  This
is the block-diagonalisation of de Klerk, Pasechnik and Schrijver (Math.
Program. 109, 2007) and Gatermann and Parrilo (J. Pure Appl. Algebra 192,
2004), specialised to characters.  Other actions, such as a cyclic shift,
gain nothing from the seed: its program would have the |G| outcome blocks
of the caller's, each a payoff operator over gamma_0.  They solve the
caller's problem itself and twirl its certificate.

The phase-estimation helpers cover the standard cyclic-group instances:
single-phase optima on d levels, the correlated two-phase payoff, and the
entangled-versus-product cost of estimating a sum of phases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (BadDimension, BadParameter, NotLeftInvariant,
                     ShapeMismatch)
from .estimation import EstimationProblem, problem_from_raw_payoff
from .networks import (QuantumComb, choi_of_channel,
                       comb_of_memoryless_sequence, comb_of_state,
                       validate_comb)
from .operators import LabeledOperator, SystemLabel
from .sdp.engine import solve_program
from .sdp.ipm import SolverOptions
from .sdp.ipm import solve_ipm  # noqa: F401  bench/tracer.py wraps this name
from .sdp.standard_form import ChargeSectors

HOMOMORPHISM_TOL = 1e-10
CHECK_ENTRIES = 1 << 20  # entries of a covariance check's temporaries


@dataclass
class FiniteGroupAction:
    """A finite group with a (projective) unitary action on labeled factors.

    table[i, j] is the index of elements[i] * elements[j].  rep maps a label
    id to one unitary per element; labels absent from rep are acted on
    trivially.  Each label's representatives are read once, into the
    (|G|, d, d) stack that `representatives` returns.
    """

    elements: tuple
    table: np.ndarray
    rep: Mapping

    def __post_init__(self):
        self.elements = tuple(self.elements)
        n = len(self.elements)
        self._index = {el: g for g, el in enumerate(self.elements)}
        if len(self._index) != n:
            raise BadParameter("group elements repeat: %r" % (self.elements,))
        table = np.asarray(self.table, dtype=int)
        if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
            raise BadParameter("composition table is not an %d x %d index table" % (n, n))
        for what, lines in (("row", table), ("column", table.T)):
            bad = np.flatnonzero((np.sort(lines, axis=1) != np.arange(n)).any(axis=1))
            if bad.size:
                raise BadParameter("%s %d of the composition table (element %r) "
                                   "is not a permutation"
                                   % (what, bad[0], self.elements[bad[0]]))
        self.table = table
        ident = np.flatnonzero((table == np.arange(n)).all(axis=1)
                               & (table.T == np.arange(n)).all(axis=1))
        if not ident.size:
            raise BadParameter("table has no identity element")
        self.identity_index = int(ident[0])
        self._stacks = {}
        for lid, mats in self.rep.items():
            us = []
            for el in self.elements:
                try:
                    us.append(np.asarray(mats[el], dtype=complex))
                except (KeyError, IndexError):
                    raise BadParameter("rep[%r] has no representative for element %r"
                                       % (lid, el))
            shape = us[0].shape
            for el, u in zip(self.elements, us):
                if u.shape != shape or len(shape) != 2 or shape[0] != shape[1]:
                    raise BadParameter("rep[%r][%r] has shape %r; a label's "
                                       "representatives are square and of one shape"
                                       % (lid, el, u.shape))
            d = shape[0]
            stack = np.array(us)
            adj = stack.conj().swapaxes(1, 2)
            err = np.abs(adj @ stack - np.eye(d)).max(axis=(1, 2))
            bad = np.flatnonzero(err > HOMOMORPHISM_TOL)
            if bad.size:
                raise BadParameter("rep[%r][%r] is not unitary"
                                   % (lid, self.elements[bad[0]]))
            for g in range(n):  # U_gh^H U_g U_h, for every h at once
                prod = adj[table[g]] @ (stack[g] @ stack)
                phase = np.trace(prod, axis1=1, axis2=2) / d
                err = np.abs(prod - phase[:, None, None] * np.eye(d))
                bad = np.flatnonzero((np.abs(np.abs(phase) - 1.0)
                                      > HOMOMORPHISM_TOL)
                                     | (err.max(axis=(1, 2)) > 1e-9))
                if bad.size:
                    raise BadParameter(
                        "rep[%r] is not a homomorphism up to phase at (%r, %r)"
                        % (lid, self.elements[g], self.elements[bad[0]]))
            stack.setflags(write=False)
            self._stacks[lid] = stack

    @property
    def size(self) -> int:
        return len(self.elements)

    def representatives(self, f: SystemLabel) -> Optional[np.ndarray]:
        """The (|G|, dim, dim) representatives on factor f, None if it is left alone.

        ShapeMismatch if the representatives do not fit the factor's
        dimension.
        """
        stack = self._stacks.get(f.id)
        if stack is not None and stack.shape[1:] != (f.dim, f.dim):
            raise ShapeMismatch("rep[%r] has shape %r for dim-%d factor"
                                % (f.id, stack.shape[1:], f.dim))
        return stack

    def unitary_for(self, element, factors: Sequence[SystemLabel]) -> np.ndarray:
        """Kronecker product of the per-factor representatives."""
        g = self._index[element]
        u = np.eye(1, dtype=complex)
        for f in factors:
            stack = self.representatives(f)
            u = np.kron(u, np.eye(f.dim, dtype=complex) if stack is None
                        else stack[g])
        return u


def twirl(op: LabeledOperator, action: FiniteGroupAction) -> LabeledOperator:
    """Group average of the conjugation action; idempotent, trace preserving."""
    acc = np.zeros(op.data.shape, dtype=complex)
    for element in action.elements:
        u = action.unitary_for(element, op.factors)
        acc += u @ op.data @ u.conj().T
    return op.with_data(acc / action.size)


def diagonal_characters(action: FiniteGroupAction,
                        factors: Sequence[SystemLabel]) -> Optional[dict]:
    """Per factor moved, the (dim, |G|) characters its levels carry, or None.

    Column g is diag(representatives(f)[g]); None if a representative is
    not diagonal.
    """
    characters = {}
    for f in factors:
        mats = action.representatives(f)
        if mats is not None:
            diag = np.diagonal(mats, axis1=1, axis2=2)
            if np.count_nonzero(mats) != np.count_nonzero(diag):
                return None
            characters[f.id] = diag.T
    return characters


def cyclic_group(n: int) -> Tuple[tuple, np.ndarray]:
    elements = tuple(range(n))
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return elements, table


def product_group(ea, ta, eb, tb) -> Tuple[tuple, np.ndarray]:
    """Direct product; elements are (a, b) pairs in itertools.product order.

    Pair (a, b) has index a_index * |B| + b_index, so table[(a1, b1), (a2,
    b2)] = ta[a1, a2] * |B| + tb[b1, b2].
    """
    elements = tuple(itertools.product(ea, eb))
    na, nb = len(ea), len(eb)
    table = (np.asarray(ta, dtype=int)[:, None, :, None] * nb
             + np.asarray(tb, dtype=int)[None, :, None, :])
    return elements, table.reshape(na * nb, na * nb)


# ---------------------------------------------------------------------------
# the covariant reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovariantResult:
    """Covariant optimum: gamma_max * q_max = gamma_0.

    gamma_max is a tightened dual value, an upper bound on the stored-scale
    optimum; invariant_op is the invariant comb R with gamma_max * R >= G_x
    for every x, so (gamma_max, R) certifies the full problem.  gap (the
    interior point's duality gap), iterations and history (one IpmStep per
    iteration) describe the program covariant_gamma solved: the one-outcome
    seed program for a diagonal action, the caller's problem otherwise.
    """

    gamma_max: float
    q_max: float
    gamma_0: float
    invariant_op: LabeledOperator
    gap: float
    iterations: int
    history: tuple


def qmax_state(rho0: LabeledOperator, action: FiniteGroupAction,
               options: Optional[SolverOptions] = None):
    """Largest q with q * rho0 dominated by an invariant state.

    Returns (q_max, rho) with rho the invariant optimizer: covariant_gamma
    on the discrimination of rho0's orbit under a uniform prior, whose
    gamma_0 is 1 / |G|.  For the hit-or-miss payoff with a uniform prior
    over the orbit, the best success probability is 1 / (orbit size *
    q_max).  A seed that is not a state raises NotAState (comb_of_state)
    before any program is built.
    """
    comb = comb_of_state(rho0)
    us = (action.unitary_for(el, comb.op.factors) for el in action.elements)
    combs = tuple(QuantumComb(comb.space, comb.op.with_data(
        u @ comb.op.data @ u.conj().T)) for u in us)
    n = action.size
    res = covariant_gamma(EstimationProblem(
        comb.space, action.elements, np.full(n, 1.0 / n), combs, np.eye(n)),
        action, options)
    return res.q_max, LabeledOperator(rho0.factors, res.invariant_op.data)


def covariant_gamma(problem: EstimationProblem, action: FiniteGroupAction,
                    options: Optional[SolverOptions] = None) -> CovariantResult:
    """Optimal payoff of a covariant problem, certified by an invariant comb.

    Requires parameter labels equal to the group elements, a uniform prior, a
    left-invariant payoff, and combs forming an orbit of the action; verifies
    all four and raises NotLeftInvariant / BadParameter otherwise, and
    NotPSD / NormalizationViolation if the comb at the identity is not one.
    The orbit's combs are then combs, and so is the seed, their mixture.

    For a diagonal action it solves the seed program: one outcome, the seed
    sum_x g(e, x) R_x / (|G| gamma_0), with the normalization imposed on
    twirl(T) through the characters; gamma_max = gamma_0 S^(0), and R =
    S^(N) / S^(0) is invariant as it comes.  For any other action it solves
    the problem itself: gamma_max = S^(0), and invariant_op is twirl(R).
    gamma_max R >= G_y for every y, and conjugating by U_g^H maps G_y to
    G_(g^-1 y) (the orbit and left-invariance), so averaging over g gives
    gamma_max twirl(R) >= G_y.  Either way gap, iterations and history are
    those of the program solved.
    """
    if problem.labels_x != action.elements:
        raise BadParameter("problem labels %r must equal the group elements"
                           % (problem.labels_x,))
    n = action.size
    if np.max(np.abs(problem.prior - 1.0 / n)) > 1e-9:
        raise BadParameter("covariant reduction requires a uniform prior")
    g, table = problem.payoff, action.table
    # each check takes a chunk of elements at a time, CHECK_ENTRIES entries
    width = max(1, CHECK_ENTRIES // g.size)
    for y0 in range(0, n, width):
        ys = table[y0:y0 + width]
        err = np.abs(g[ys[:, :, None], ys[:, None, :]] - g).max(axis=(1, 2))
        bad = np.flatnonzero(err > 1e-9)
        if bad.size:
            raise NotLeftInvariant("payoff changes under left translation by "
                                   "%r" % (action.elements[y0 + bad[0]],))
    # the orbit check then covers every comb: local unitaries keep a comb a comb
    validate_comb(problem.combs[action.identity_index])
    mats = [c.op.data for c in problem.combs]
    factors = problem.space.factors()
    characters = diagonal_characters(action, factors)
    if characters is None:
        stack, width = np.array(mats), 1
    else:  # the combs' joint support: off it both sides below are exactly 0
        # row g is diag(unitary_for(elements[g], factors)); one row of ones,
        # broadcast, when the action moves none of the factors
        _, phases = ChargeSectors(characters=characters).walk(factors)
        phases = np.broadcast_to(phases.T, (n, len(phases)))
        rows, cols = np.nonzero(np.logical_or.reduce([r != 0 for r in mats]))
        stack = np.array([r[rows, cols] for r in mats])
        width = max(1, CHECK_ENTRIES // stack.size)
    scale = 1.0 + float(np.abs(stack).max())
    for g0 in range(0, n, width):
        gs = np.arange(g0, min(g0 + width, n))
        if characters is None:
            u = action.unitary_for(action.elements[g0], factors)
            moved = (u @ stack @ u.conj().T)[None]
        else:  # U R U^H = R * outer(ph, conj ph), for every x at once
            ph = phases[gs]
            moved = stack * (ph[:, rows] * ph[:, cols].conj())[:, None]
        err = np.abs(moved - stack[table[gs]]).reshape(len(gs), -1).max(axis=1)
        bad = np.flatnonzero(err > 1e-8 * scale)
        if bad.size:
            raise NotLeftInvariant(
                "combs do not form an orbit of the action (element %r)"
                % (action.elements[gs[bad[0]]],))
    del stack, moved  # K D^2 entries each, not to be held through the solve

    e = action.identity_index
    weights = g[e] / n
    gamma_0 = float(weights.sum())
    if gamma_0 <= 1e-14:
        raise BadParameter("payoff row at the identity is all zero")
    opts = options if options is not None else SolverOptions()
    if characters is None:
        _, res, lambda_, comb, _ = solve_program(problem, opts)
        gamma_max, q_max = lambda_, gamma_0 / lambda_
        top = twirl(comb.op, action)
    else:
        seed = sum(w * r for w, r in zip(weights, mats)) / gamma_0
        seed = (seed + seed.conj().T) / 2.0
        seed_problem = EstimationProblem(
            problem.space, (0,), np.ones(1),
            (QuantumComb(problem.space, LabeledOperator(factors, seed)),),
            np.eye(1))
        _, res, lambda_, comb, _ = solve_program(seed_problem, opts,
                                                 characters, n)
        gamma_max, q_max = gamma_0 * lambda_, 1.0 / lambda_
        top = comb.op
    inv = LabeledOperator(factors, (top.data + top.data.conj().T) / 2.0)
    return CovariantResult(gamma_max, q_max, gamma_0, inv, res.gap,
                           res.iterations, res.history)


# ---------------------------------------------------------------------------
# cyclic phase instances
# ---------------------------------------------------------------------------


def phase_action(out_sys: SystemLabel, grid: int) -> FiniteGroupAction:
    """Cyclic phase group diag(1, w, w^2, ...) with w = exp(2 pi i / grid).

    The output factor carries the representation; every other factor, the
    input among them, is acted on trivially (phases are applied after the
    process).
    """
    elements, table = cyclic_group(grid)
    levels = np.arange(out_sys.dim)
    rep_out = {j: np.diag(np.exp(2 * np.pi * 1j * j * levels / grid))
               for j in elements}
    return FiniteGroupAction(elements, table, {out_sys.id: rep_out})


def phase_grid_problem(levels: int, grid: Optional[int] = None
                       ) -> Tuple[EstimationProblem, FiniteGroupAction]:
    """Discretized phase estimation on `levels` levels with payoff 1 + cos.

    The cyclic grid defaults to 2*levels + 2; anything at least twice the
    top level plus two reproduces the continuous optimum exactly because the
    payoff has frequency support {-1, 0, 1}.
    """
    if levels < 2:
        raise BadDimension("need at least 2 levels, got %d" % levels)
    if grid is None:
        grid = 2 * levels + 2
    if grid < 2 * levels:
        raise BadParameter("grid %d is below the alias-free minimum %d"
                           % (grid, 2 * levels))
    in_sys = SystemLabel("ph_in", levels)
    out_sys = SystemLabel("ph_out", levels)
    action = phase_action(out_sys, grid)
    combs = tuple(comb_of_memoryless_sequence(
        [choi_of_channel([u], in_sys, out_sys)])
        for u in action.representatives(out_sys))
    prior = np.full(grid, 1.0 / grid)
    payoff = 1.0 + np.cos(2 * np.pi * (np.arange(grid)[:, None]
                                       - np.arange(grid)[None, :]) / grid)
    problem = EstimationProblem(combs[0].space, action.elements, prior,
                                combs, payoff, payoff_shift=1.0)
    return problem, action


@dataclass(frozen=True)
class PhaseOptimum:
    """Best expected cos(error) and minimal cost 2(1 - cos) on d levels.

    quoted_value carries the frequently quoted closed form 4 sin^2(pi/(2d));
    it agrees with c_min only asymptotically (the exact value is
    4 sin^2(pi / (2(d+1)))), so it is reported and flagged, never asserted.
    """

    levels: int
    cos_max: float
    c_min: float
    coefficients: np.ndarray
    quoted_value: float
    quoted_matches: bool


def phase_estimation_optimum(levels: int) -> PhaseOptimum:
    """Oracle optimum: top of the tridiagonal matrix with 1/2 off-diagonal."""
    if levels < 2:
        raise BadDimension("need at least 2 levels, got %d" % levels)
    vals, vecs = eigh_tridiagonal(np.zeros(levels), np.full(levels - 1, 0.5),
                                  select="i",
                                  select_range=(levels - 1, levels - 1))
    cos_max = float(vals[0])
    e = vecs[:, 0]
    if e.sum() < 0:
        e = -e
    c_min = 2.0 * (1.0 - cos_max)
    quoted = float(4.0 * np.sin(np.pi / (2 * levels)) ** 2)
    return PhaseOptimum(levels, cos_max, c_min, e, quoted,
                        abs(quoted - c_min) <= 1e-9)


@dataclass(frozen=True)
class TwoPhaseOptimum:
    """Best payoff for the correlated two-phase score and its input state."""

    p: float
    gamma_max: float
    state: np.ndarray  # amplitudes on |00>, |01>, |10>, |11>
    degenerate: bool


def two_phase_correlated(p: float) -> TwoPhaseOptimum:
    """Closed-form optimum max{p, 1-p}/2 of the correlated two-phase payoff.

    The optimizer is the even Bell state for p > 1/2 and the odd one for
    p < 1/2; at p = 1/2 the optimum is degenerate and a product state does
    as well, so that representative is returned with the degenerate flag.
    """
    if not 0.0 <= p <= 1.0:
        raise BadParameter("p must lie in [0, 1], got %r" % (p,))
    gamma = max(p, 1.0 - p) / 2.0
    if p > 0.5:
        state = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        degenerate = False
    elif p < 0.5:
        state = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        degenerate = False
    else:
        state = np.full(4, 0.5)
        degenerate = True
    return TwoPhaseOptimum(p, gamma, state, degenerate)


def two_phase_payoff_matrix(p: float) -> np.ndarray:
    """The 4x4 quadratic form whose top eigenvalue is the two-phase optimum."""
    g = np.zeros((4, 4))
    g[0, 3] = g[3, 0] = p / 2.0
    g[1, 2] = g[2, 1] = (1.0 - p) / 2.0
    return g


def two_phase_problem(p: float, d_grid: int = 8
                      ) -> Tuple[EstimationProblem, FiniteGroupAction]:
    """Two independent phase channels scored by the correlated cos payoff.

    Parameters are pairs (j, k) on a Z_d_grid x Z_d_grid grid; the stored
    payoff is 1 + p cos(da + db) + (1 - p) cos(da - db) with the unit shift
    recorded, so solver outputs land back on the +/- cos scale.
    """
    if not 0.0 <= p <= 1.0:
        raise BadParameter("p must lie in [0, 1], got %r" % (p,))
    if d_grid < 4:
        raise BadParameter("phase grid must have at least 4 points")
    in_sys = SystemLabel("tp_in", 4)
    out_sys = SystemLabel("tp_out", 4)
    angles = 2 * np.pi * np.arange(d_grid) / d_grid
    ea, ta = cyclic_group(d_grid)
    elements, table = product_group(ea, ta, ea, ta)
    rep_out = {(j, k): np.kron(np.diag([1.0, np.exp(1j * angles[j])]),
                               np.diag([1.0, np.exp(1j * angles[k])]))
               for j, k in elements}
    action = FiniteGroupAction(elements, table, {out_sys.id: rep_out})
    combs = tuple(comb_of_memoryless_sequence(
        [choi_of_channel([u], in_sys, out_sys)])
        for u in action.representatives(out_sys))
    n = d_grid * d_grid
    j, k = np.divmod(np.arange(n), d_grid)  # element (j, k) has index j d + k
    da = angles[(j[:, None] - j) % d_grid]
    db = angles[(k[:, None] - k) % d_grid]
    raw = p * np.cos(da + db) + (1.0 - p) * np.cos(da - db)
    problem = problem_from_raw_payoff(combs[0].space, elements,
                                      np.full(n, 1.0 / n), combs, raw)
    return problem, action


@dataclass(frozen=True)
class SumOfPhases:
    """Cost of estimating a sum of independent phases: joint vs per-system."""

    levels: int
    copies: int
    c_entangled: float
    c_product: float
    ratio: float


def sum_of_phases(levels: int, copies: int) -> SumOfPhases:
    """Entangled versus product cost for the sum of `copies` phases.

    A joint probe confined to the equal-level subspace sees the sum as a
    single phase, so its cost is the one-system optimum, independent of K.
    Independent probes compound: the expected cosine of a sum of independent
    symmetric errors is the product of the individual expected cosines.
    """
    if copies < 1:
        raise BadParameter("copies must be >= 1, got %d" % copies)
    single = phase_estimation_optimum(levels)
    c_ent = single.c_min
    lam = single.cos_max
    c_prod = 2.0 * (1.0 - lam ** copies)
    return SumOfPhases(levels, copies, c_ent, c_prod, c_prod / c_ent)
