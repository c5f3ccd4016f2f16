"""Shared fixtures, instance builders, test-only helpers, and the acceptance
summary hook."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import strategies as st

from qnetopt import serde
from qnetopt.covariant import (FiniteGroupAction, cyclic_group,
                               diagonal_characters, phase_grid_problem)
from qnetopt.errors import NormalizationViolation, NotPSD, ParseError
from qnetopt.estimation import EstimationProblem, payoff_operators
from qnetopt.instances import (random_channel_problem, random_density,
                               random_memory_comb, random_state_problem,
                               random_unitary)
from qnetopt.networks import (CombSpace, QuantumComb, Tester, choi_of_channel,
                              comb_of_memoryless_sequence, comb_of_state,
                              validate_comb, validate_tester)
from qnetopt.operators import (LabeledOperator, SystemLabel, min_eig,
                               partial_trace, permute_systems, tensor)
from qnetopt.sdp.ipm import _float_positions, basis_kernel
from qnetopt.sdp.standard_form import (ChargeSectors, build_primal,
                                       charge_sectors)

# one line per acceptance criterion, printed at the end of the run
ACCEPTANCE_LOG = []


def record_acceptance(number: int, label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    line = "criterion %d [%s] %s" % (number, mark, label)
    if detail:
        line += "  (%s)" % detail
    ACCEPTANCE_LOG.append((number, line))
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LOG):
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


# hypothesis strategies draw a seed and build instances through numpy's
# Generator, so shrinking works on a single integer
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def state_problems(draw, max_states=4, max_dim=4):
    g = np.random.default_rng(draw(seeds))
    n = draw(st.integers(2, max_states))
    d = draw(st.integers(2, max_dim))
    delta = draw(st.booleans())
    return random_state_problem(g, n, d, delta=delta)


@st.composite
def comb_spaces(draw, max_steps=2, max_dim=3, prefix="h"):
    n = draw(st.integers(1, max_steps))
    steps = []
    for k in range(n):
        d_in = draw(st.integers(1, max_dim))
        d_out = draw(st.integers(2, max_dim))
        steps.append((SystemLabel("%si%d" % (prefix, k), d_in),
                      SystemLabel("%so%d" % (prefix, k), d_out)))
    return CombSpace(tuple(steps))


@st.composite
def memory_combs(draw, prefix="h"):
    space = draw(comb_spaces(prefix=prefix))
    g = np.random.default_rng(draw(seeds))
    return random_memory_comb(g, space)


# ---------------------------------------------------------------------------
# helpers only the tests call
# ---------------------------------------------------------------------------


def coords_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Re<B_a, h>: (..., n, n) -> (..., n^2); the Hermitian part's coordinates."""
    n = h.shape[-1]
    i, j, w, v = _float_positions(n)
    f = np.ascontiguousarray(h, dtype=complex).reshape(
        h.shape[:-2] + (n * n,)).view(float)
    return w * f.take(i, axis=-1) + v * f.take(j, axis=-1)


def hermitian_from_coords(coords: np.ndarray, n: int) -> np.ndarray:
    """sum_a coords[..., a] B_a: (..., n^2) -> (..., n, n)."""
    i, j, w, v = _float_positions(n)
    coords = np.asarray(coords, dtype=float)
    f = np.zeros(coords.shape[:-1] + (2 * n * n,))
    f[..., i] = w * coords
    f[..., j] += v * coords  # the diagonal's two halves add up to one
    return f.view(complex).reshape(coords.shape[:-1] + (n, n))


# the dual chain: the scalar S^(0), and S^(1)..S^(N) as labeled operators on
# the step prefixes
DualChain = namedtuple("DualChain", "s0 operators")


def first_level(sdp) -> int:
    """The level of the first step with an input: the lowest with rows."""
    return next(j for j, c in enumerate(sdp.coords) if len(c))


def dual_from_y(sdp, y: np.ndarray) -> DualChain:
    """The dual chain at full size from the row multipliers, level by level.

    A route apart from the program's A^T, for the tests' partial-trace
    checks.  Level j's rows read M_j - I_out(j) (x) <0|M_j|0>, the (0, 0)
    block on out(j), and the first level with rows reads M_first itself;
    M_(j-1) is Tr_in(j) <0|M_j|0>, and M_N the outcomes' sum.  So S^(N), the
    negated adjoint at y, is the sum over the levels of Y_j - |0><0| (x)
    Tr_out(j) Y_j (Y_first alone), with Y_j minus level j's rows on its
    coordinates, each lifted to level N by |0><0|_out (x) I_in a step.
    S^(j-1) is Tr_out(j),in(j) S^(j) / d_in(j), and S^(0) is lambda = -b.y.
    """
    space = sdp.problem.space
    first = first_level(sdp)
    top = None
    for j in range(first, sdp.num_steps + 1):
        d = sdp.level_dims[j]
        coords = np.zeros(d * d)
        coords[sdp.coords[j]] = -y[sdp.level_rows(j)]
        level = LabeledOperator(space.prefix_factors(j),
                                hermitian_from_coords(coords, d))
        if j > first:
            out, inp = space.steps[j - 1].out_sys, space.steps[j - 1].in_sys
            traced = partial_trace(level, [out.id])
            lifted = np.kron(top.data, np.kron(out_zero(out).data,
                                                np.eye(inp.dim)))
            level = level.with_data(
                level.data - embed(traced, out_zero(out), 2 * (j - 1)).data
                + lifted)
        top = level
    ops = [top]
    for step in space.steps[:0:-1]:
        reduced = partial_trace(ops[0], [step.out_sys.id, step.in_sys.id])
        ops.insert(0, reduced.with_data(reduced.data / step.in_sys.dim))
    return DualChain(float(-np.dot(sdp.b, y)), tuple(ops))


def identity(label: SystemLabel) -> LabeledOperator:
    return LabeledOperator((label,), np.eye(label.dim))


def identity_on(factors) -> LabeledOperator:
    factors = tuple(factors)
    return LabeledOperator(factors, np.eye(int(np.prod([f.dim for f in factors]))))


def out_zero(label: SystemLabel) -> LabeledOperator:
    """|0><0| on one factor."""
    e = np.zeros((label.dim, label.dim))
    e[0, 0] = 1.0
    return LabeledOperator((label,), e)


def embed(a: LabeledOperator, b: LabeledOperator,
          position: int) -> LabeledOperator:
    """Tensor the one-factor b into the stated factor position of a."""
    order = list(a.label_ids())
    order.insert(position, b.factors[0].id)
    return permute_systems(tensor(a, b), order)


def embed_identity(a: LabeledOperator, new: SystemLabel,
                   position: int) -> LabeledOperator:
    """Tensor an identity on `new` into the stated factor position."""
    return embed(a, identity(new), position)


def uniform_tester(space: CombSpace, outcome_ids) -> Tester:
    """The maximally uninformative tester: equal PSD share of a mixed chain.

    Every outcome operator equals I / (|M| * prod in_dims); the chain consists
    of maximally mixed operators and every normalization holds with equality.
    """
    c = 1.0 / (len(outcome_ids)
               * int(np.prod([s.in_sys.dim for s in space.steps])))
    op = identity_on(space.factors())
    op = op.with_data(op.data * c)
    return Tester(space, tuple((m, op) for m in outcome_ids))


def mixed_comb(space) -> QuantumComb:
    """The maximally mixed valid comb: identity over the product of out dims."""
    d_out_total = int(np.prod([s.out_sys.dim for s in space.steps],
                              dtype=np.int64))
    op = identity_on(space.factors())
    op = op.with_data(op.data * (1.0 / d_out_total))
    return validate_comb(QuantumComb(space, op))


def is_psd(a: LabeledOperator, tol: float = 1e-8) -> bool:
    """True iff the smallest eigenvalue is >= -tol * max(1, max-entry norm)."""
    scale = max(1.0, float(np.max(np.abs(a.data))) if a.data.size else 1.0)
    return min_eig(a.data) >= -tol * scale


def hs_inner(a: LabeledOperator, b: LabeledOperator) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dagger b] on one factor structure."""
    assert a.factors == b.factors, (a.label_ids(), b.label_ids())
    return complex(np.vdot(a.data, b.data))


def operator_to_json(op: LabeledOperator) -> dict:
    return {"factors": [{"id": f.id, "dim": f.dim} for f in op.factors],
            "matrix": serde.complex_to_json(op.data)}


def operator_from_json(doc) -> LabeledOperator:
    try:
        factors = tuple(SystemLabel(str(f["id"]), int(f["dim"]))
                        for f in doc["factors"])
        data = serde.complex_from_json(doc["matrix"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError("bad operator payload: %s" % e)
    return LabeledOperator(factors, data)


def act(action: FiniteGroupAction, element, op: LabeledOperator):
    """U_g op U_g^H for the group element's unitary on op's factors."""
    u = action.unitary_for(element, op.factors)
    return op.with_data(u @ op.data @ u.conj().T)


def is_invariant(op: LabeledOperator, action: FiniteGroupAction,
                 tol: float = 1e-10) -> bool:
    scale = 1.0 + float(np.max(np.abs(op.data)))
    return all(np.max(np.abs(act(action, el, op).data - op.data)) <= tol * scale
               for el in action.elements)


def sequential_phase_problem(steps, grid=8):
    """steps sequential uses of diag(1, w^j) on a grid, payoff 1 + cos.

    steps uses of a qubit phase gate reach steps + 1 phase levels, so the
    grid must have at least 2 steps + 2 points to carry the continuous
    optimum.
    """
    systems = [(SystemLabel("i%d" % s, 2), SystemLabel("o%d" % s, 2))
               for s in range(1, steps + 1)]
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
    return problem, FiniteGroupAction(elements, table,
                                      {o.id: rep for _, o in systems})


def rotated_phase_grid(levels):
    """The phase grid with every channel conjugated by one seeded unitary V.

    The channels are V diag(w^jk) V^H and the action V diag V^H on the
    output, which is not diagonal; the optimum is the plain grid's.
    """
    problem, action = phase_grid_problem(levels)
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
                                      {step.out_sys.id: rep})


def qubit_state_problem(tag, vectors, priors, payoff=None):
    lab = SystemLabel(tag, len(vectors[0]))
    combs = tuple(comb_of_state(LabeledOperator((lab,), np.outer(v, v.conj())))
                  for v in vectors)
    if payoff is None:
        payoff = np.eye(len(vectors))
    return EstimationProblem(combs[0].space, tuple(range(len(vectors))),
                             np.asarray(priors, float), combs, np.asarray(payoff))


def helstrom_problem(tag="hel"):
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return qubit_state_problem(tag, [np.array([1.0, 0.0]), plus], [0.5, 0.5])


HELSTROM_VALUE = 0.5 * (1.0 + np.sqrt(2.0) / 2.0)  # 0.8535533905932737


def twirl_coordinates(action: FiniteGroupAction, factors) -> np.ndarray:
    """The twirl in Hermitian-basis coordinates: P[a, c] = Re<B_a, twirl(B_c)>.

    P = (1/|G|) sum_g Re Tr(B_a U_g B_c U_g^H), the basis kernel of the stack
    of U_g; it is a symmetric projector because the twirl is a self-adjoint
    idempotent.  The reference that the invariant coordinates are checked
    against.
    """
    us = np.stack([action.unitary_for(el, factors) for el in action.elements])
    return basis_kernel(us[:, None])[0] / action.size


def selected_phase_program(levels=3, grid=8):
    """The covariant program of a phase grid, and the group action.

    One seed outcome, on the sectors of its torus and the action's
    characters, as covariant_gamma builds it.
    """
    problem, action = phase_grid_problem(levels, grid)
    space = problem.space
    reduced = EstimationProblem(space, (0,), np.ones(1), (problem.combs[0],),
                                np.ones((1, 1)))
    sectors = ChargeSectors(charge_sectors(reduced).charges,
                            diagonal_characters(action, space.factors()))
    return build_primal(reduced, sectors), action


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> list:
    """Random informationally unstructured POVM via S^(-1/2) conjugation."""
    raws = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(g @ g.conj().T)
    s = np.sum(raws, axis=0)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in raws]


def random_product_tester(rng: np.random.Generator, space: CombSpace,
                          n_outcomes: int) -> Tester:
    """Random causal tester without memory: fresh input states per step and
    one POVM measuring all outputs jointly."""
    d_out = int(np.prod([s.out_sys.dim for s in space.steps],
                        dtype=np.int64))
    povm = random_povm(rng, d_out, n_outcomes)
    in_part = np.array([[1.0]])
    for step in space.steps:
        in_part = np.kron(in_part, random_density(rng, step.in_sys.dim).T)
    factors = tuple(s.out_sys for s in space.steps) + \
        tuple(s.in_sys for s in space.steps)
    outcomes = tuple((str(m), LabeledOperator(factors, np.kron(p, in_part)))
                     for m, p in enumerate(povm))
    return validate_tester(Tester(space, outcomes))


def random_product_pair(rng: np.random.Generator) -> tuple:
    """Two independent problems on disjoint systems, for product-rule runs."""
    a = random_state_problem(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                             delta=bool(rng.uniform() < 0.7))
    if rng.uniform() < 0.3:
        b = random_channel_problem(rng, 2, [(2, 2)], delta=True)
    else:
        b = random_state_problem(rng, int(rng.integers(2, 4)),
                                 int(rng.integers(2, 4)),
                                 delta=bool(rng.uniform() < 0.7))
    return a, b


# ---------------------------------------------------------------------------
# the normalization recursions written with labeled operators: partial_trace
# and embed_identity level by level, a reference for the array walk of
# validate_comb and validate_tester
# ---------------------------------------------------------------------------


def reference_validate_comb(comb: QuantumComb, tol: float = 1e-8):
    """validate_comb's checks, in its order, with its levels and residuals."""
    if not is_psd(comb.op, tol):
        raise NotPSD("comb operator")
    current = comb.op
    for n in range(comb.space.num_steps, 0, -1):
        step = comb.space.steps[n - 1]
        traced = partial_trace(current, [step.out_sys.id])
        reduced = partial_trace(traced, [step.in_sys.id])
        reduced = reduced.with_data(reduced.data * (1.0 / step.in_sys.dim))
        expected = embed_identity(reduced, step.in_sys,
                                  traced.label_ids().index(step.in_sys.id))
        residual = float(np.max(np.abs(traced.data - expected.data)))
        if residual > tol:
            raise NormalizationViolation(n, residual)
        current = reduced
    miss = abs(complex(current.data[0, 0]) - 1.0)
    if miss > tol:
        raise NormalizationViolation(0, miss)


def reference_validate_tester(tester: Tester, tol: float = 1e-8) -> list:
    """validate_tester's checks; the chain Xi^(N), ..., Xi^(1)."""
    steps = tester.space.steps
    for m, op in tester.outcomes:
        if not is_psd(op, tol):
            raise NotPSD("outcome %r" % (m,))
    total = tester.outcomes[0][1].with_data(
        sum(op.data for _, op in tester.outcomes))
    last = steps[-1]
    xi = partial_trace(total, [last.out_sys.id])
    xi = xi.with_data(xi.data * (1.0 / last.out_sys.dim))
    expected = embed_identity(xi, last.out_sys,
                              total.label_ids().index(last.out_sys.id))
    residual = float(np.max(np.abs(total.data - expected.data)))
    if residual > tol:
        raise NormalizationViolation(len(steps) + 1, residual)
    chain = [xi]
    for n in range(len(steps), 1, -1):
        prev_out = steps[n - 2].out_sys
        traced = partial_trace(xi, [steps[n - 1].in_sys.id])
        xi = partial_trace(traced, [prev_out.id])
        xi = xi.with_data(xi.data * (1.0 / prev_out.dim))
        expected = embed_identity(xi, prev_out,
                                  traced.label_ids().index(prev_out.id))
        residual = float(np.max(np.abs(traced.data - expected.data)))
        if residual > tol:
            raise NormalizationViolation(n - 1, residual)
        chain.append(xi)
    final = float(np.abs(np.trace(xi.data) - 1.0))
    if final > tol:
        raise NormalizationViolation(0, final)
    return chain


# ---------------------------------------------------------------------------
# the tester program's constraints and dual inequalities, computed with
# explicit partial traces: a second route, independent of the coefficient
# tensors the solver assembles
# ---------------------------------------------------------------------------


def chain_residuals(problem, dual):
    """M_j = S^(j-1) (x) I_in(j) - Tr_out(j)[S^(j)] on the Xi^(j) factors."""
    out = []
    for j, step in enumerate(problem.space.steps, start=1):
        traced = partial_trace(dual.operators[j - 1], [step.out_sys.id])
        if j == 1:
            grown = identity(step.in_sys).data * dual.s0
        else:
            grown = tensor(dual.operators[j - 2], identity(step.in_sys)).data
        out.append(traced.with_data(grown - traced.data))
    return out


def outcome_residuals(problem, dual):
    """M_est = S^(N) - G_est on the full comb factors."""
    top = dual.operators[-1]
    return [top.with_data(top.data - g) for g in payoff_operators(problem)]


def structural_row_values(sdp, t_ops):
    """Constraint row values of labeled outcome operators.

    M_N is their sum and M_(j-1) = Tr_in(j) <0|M_j|0>, the (0, 0) block on
    out(j).  Level j's rows read M_j - I_out(j) (x) <0|M_j|0> on their
    coordinates, and the first level with rows reads M_first itself, whose
    right-hand side b is the identity.
    """
    steps = sdp.problem.space.steps
    first = first_level(sdp)
    vals = np.zeros(sdp.cmap.m)
    level = t_ops[0].with_data(sum(t.data for t in t_ops))
    for j in range(len(steps), first - 1, -1):
        read = level
        if j > first:
            out, inp = steps[j - 1].out_sys, steps[j - 1].in_sys
            rest = identity_on(f for f in level.factors if f != out)
            project = embed(rest, out_zero(out), 2 * (j - 1))
            block = partial_trace(level.with_data(project.data @ level.data),
                                  [out.id])
            read = level.with_data(
                level.data - embed_identity(block, out, 2 * (j - 1)).data)
            level = partial_trace(block, [inp.id])
        vals[sdp.level_rows(j)] = coords_from_hermitian(read.data)[sdp.coords[j]]
    return vals
