"""Shared fixtures, instance builders, test-only helpers, and the acceptance
summary hook."""

import numpy as np
import pytest
from hypothesis import strategies as st

from qnetopt import serde
from qnetopt.covariant import (FiniteGroupAction, cyclic_group,
                               diagonal_phases, kept_coordinates,
                               phase_grid_problem, twirl_coordinates,
                               twirl_mask)
from qnetopt.errors import ParseError
from qnetopt.estimation import EstimationProblem, payoff_operators
from qnetopt.instances import random_memory_comb, random_state_problem
from qnetopt.networks import (CombSpace, QuantumComb, choi_of_channel,
                              comb_of_memoryless_sequence, comb_of_state,
                              validate_comb)
from qnetopt.operators import (HERM_TOL, LabeledOperator, SystemLabel,
                               embed_identity, identity, identity_on,
                               partial_trace, require_hermitian, tensor)
from qnetopt.sdp.ipm import coords_from_hermitian
from qnetopt.sdp.standard_form import build_primal

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


def mixed_comb(space) -> QuantumComb:
    """The maximally mixed valid comb: identity over the product of out dims."""
    d_out_total = int(np.prod(space.out_dims(), dtype=np.int64))
    op = identity_on(space.factors()) * (1.0 / d_out_total)
    return validate_comb(QuantumComb(space, op))


def eig_hermitian(a: LabeledOperator, rel: float = HERM_TOL):
    """Eigenvalues (descending) and matching eigenvector columns."""
    require_hermitian(a, rel)
    vals, vecs = np.linalg.eigh((a.data + a.data.conj().T) / 2.0)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


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


def two_step_phase_problem(grid=8):
    """Two sequential uses of diag(1, w^j) on a grid, payoff 1 + cos."""
    i1, o1, i2, o2 = (SystemLabel(n, 2) for n in ("i1", "o1", "i2", "o2"))
    rep = {j: np.diag([1.0, np.exp(2j * np.pi * j / grid)])
           for j in range(grid)}
    combs = tuple(comb_of_memoryless_sequence(
        [choi_of_channel([rep[j]], i1, o1), choi_of_channel([rep[j]], i2, o2)])
        for j in range(grid))
    d = np.arange(grid)
    payoff = 1.0 + np.cos(2 * np.pi * (d[:, None] - d[None, :]) / grid)
    problem = EstimationProblem(combs[0].space, tuple(range(grid)),
                                np.full(grid, 1.0 / grid), combs, payoff,
                                payoff_shift=1.0)
    elements, table = cyclic_group(grid)
    return problem, FiniteGroupAction(elements, table, {"o1": rep, "o2": rep})


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


def twirled_phase_program(selector: bool = False):
    """The covariant program of the 3-level phase grid, and the group action.

    One seed outcome with twirled outcome rows: the dense twirl matrix, or
    with selector=True the kept coordinates, as covariant_gamma builds it.
    """
    problem, action = phase_grid_problem(3, 8)
    space = problem.space
    reduced = EstimationProblem(space, (0,), np.ones(1), (problem.combs[0],),
                                np.ones((1, 1)))
    if selector:
        rows = kept_coordinates(twirl_mask(
            diagonal_phases(action, space.factors())))
    else:
        rows = twirl_coordinates(action, space.factors())
    return build_primal(reduced, rows), action


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
            grown = identity(step.in_sys) * dual.s0
        else:
            grown = tensor(dual.operators[j - 2], identity(step.in_sys))
        out.append(grown - traced)
    return out


def outcome_residuals(problem, dual):
    """M_est = S^(N) - G_est on the full comb factors."""
    return [dual.operators[-1] - g for g in payoff_operators(problem).operators]


def structural_row_values(sdp, xi_ops, t_ops):
    """Constraint row values of labeled Xi^(1..N) and outcome operators."""
    steps = sdp.problem.space.steps
    vals = np.zeros(sdp.cmap.m)
    vals[0] = float(np.trace(xi_ops[0].data).real)
    for j in range(1, len(steps) + 1):
        if j < len(steps):
            traced = partial_trace(xi_ops[j], [steps[j].in_sys.id])
        else:
            traced = t_ops[0]
            for t in t_ops[1:]:
                traced = traced + t
        grown = embed_identity(xi_ops[j - 1], steps[j - 1].out_sys, 2 * (j - 1))
        coords = coords_from_hermitian((traced - grown).data)
        vals[sdp.level_rows(j)] = coords[sdp.level_coords(j)]
    return vals
