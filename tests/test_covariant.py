"""Group actions, invariant reductions, and the phase-estimation family."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnetopt
from conftest import (act, coords_from_hermitian, hermitian_from_coords,
                      is_invariant, qubit_state_problem, random_pure_state,
                      rotated_phase_grid,
                      sequential_phase_problem, twirl_coordinates)
from qnetopt.covariant import (FiniteGroupAction, covariant_gamma,
                               cyclic_group, diagonal_characters,
                               phase_action,
                               phase_estimation_optimum,
                               phase_grid_problem, product_group, qmax_state,
                               sum_of_phases, twirl, two_phase_correlated,
                               two_phase_payoff_matrix, two_phase_problem)
from qnetopt.errors import (BadDimension, BadParameter, DimensionCap,
                            NotAState, NotLeftInvariant, NotPSD,
                            NumericalFailure, ShapeMismatch)
from qnetopt.estimation import EstimationProblem
from qnetopt.instances import random_unitary
from qnetopt.networks import (QuantumComb, comb_of_memoryless_sequence,
                              comb_of_state, choi_of_channel)
from qnetopt.operators import LabeledOperator, SystemLabel
from qnetopt.sdp import certify_dual, solve
from qnetopt.sdp.ipm import basis_layout
from qnetopt.sdp.standard_form import (ChargeSectors, StandardSdp,
                                       build_primal, charge_sectors)

Q = SystemLabel("q", 2)
X_MAT = np.array([[0.0, 1.0], [1.0, 0.0]])


def flip_action():
    elements, table = cyclic_group(2)
    return FiniteGroupAction(elements, table, {"q": {0: np.eye(2), 1: X_MAT}})


def test_group_table_checked():
    with pytest.raises(BadParameter):
        FiniteGroupAction((0, 1), np.array([[0, 1], [1, 2]]), {})
    with pytest.raises(BadParameter, match="elements repeat"):
        FiniteGroupAction((0, 0), np.array([[0, 1], [1, 0]]), {})
    # rows are permutations and 0 is an identity, but column 1 repeats 1
    with pytest.raises(BadParameter, match="column 1 of the composition"):
        FiniteGroupAction((0, 1, 2), [[0, 1, 2], [1, 2, 0], [2, 1, 0]], {})


def test_table_needs_an_identity():
    # rows and columns are permutations, but no row or column is the identity
    table = (-np.arange(3)[:, None] - np.arange(3)[None, :]) % 3
    with pytest.raises(BadParameter, match="no identity element"):
        FiniteGroupAction((0, 1, 2), table, {})


def test_table_rows_must_be_permutations():
    with pytest.raises(BadParameter, match="row 1 of the composition table"):
        FiniteGroupAction((0, 1), [[0, 1], [1, 1]], {})


def test_rep_must_cover_every_element():
    elements, table = cyclic_group(3)
    partial = {"q": {0: np.eye(2), 1: np.eye(2)}}
    with pytest.raises(BadParameter,
                       match=r"rep\['q'\] has no representative for element 2"):
        FiniteGroupAction(elements, table, partial)


def test_rep_shapes_must_agree():
    elements, table = cyclic_group(2)
    mixed = {"q": {0: np.eye(2), 1: np.eye(3)}}
    with pytest.raises(BadParameter, match=r"rep\['q'\]\[1\] has shape \(3, 3\)"):
        FiniteGroupAction(elements, table, mixed)


def test_rep_must_be_unitary():
    bad = {"q": {0: np.eye(2), 1: 2.0 * X_MAT}}
    elements, table = cyclic_group(2)
    with pytest.raises(BadParameter):
        FiniteGroupAction(elements, table, bad)


def test_rep_must_compose():
    # a non-homomorphic assignment: both non-identity elements map to
    # rotations that do not close under the table
    elements, table = cyclic_group(3)
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    bad = {"q": {0: np.eye(2), 1: r, 2: r}}
    # (1, 1) is the first failing pair in row-major order: r r = -I, not r
    with pytest.raises(BadParameter, match=r"at \(1, 1\)$"):
        FiniteGroupAction(elements, table, bad)


def test_act_identity_is_identity(rng):
    action = flip_action()
    m = rng.normal(size=(2, 2))
    op = LabeledOperator((Q,), m + m.T)
    np.testing.assert_allclose(act(action, 0, op).data, op.data, atol=1e-12)
    np.testing.assert_allclose(act(action, 1, op).data,
                               X_MAT @ op.data @ X_MAT, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_twirl_is_an_invariant_projection(seed):
    g = np.random.default_rng(seed)
    action = flip_action()
    m = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    op = LabeledOperator((Q,), m + m.conj().T)
    avg = twirl(op, action)
    assert is_invariant(avg, action)
    np.testing.assert_allclose(twirl(avg, action).data, avg.data, atol=1e-11)
    # trace is preserved by averaging over unitaries
    assert np.trace(avg.data) == pytest.approx(np.trace(op.data), abs=1e-10)


def _shift_action():
    """Z_3 by the cyclic shift on a qutrit and a conjugated turn on a qubit."""
    elements, table = cyclic_group(3)
    shift = np.roll(np.eye(3), 1, axis=0)
    basis = random_unitary(np.random.default_rng(3), 2)
    turn = basis @ np.diag([1.0, np.exp(2j * np.pi / 3)]) @ basis.conj().T
    rep = {"s": {j: np.linalg.matrix_power(shift, j) for j in elements},
           "t": {j: np.conj(np.linalg.matrix_power(turn, j))
                 for j in elements}}
    action = FiniteGroupAction(elements, table, rep)
    return action, (SystemLabel("t", 2), SystemLabel("s", 3))


def _phase_grid_action():
    problem, action = phase_grid_problem(3, 8)
    return action, problem.space.factors()


@pytest.mark.parametrize("make", [_phase_grid_action, _shift_action],
                         ids=["phase-grid", "shift"])
def test_twirl_coordinates_match_twirl(make):
    action, factors = make()
    d = int(np.prod([f.dim for f in factors]))
    P = twirl_coordinates(action, factors)
    basis = hermitian_from_coords(np.eye(d * d), d)
    for c in range(d * d):
        twirled = twirl(LabeledOperator(factors, basis[c]), action).data
        np.testing.assert_allclose(P[:, c], coords_from_hermitian(twirled),
                                   atol=1e-12)
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)


DIAGONAL_CASES = {
    "phase-grid": lambda: phase_grid_problem(3, 8),
    "two-step": lambda: sequential_phase_problem(2),
    "two-phase": lambda: two_phase_problem(0.7, 8),
}


def _shared(labels):
    """The coordinates whose row and column carry the same label."""
    row, col, _ = basis_layout(len(labels))
    return np.flatnonzero(labels[row] == labels[col])


def _selector(problem, action):
    """The coordinates whose row and column carry the same character."""
    factors = problem.space.factors()
    sectors = ChargeSectors(characters=diagonal_characters(action, factors))
    return _shared(sectors.labels(factors))


@pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
def test_selector_is_the_dense_twirl_matrix(case):
    problem, action = DIAGONAL_CASES[case]()
    P = twirl_coordinates(action, problem.space.factors())
    kept = _selector(problem, action)
    selector = np.zeros(len(P))
    selector[kept] = 1.0
    np.testing.assert_allclose(P, np.diag(selector), atol=1e-12)
    assert 0 < len(kept) < len(P)


def test_diagonal_phases_are_the_unitary_diagonals():
    problem, action = sequential_phase_problem(2)
    factors = problem.space.factors()
    sectors = ChargeSectors(characters=diagonal_characters(action, factors))
    _, phases = sectors.walk(factors)
    assert phases.shape == (action.unitary_for(0, factors).shape[0],
                            action.size)
    for g, el in enumerate(action.elements):
        np.testing.assert_array_equal(np.diag(phases[:, g]),
                                      action.unitary_for(el, factors))


def _shifted_qutrit_orbit():
    """A qutrit state and its orbit under the cyclic shift."""
    action, _ = _shift_action()
    v = random_pure_state(np.random.default_rng(4), 3)
    problem = qubit_state_problem("s", [np.roll(v, j) for j in range(3)],
                                  np.full(3, 1.0 / 3.0))
    return problem, action


def test_shift_action_solves_its_orbit():
    problem, action = _shifted_qutrit_orbit()
    assert diagonal_characters(action, _shift_action()[1]) is None
    res = covariant_gamma(problem, action)
    assert res.gamma_max == pytest.approx(solve(problem).lambda_, abs=1e-7)
    assert res.gamma_max * res.q_max == pytest.approx(res.gamma_0, abs=1e-12)
    assert is_invariant(res.invariant_op, action, tol=1e-9)
    assert _certifies(problem, res)


@pytest.mark.parametrize("make", [_shifted_qutrit_orbit,
                                  lambda: rotated_phase_grid(3)],
                         ids=["shift", "rotated"])
def test_non_diagonal_action_solves_the_callers_problem(make, monkeypatch):
    problem, action = make()
    solved = []
    real = qnetopt.covariant.solve_program

    def recorded(program, *args):
        solved.append(program)
        return real(program, *args)

    monkeypatch.setattr(qnetopt.covariant, "solve_program", recorded)
    covariant_gamma(problem, action)
    assert len(solved) == 1 and solved[0] is problem


@pytest.mark.parametrize("call", [
    lambda: solve(phase_grid_problem(3)[0]),
    lambda: covariant_gamma(*phase_grid_problem(3)),
    lambda: covariant_gamma(*rotated_phase_grid(3)),
], ids=["direct", "seed", "non-diagonal"])
def test_every_route_validates_its_lift_at_full_size(call, monkeypatch):
    # a lift that drops one outcome-sector block, the one with the largest
    # entry (some hold only rounding), fails R's validation
    real = StandardSdp.outcome

    def dropped(self, blocks):
        blocks = [b.copy() for b in blocks]
        pairs = [(g, s) for g, b in enumerate(blocks) for s in range(len(b))]
        g, s = max(pairs, key=lambda gs: np.abs(blocks[gs[0]][gs[1]]).max())
        blocks[g][s] = 0.0
        return real(self, blocks)

    monkeypatch.setattr(StandardSdp, "outcome", dropped)
    with pytest.raises(NumericalFailure, match="failed validation"):
        call()


@pytest.mark.parametrize("make", [lambda: phase_grid_problem(3),
                                  _shifted_qutrit_orbit],
                         ids=["diagonal", "non-diagonal"])
def test_covariant_gamma_validates_no_comb_twice(make, monkeypatch):
    # the comb at the identity and the orbit check cover every input comb
    problem, action = make()

    def unreachable(self, tol=1e-8):
        raise AssertionError("the problem's combs were validated again")

    monkeypatch.setattr(EstimationProblem, "validated", unreachable)
    assert _certifies(problem, covariant_gamma(problem, action))


# a diagonal action solves the seed program, the shift the problem itself
@pytest.mark.parametrize("make", [lambda: phase_grid_problem(3),
                                  _shifted_qutrit_orbit],
                         ids=["diagonal", "orbit"])
def test_covariant_result_carries_the_iteration_history(make):
    res = covariant_gamma(*make())
    assert len(res.history) == res.iterations > 0
    assert [h.it for h in res.history] == list(range(1, res.iterations + 1))
    assert res.history[-1].rel_gap <= 1e-8


def _nonzero_rows(sdp):
    """Whether each row has a nonzero coefficient somewhere."""
    ones = [np.broadcast_to(np.eye(c.shape[-1], dtype=complex), c.shape)
            for c in sdp.C]
    m = sdp.cmap.m
    return np.diag(sdp.cmap.schur(list(zip(ones, ones)),
                                   np.empty((m, m)))) > 1e-12


@pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
def test_reduced_rows_are_the_nonzero_rows_of_the_dense_program(case):
    problem, action = DIAGONAL_CASES[case]()
    space = problem.space
    reduced = EstimationProblem(space, (0,), np.ones(1), (problem.combs[0],),
                                np.ones((1, 1)))
    torus = charge_sectors(reduced)
    sdp = build_primal(reduced, ChargeSectors(
        torus.charges, diagonal_characters(action, space.factors())))
    assert np.all(_nonzero_rows(sdp))
    for j in range(1, sdp.problem.space.num_steps + 1):
        factors = space.prefix_factors(j)
        # the dense twirl matrix reads level j on its nonzero rows only; the
        # computed P has zero rows near 1e-17
        P = twirl_coordinates(action, factors)
        twirled = np.flatnonzero(np.abs(P).max(axis=1) > 1e-12)
        charged = _shared(ChargeSectors(torus.charges).labels(factors))
        # less Xi^(j)'s: the coordinates whose positions both sit at out(j)
        # level 0 (out(j) is the second factor from the end)
        outs = np.unravel_index(np.arange(sdp.level_dims[j]),
                                [f.dim for f in factors])[-2]
        row, col, _ = basis_layout(sdp.level_dims[j])
        xi = np.flatnonzero((outs[row] == 0) & (outs[col] == 0))
        np.testing.assert_array_equal(
            np.sort(sdp.coords[j]),
            np.setdiff1d(np.intersect1d(twirled, charged), xi))
        if case == "two-step" and j == 2:  # of the 256 coordinates of level 2
            assert len(twirled) == 96


PARITY_CASES = {
    "grid-3": lambda: phase_grid_problem(3),
    "grid-4": lambda: phase_grid_problem(4),
    "grid-5": lambda: phase_grid_problem(5),
    "two-step": lambda: sequential_phase_problem(2),
    "two-phase-0.26": lambda: two_phase_problem(0.2601612582347196, 8),
    "two-phase-0.7": lambda: two_phase_problem(0.7, 8),
}


def _certifies(problem, res):
    report = certify_dual(res.gamma_max,
                          QuantumComb(problem.space, res.invariant_op),
                          problem, tol=1e-7)
    return report.certified


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_reduced_program_matches_dense_twirl_program(case, monkeypatch):
    problem, action = PARITY_CASES[case]()
    reduced = covariant_gamma(problem, action)
    # without diagonal characters covariant_gamma solves the problem itself
    monkeypatch.setattr("qnetopt.covariant.diagonal_characters",
                        lambda action, factors: None)
    orbit = covariant_gamma(problem, action)
    assert reduced.gamma_max == pytest.approx(orbit.gamma_max, abs=1e-7)
    assert _certifies(problem, reduced) and _certifies(problem, orbit)


@pytest.mark.parametrize("levels", [4, 7])
def test_rotated_phase_grid_solves_its_orbit(levels):
    # a non-diagonal action; at 7 levels the Schur complement of a dense
    # twirl program, with its linearly dependent rows, is singular
    problem, action = rotated_phase_grid(levels)
    assert diagonal_characters(action, problem.space.factors()) is None
    res = covariant_gamma(problem, action)
    assert res.gamma_max == pytest.approx(
        problem.payoff_shift + phase_estimation_optimum(levels).cos_max,
        abs=1e-7)
    assert _certifies(problem, res)


def test_three_sequential_gates_match_the_phase_oracle():
    # N uses of a qubit phase gate do as well as one (N + 1)-level probe
    for steps in (2, 3, 4):
        problem, action = sequential_phase_problem(steps)
        res = covariant_gamma(problem, action)
        assert res.gamma_max == pytest.approx(
            problem.payoff_shift
            + phase_estimation_optimum(steps + 1).cos_max, abs=1e-7)
        assert _certifies(problem, res)
    # the twirl keeps 1280 of the 4096 coordinates of the level-3 space
    assert len(_selector(*sequential_phase_problem(3))) == 1280


def test_product_group_structure():
    for na, nb in ((2, 3), (4, 4)):
        ea, ta = cyclic_group(na)
        eb, tb = cyclic_group(nb)
        elements, table = product_group(ea, ta, eb, tb)
        assert len(elements) == na * nb
        assert elements[0] == (0, 0)
        for row in table:
            assert sorted(row) == list(range(na * nb))
        # the composition law of Z_na x Z_nb, entry by entry
        for i, (a1, b1) in enumerate(elements):
            for j, (a2, b2) in enumerate(elements):
                assert elements[table[i, j]] == ((a1 + a2) % na,
                                                 (b1 + b2) % nb)


def test_qmax_orthogonal_orbit():
    rho0 = LabeledOperator((Q,), np.diag([1.0, 0.0]))
    q, rho = qmax_state(rho0, flip_action())
    assert q == pytest.approx(0.5, abs=1e-7)
    np.testing.assert_allclose(rho.data, np.eye(2) / 2.0, atol=1e-6)
    # hit-or-miss success over the orbit: 1 / (|X| q) = 1
    assert 1.0 / (2 * q) == pytest.approx(1.0, abs=1e-6)


def test_qmax_projective_pauli_action():
    # X and Z anticommute, so the Pauli action of Z_2 x Z_2 is projective;
    # the twirled certificate must not depend on the phases
    q, rho = qmax_state(LabeledOperator((Q,), np.diag([1.0, 0.0])),
                        _pauli_action())
    assert q == pytest.approx(0.5, abs=1e-7)
    np.testing.assert_allclose(rho.data, np.eye(2) / 2.0, atol=1e-6)


def test_qmax_invariant_seed_is_one():
    rho0 = LabeledOperator((Q,), np.eye(2) / 2.0)
    q, _ = qmax_state(rho0, flip_action())
    assert q == pytest.approx(1.0, abs=1e-7)


def sign_action():
    elements, table = cyclic_group(2)
    return FiniteGroupAction(elements, table,
                             {"q": {0: np.eye(2), 1: np.diag([1.0, -1.0])}})


def test_qmax_state_under_a_diagonal_action():
    # each level has its own charge: the twirl keeps only the diagonal
    plus = np.full((2, 2), 0.5)
    q, rho = qmax_state(LabeledOperator((Q,), plus), sign_action())
    assert q == pytest.approx(0.5, abs=1e-7)
    np.testing.assert_allclose(rho.data, np.eye(2) / 2.0, atol=1e-6)


def test_qmax_state_under_an_action_on_no_factor_of_the_state():
    # the action moves only a label the state lacks: the orbit is three
    # copies of rho0, and the program is that of the identity acting on q
    rho0 = LabeledOperator((Q,), np.array([[0.7, 0.3 - 0.1j],
                                           [0.3 + 0.1j, 0.3]]))
    q, rho = qmax_state(rho0, phase_action(SystemLabel("z", 2), 3))
    elements, table = cyclic_group(3)
    same, same_rho = qmax_state(rho0, FiniteGroupAction(
        elements, table, {"q": {g: np.eye(2) for g in elements}}))
    assert q == same
    np.testing.assert_array_equal(rho.data, same_rho.data)
    assert q == pytest.approx(1.0, abs=1e-7)
    np.testing.assert_allclose(rho.data, rho0.data, atol=1e-7)


def _pauli_action():
    e, t = cyclic_group(2)
    elements, table = product_group(e, t, e, t)
    rep = {(a, b): np.linalg.matrix_power(X_MAT, a)
           @ np.linalg.matrix_power(np.diag([1.0, -1.0]), b)
           for a, b in elements}
    return FiniteGroupAction(elements, table, {"q": rep})


@pytest.mark.parametrize("make", [flip_action, sign_action, _pauli_action],
                         ids=["flip", "sign", "pauli"])
def test_qmax_state_is_covariant_gamma_on_its_orbit(make):
    action = make()
    rho0 = LabeledOperator((Q,), np.array([[0.7, 0.3 - 0.1j],
                                           [0.3 + 0.1j, 0.3]]))
    q, rho = qmax_state(rho0, action)
    comb = comb_of_state(rho0)
    combs = tuple(QuantumComb(comb.space, act(action, el, comb.op))
                  for el in action.elements)
    n = action.size
    res = covariant_gamma(EstimationProblem(
        comb.space, action.elements, np.full(n, 1.0 / n), combs, np.eye(n)),
        action)
    assert q == res.q_max
    assert rho.factors == rho0.factors
    np.testing.assert_array_equal(rho.data, res.invariant_op.data)


@pytest.mark.parametrize("make", [flip_action, sign_action],
                         ids=["flip", "sign"])
def test_qmax_state_refuses_a_non_state(make, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a program was built for a non-state")

    monkeypatch.setattr(qnetopt.sdp.engine, "build_primal", unreachable)
    monkeypatch.setattr(qnetopt.sdp.engine, "solve_program", unreachable)
    rho = LabeledOperator((Q,), np.array([[1.2, 0.5], [0.5, -0.2]]))
    with pytest.raises(NotAState):
        qmax_state(rho, make())


def test_covariant_gamma_matches_direct_solve():
    problem, action = phase_grid_problem(2)
    direct = solve(problem)
    red = covariant_gamma(problem, action)
    stored_gamma = direct.gamma_primal + problem.payoff_shift
    assert red.gamma_max == pytest.approx(stored_gamma, abs=1e-6)
    assert red.gamma_max * red.q_max == pytest.approx(red.gamma_0, abs=1e-8)


def test_covariant_gamma_two_step_matches_direct_and_oracle():
    problem, action = sequential_phase_problem(2)
    red = covariant_gamma(problem, action)
    assert red.gamma_max == pytest.approx(solve(problem).gamma_primal + 1.0,
                                          abs=1e-6)
    # two uses of a qubit phase gate reach three phase levels
    assert red.gamma_max == pytest.approx(
        1.0 + phase_estimation_optimum(3).cos_max, abs=1e-6)


@pytest.mark.parametrize("make", [
    lambda: phase_grid_problem(2),
    lambda: sequential_phase_problem(2),
    lambda: sequential_phase_problem(3),
    lambda: two_phase_problem(0.2601612582347196, 8),
], ids=["phase-2", "two-step", "three-step", "two-phase-8"])
def test_reduced_result_certifies_full_problem(make):
    problem, action = make()
    res = covariant_gamma(problem, action)
    assert is_invariant(res.invariant_op, action)
    report = certify_dual(res.gamma_max,
                          QuantumComb(problem.space, res.invariant_op),
                          problem, tol=1e-7)
    assert report.certified, report.min_margin


@pytest.mark.parametrize("levels,grid", [(2, 4), (3, 8), (4, 10)])
def test_covariant_state_family_matches_direct_solve(levels, grid):
    # the probe |+> under diag(1, w^j, w^2j, ...): every level of the state
    # has its own charge, so the twirl keeps just the diagonal coordinates
    action = phase_action(SystemLabel("s", levels), grid)
    plus = np.full(levels, 1.0 / np.sqrt(levels))
    d = np.arange(grid)
    payoff = 1.0 + np.cos(2 * np.pi * (d[:, None] - d[None, :]) / grid)
    problem = qubit_state_problem(
        "s", [action.rep["s"][j] @ plus for j in range(grid)],
        np.full(grid, 1.0 / grid), payoff)
    res = covariant_gamma(problem, action)
    assert res.gamma_max == pytest.approx(solve(problem).gamma_primal,
                                          abs=1e-7)


@pytest.mark.parametrize("levels,grid", [(3, 18), (3, 24), (3, 30), (5, None)])
def test_covariant_gamma_matches_phase_oracle(levels, grid):
    problem, action = phase_grid_problem(levels, grid)
    res = covariant_gamma(problem, action)
    assert res.gamma_max == pytest.approx(
        problem.payoff_shift + phase_estimation_optimum(levels).cos_max,
        abs=1e-7)


def test_covariant_gamma_reads_the_characters_once(monkeypatch):
    calls = []
    read = qnetopt.covariant.diagonal_characters

    def counted(action, factors):
        calls.append(factors)
        return read(action, factors)

    monkeypatch.setattr(qnetopt.covariant, "diagonal_characters", counted)
    problem, action = phase_grid_problem(3)
    covariant_gamma(problem, action)
    assert len(calls) == 1


def test_covariant_gamma_honours_memory_cap(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_ipm ran past the memory cap")

    monkeypatch.setattr(qnetopt.sdp.engine, "solve_ipm", unreachable)
    monkeypatch.setattr(qnetopt.sdp.engine, "MEMORY_CAP_BYTES", 1 << 10)
    with pytest.raises(DimensionCap, match="estimated peak"):
        covariant_gamma(*phase_grid_problem(3))
    # and on the path a non-diagonal action takes, the problem itself
    monkeypatch.setattr(qnetopt.covariant, "diagonal_characters",
                        lambda action, factors: None)
    with pytest.raises(DimensionCap, match="estimated peak"):
        covariant_gamma(*phase_grid_problem(3))


@pytest.mark.parametrize("path", ["diagonal", "orbit"])
def test_covariant_gamma_refuses_an_orbit_of_non_combs(path, monkeypatch):
    # every comb shifted by -0.3 I: still an orbit, with a left-invariant
    # payoff, but no comb is PSD, and solve refuses the problem too
    problem, action = phase_grid_problem(3, 8)
    shift = 0.3 * np.eye(problem.combs[0].op.data.shape[0])
    combs = tuple(QuantumComb(problem.space, c.op.with_data(c.op.data - shift))
                  for c in problem.combs)
    shifted = EstimationProblem(problem.space, problem.labels_x, problem.prior,
                                combs, problem.payoff, problem.payoff_shift)
    with pytest.raises(NotPSD):
        solve(shifted)
    if path == "orbit":
        monkeypatch.setattr(qnetopt.covariant, "diagonal_characters",
                            lambda action, factors: None)
    with pytest.raises(NotPSD):
        covariant_gamma(shifted, action)


def test_covariant_gamma_requires_uniform_prior():
    problem, action = phase_grid_problem(2)
    prior = problem.prior.copy()
    prior[0] += 0.01
    prior[1] -= 0.01
    skew = EstimationProblem(problem.space, problem.labels_x, prior,
                             problem.combs, problem.payoff,
                             problem.payoff_shift)
    with pytest.raises(BadParameter, match="uniform"):
        covariant_gamma(skew, action)


def test_covariant_gamma_requires_representatives_of_the_factor_dim():
    problem, _action = phase_grid_problem(4)
    qubit_action = phase_action(SystemLabel("ph_out", 2), len(problem.labels_x))
    with pytest.raises(ShapeMismatch, match=r"rep\['ph_out'\] has shape"):
        covariant_gamma(problem, qubit_action)


def test_covariant_gamma_requires_labels_equal_to_the_elements():
    problem, action = phase_grid_problem(2)
    shifted = EstimationProblem(problem.space,
                                tuple(x + 1 for x in problem.labels_x),
                                problem.prior, problem.combs, problem.payoff,
                                problem.payoff_shift)
    with pytest.raises(BadParameter, match="must equal the group elements"):
        covariant_gamma(shifted, action)


def test_covariant_gamma_requires_a_nonzero_identity_row():
    problem, action = phase_grid_problem(2)
    zero = EstimationProblem(problem.space, problem.labels_x, problem.prior,
                             problem.combs, np.zeros_like(problem.payoff))
    with pytest.raises(BadParameter, match="row at the identity is all zero"):
        covariant_gamma(zero, action)


def test_covariant_gamma_requires_invariant_payoff():
    problem, action = phase_grid_problem(2)
    payoff = problem.payoff.copy()
    payoff[0, 1] += 0.3
    skew = EstimationProblem(problem.space, problem.labels_x, problem.prior,
                             problem.combs, payoff, problem.payoff_shift)
    with pytest.raises(NotLeftInvariant):
        covariant_gamma(skew, action)


def test_covariant_gamma_requires_orbit_combs(rng):
    problem, action = phase_grid_problem(2)
    u = random_unitary(rng, 2)
    in_sys, out_sys = problem.space.steps[0].in_sys, problem.space.steps[0].out_sys
    stray = comb_of_memoryless_sequence([choi_of_channel([u], in_sys, out_sys)])
    combs = (problem.combs[0],) + (stray,) + problem.combs[2:]
    skew = EstimationProblem(problem.space, problem.labels_x, problem.prior,
                             combs, problem.payoff, problem.payoff_shift)
    with pytest.raises(NotLeftInvariant):
        covariant_gamma(skew, action)


@pytest.mark.parametrize("seed", [1, 100, 1 << 20])
def test_covariance_checks_name_the_first_failing_element(seed):
    # each check compares every element with the identity e, and names the
    # first element that a loop over the elements finds failing: a payoff row
    # y with g(y, x) != g(e, y^-1 x), a comb R_x != U_x R_e U_x^H; the seed
    # draws the stray channel, so the orbit check is named on several combs
    rng = np.random.default_rng(seed)
    problem, action = phase_grid_problem(2)
    e, table = action.identity_index, action.table
    payoff = problem.payoff.copy()
    payoff[4, 1] += 0.3
    payoff[3, 4] += 0.3
    inverse = [list(row).index(e) for row in table]
    moved = [y for y in range(action.size)
             if np.abs(payoff[y] - payoff[e, table[inverse[y]]]).max() > 1e-9]
    assert moved == [3, 4]
    with pytest.raises(NotLeftInvariant, match="y = %d$" % moved[0]):
        covariant_gamma(EstimationProblem(
            problem.space, problem.labels_x, problem.prior, problem.combs,
            payoff, problem.payoff_shift), action)
    for problem, action in (phase_grid_problem(2), rotated_phase_grid(2)):
        step = problem.space.steps[0]
        stray = comb_of_memoryless_sequence([choi_of_channel(
            [random_unitary(rng, 2)], step.in_sys, step.out_sys)])
        combs = tuple(stray if x in (2, 4) else c
                      for x, c in enumerate(problem.combs))
        e = action.identity_index
        moved = [x for x, el in enumerate(action.elements)
                 if np.abs(act(action, el, combs[e].op).data
                           - combs[x].op.data).max() > 1e-8]
        assert moved == [2, 4]
        with pytest.raises(NotLeftInvariant,
                           match=r"\(element %d\)" % moved[0]):
            covariant_gamma(EstimationProblem(
                problem.space, problem.labels_x, problem.prior, combs,
                problem.payoff, problem.payoff_shift), action)


def test_phase_oracle_small_dimensions():
    o2 = phase_estimation_optimum(2)
    assert o2.cos_max == pytest.approx(np.cos(np.pi / 3.0), abs=1e-12)
    assert o2.c_min == pytest.approx(1.0, abs=1e-12)
    o3 = phase_estimation_optimum(3)
    assert o3.c_min == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    for d in range(2, 7):
        o = phase_estimation_optimum(d)
        assert o.cos_max == pytest.approx(np.cos(np.pi / (d + 1)), abs=1e-10)
        assert np.all(o.coefficients > 0)
        assert np.linalg.norm(o.coefficients) == pytest.approx(1.0, abs=1e-10)


def test_phase_quoted_shorthand_is_reported_not_asserted():
    for d in (2, 3, 4, 5):
        o = phase_estimation_optimum(d)
        assert o.quoted_value == pytest.approx(
            4.0 * np.sin(np.pi / (2.0 * d)) ** 2, abs=1e-12)
        assert not o.quoted_matches  # the shorthand misses the exact optimum


def test_phase_grid_problem_guards():
    with pytest.raises(BadDimension):
        phase_grid_problem(1)
    with pytest.raises(BadParameter):
        phase_grid_problem(3, grid=5)


def test_phase_grid_problem_shape():
    problem, action = phase_grid_problem(3)
    assert problem.num_params == 8
    assert problem.payoff_shift == 1.0
    assert problem.payoff.min() >= 0.0
    assert len(action.elements) == 8


def test_phase_grid_solve_matches_oracle():
    problem, _ = phase_grid_problem(2)
    sol = solve(problem)
    c = 2.0 * (1.0 - sol.gamma_primal)
    assert c == pytest.approx(1.0, abs=1e-6)


def test_two_phase_payoff_matrix_spectrum():
    for p in (0.3, 0.5, 0.7):
        w = np.linalg.eigvalsh(two_phase_payoff_matrix(p))
        assert w[-1] == pytest.approx(max(p, 1.0 - p) / 2.0, abs=1e-12)
        expected = sorted([p / 2.0, -p / 2.0, (1 - p) / 2.0, -(1 - p) / 2.0])
        np.testing.assert_allclose(np.sort(w), expected, atol=1e-12)


def test_two_phase_closed_form():
    hi = two_phase_correlated(0.7)
    assert hi.gamma_max == pytest.approx(0.35)
    np.testing.assert_allclose(hi.state,
                               np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)
    lo = two_phase_correlated(0.2)
    np.testing.assert_allclose(lo.state,
                               np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-12)
    assert two_phase_correlated(0.5).degenerate
    with pytest.raises(BadParameter):
        two_phase_correlated(1.2)


def test_two_phase_problem_is_shifted_by_one():
    problem, action = two_phase_problem(0.7)
    assert problem.payoff_shift == 1.0
    assert problem.num_params == 64
    assert len(action.elements) == 64
    assert problem.payoff.min() >= -1e-12
    # the broadcast payoff equals the entry-by-entry reference bit for bit
    angles = 2 * np.pi * np.arange(8) / 8
    raw = np.zeros((64, 64))
    for ih, (jh, kh) in enumerate(action.elements):
        for i, (j, k) in enumerate(action.elements):
            da, db = angles[(jh - j) % 8], angles[(kh - k) % 8]
            raw[ih, i] = 0.7 * np.cos(da + db) + (1.0 - 0.7) * np.cos(da - db)
    np.testing.assert_array_equal(problem.payoff, raw + problem.payoff_shift)


def test_sum_of_phases_frozen_ratios():
    rep = sum_of_phases(8, 2)
    lam = np.cos(np.pi / 9.0)
    assert rep.ratio == pytest.approx(1.0 + lam, abs=1e-12)  # (1-x^2)/(1-x)
    assert rep.c_entangled == pytest.approx(2.0 * (1.0 - lam), abs=1e-12)
    r3 = sum_of_phases(8, 3)
    assert r3.ratio == pytest.approx((1.0 - lam ** 3) / (1.0 - lam), abs=1e-12)
    assert r3.ratio == pytest.approx(2.8227148423, abs=1e-9)


def test_sum_of_phases_ratio_approaches_copies():
    prev = 0.0
    for d in (8, 16, 32):
        r = sum_of_phases(d, 2).ratio
        assert prev < r < 2.0
        prev = r


def test_two_phase_grid_8_solves_with_one_blas_thread():
    # The real-embedded NT scaling raised an untyped "SVD did not converge"
    # on this input, with one BLAS thread only; so run it pinned to one.
    p = 0.2601612582347196
    code = ("from qnetopt.covariant import covariant_gamma, two_phase_problem\n"
            "problem, action = two_phase_problem(%r, 8)\n"
            "res = covariant_gamma(problem, action)\n"
            "print(repr(res.gamma_max - problem.payoff_shift))" % p)
    src = os.path.dirname(os.path.dirname(qnetopt.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert float(done.stdout) == pytest.approx(
        two_phase_correlated(p).gamma_max, abs=1e-6)
