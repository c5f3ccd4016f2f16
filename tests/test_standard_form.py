"""Hermitian bases and the assembled constraint maps.

The heavy check here is the dual route for the constraint matrix: row
values produced by the assembled coordinate maps must agree with the
same rows computed directly from partial traces, for arbitrary (not
necessarily feasible) Hermitian block values.  The Schur kernel is checked
against dense per-row coefficient stacks read off the adjoint.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (coords_from_hermitian, dual_from_y, helstrom_problem,
                      hermitian_from_coords, reference_validate_comb, seeds,
                      selected_phase_program, state_problems,
                      structural_row_values)
from qnetopt.covariant import phase_grid_problem, two_phase_problem
from qnetopt.estimation import joint_problem, payoff_operators
from qnetopt.instances import random_channel_problem, random_state_problem
from qnetopt.operators import LabeledOperator
from qnetopt.sdp import SolverOptions
from qnetopt.sdp.engine import solve_program, tighten_dual
from qnetopt.sdp.ipm import _float_positions, basis_kernel
from qnetopt.sdp.standard_form import build_primal, charge_sectors


def sector_program(problem):
    return build_primal(problem, sectors=charge_sectors(problem))


def group_owners(sdp):
    """Per group, the tester blocks whose sectors it stacks, copy by copy."""
    outcomes = range(sdp.num_steps, sdp.num_steps + sdp.num_outcomes)
    owners = {g: (j,) for j, gs in enumerate(sdp.xi_groups) for g in gs}
    return [owners.get(g, outcomes) for g in range(len(sdp.positions))]


def group_stacks(sdp, tester_blocks):
    """The group stacks of full-size tester blocks: their sector parts."""
    return [np.array([[tester_blocks[t][np.ix_(p, p)] for p in pos]
                      for t in owners], dtype=complex)
            for owners, pos in zip(group_owners(sdp),
                                   sdp.positions)]


def rand_herm(g, d):
    m = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    return m + m.conj().T


def basis_stack(d):
    """The Hermitian basis in its documented order, built entry by entry."""
    mats = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    for i in range(d):
        mats[k, i, i] = 1.0
        k += 1
    r = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            mats[k, i, j] = r
            mats[k, j, i] = r
            k += 1
    for i in range(d):
        for j in range(i + 1, d):
            mats[k, i, j] = 1j * r
            mats[k, j, i] = -1j * r
            k += 1
    return mats


def test_basis_order_is_the_documented_one():
    s = hermitian_from_coords(np.eye(4), 2)
    np.testing.assert_allclose(s[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(s[1], np.diag([0.0, 1.0]))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(s[2], np.array([[0, r], [r, 0]]), atol=1e-15)
    np.testing.assert_allclose(s[3], np.array([[0, 1j * r], [-1j * r, 0]]),
                               atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_is_orthonormal_and_hermitian(d):
    s = hermitian_from_coords(np.eye(d * d), d)
    assert s.shape == (d * d, d, d)
    gram = np.einsum("aij,bij->ab", s.conj(), s)
    np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)
    np.testing.assert_allclose(s, np.conj(np.transpose(s, (0, 2, 1))), atol=1e-14)


def test_coords_round_trip(rng):
    h = rand_herm(rng, 3)
    c = coords_from_hermitian(h)
    assert np.max(np.abs(c.imag)) < 1e-12
    np.testing.assert_allclose(hermitian_from_coords(c.real, 3), h, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_coords_match_basis_tensordot(d, rng):
    basis = basis_stack(d)
    x = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    expect = np.tensordot(x, basis.conj(), axes=([1, 2], [1, 2])).real
    np.testing.assert_allclose(coords_from_hermitian(x), expect, atol=1e-12)
    # for non-Hermitian input they are the coordinates of the Hermitian part
    np.testing.assert_allclose(hermitian_from_coords(expect, d),
                               (x + x.conj().transpose(0, 2, 1)) / 2, atol=1e-12)
    np.testing.assert_allclose(hermitian_from_coords(expect, d),
                               np.tensordot(expect, basis, axes=1), atol=1e-12)


@pytest.mark.parametrize("d", range(1, 10))
def test_hermitian_from_coords_matches_two_pass_scatter(d, rng):
    # the transpose of coords = w f[i] + v f[j], scattered pass by pass
    i, j, w, v = _float_positions(d)
    coords = rng.normal(size=(3, d * d))
    f = np.zeros((3, 2 * d * d))
    f[:, i] = w * coords
    f[:, j] += v * coords
    np.testing.assert_allclose(hermitian_from_coords(coords, d),
                               f.view(complex).reshape(3, d, d),
                               atol=1e-15, rtol=0)


def test_block_layout_and_row_partition():
    problem = phase_grid_problem(3)[0]
    for sdp in (build_primal(problem), sector_program(problem)):
        n = sdp.num_steps
        groups = sdp.cmap.groups
        assert len(sdp.positions) == len(groups) == len(sdp.C)
        owners = group_owners(sdp)
        for g, c, pos, own in zip(groups, sdp.C, sdp.positions, owners):
            assert pos.shape == (g.sectors, g.side)
            assert c.shape == (g.copies, g.sectors, g.side, g.side)
            assert len(own) == g.copies
        # every tester block is in a group, and its sectors partition its
        # positions
        assert sorted({t for own in owners for t in own}) == \
            list(range(n + sdp.num_outcomes))
        for t in range(n + sdp.num_outcomes):
            positions = np.concatenate([pos.ravel() for pos, own in
                                        zip(sdp.positions, owners)
                                        if t in own])
            assert sorted(positions) == list(range(len(positions)))
        covered = []
        for j in range(n + 1):
            sl = sdp.level_rows(j)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(sdp.cmap.m))


def test_primal_start_is_feasible():
    for sdp in (build_primal(helstrom_problem()),
                build_primal(random_channel_problem(
                    np.random.default_rng(5), 2, [(2, 2), (2, 2)],
                    memory=True)),
                sector_program(phase_grid_problem(4)[0])):
        x0 = sdp.primal_start()
        np.testing.assert_allclose(sdp.cmap.apply_A(x0), sdp.b, atol=1e-12)
        for st, c in zip(x0, sdp.C):
            assert st.shape == c.shape
            assert np.linalg.eigvalsh(st)[..., 0].min() > 0


def test_objective_blocks_encode_payoff():
    for problem in (helstrom_problem(), phase_grid_problem(3)[0]):
        sdp = sector_program(problem)
        for k, op in enumerate(payoff_operators(problem)):
            # the payoff is exactly zero off the sectors, so nothing is lost
            blocks = [c[k] for c in sdp.C[sdp.outcome_groups]]
            assert np.array_equal(sdp.outcome(blocks), -op)
        for gs in sdp.xi_groups:
            assert not any(np.any(sdp.C[g]) for g in gs)


# per problem: the Xi^(j) that are variables, the groups and the rows; a
# leading step with no input fixes Xi^(j) = I, and the levels below the first
# step with an input (level D_j has D_j^2 rows) are dropped
REDUCTION_CASES = {
    # level 0 (1 row) dropped: 2 groups and m = 5 before
    "helstrom": (helstrom_problem, [False], 1, 4),
    # levels 0 and 1 (1 + 4 rows) dropped: 3 groups and m = 41 before
    "joint-states": (lambda: joint_problem([
        helstrom_problem(), random_state_problem(np.random.default_rng(1), 2,
                                                 3)]), [False, False], 1, 36),
    # a comb that prepares a qubit and then applies a channel to it: level 0
    # dropped, 3 groups and m = 69 before
    "prepare-then-channel": (lambda: random_channel_problem(
        np.random.default_rng(4), 2, [(1, 2), (2, 2)], memory=True),
        [False, True], 2, 68),
    # step 1 has an input: nothing dropped, b = e_0
    "channel": (lambda: random_channel_problem(
        np.random.default_rng(5), 2, [(2, 2)]), [True], 2, 17),
}


@pytest.mark.parametrize("case", REDUCTION_CASES)
def test_leading_input_free_steps_carry_no_chain_variable(case):
    make, variables, n_groups, m = REDUCTION_CASES[case]
    problem = make()
    sdp = build_primal(problem)
    assert [bool(gs) for gs in sdp.xi_groups] == variables
    assert (len(sdp.cmap.groups), sdp.cmap.m) == (n_groups, m)
    first = variables.index(True) if True in variables else len(variables)
    dims = np.array(sdp.level_dims)
    assert sdp.level_offsets[first] == 0
    assert m == np.sum(dims[first:] ** 2)
    # b is the identity's coordinates on the first level with rows
    rows = sdp.level_rows(first)
    expect = np.zeros(m)
    expect[rows] = coords_from_hermitian(np.eye(dims[first]))[
        sdp.coords[first]]
    assert np.array_equal(sdp.b, expect)
    if first == 0:
        assert np.array_equal(sdp.b, np.eye(m)[0])

    # lambda = -b.y is the tightened Tr S^(first), and R validates at full
    # size; solve_program runs on the charge sectors, so read its program
    opts = SolverOptions()
    sdp, res, lambda_, comb, report = solve_program(problem.validated(), opts)
    assert report.certified
    y = tighten_dual(sdp, res.y)
    d = sdp.level_dims[first]
    coords = np.zeros(d * d)
    coords[sdp.coords[first]] = -y[sdp.level_rows(first)]
    assert lambda_ == pytest.approx(
        np.trace(hermitian_from_coords(coords, d)).real, rel=1e-12)
    reference_validate_comb(comb, 1e-10)


@settings(max_examples=60, deadline=None)
@given(problem=state_problems(max_states=3, max_dim=3), seed=seeds)
def test_adjoint_identity_states(problem, seed):
    _assert_rows_agree(build_primal(problem), np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, pseed=seeds, memory=st.booleans())
def test_adjoint_identity_channels(seed, pseed, memory):
    problem = random_channel_problem(np.random.default_rng(pseed), 2,
                                     [(2, 2), (2, 2)], memory=memory)
    _assert_rows_agree(build_primal(problem), np.random.default_rng(seed))


@pytest.mark.parametrize("make", [lambda: phase_grid_problem(3)[0],
                                  lambda: two_phase_problem(1.0, 4)[0]])
def test_adjoint_identity_sector_programs(make, rng):
    # the invariant rows read the invariant coordinates only, so the sector
    # program's rows agree with those of the full operators
    _assert_rows_agree(sector_program(make()), rng)


def _assert_rows_agree(sdp, g):
    space = sdp.problem.space
    xi_ops = [LabeledOperator(space.prefix_factors(j) + (step.in_sys,),
                              rand_herm(g, d * step.in_sys.dim))
              for j, (d, step) in enumerate(zip(sdp.level_dims, space.steps))]
    t_ops = [LabeledOperator(space.factors(), rand_herm(g, sdp.level_dims[-1]))
             for k in range(sdp.num_outcomes)]
    direct = structural_row_values(sdp, xi_ops, t_ops)
    assembled = sdp.cmap.apply_A(
        group_stacks(sdp, [op.data for op in xi_ops + t_ops]))
    np.testing.assert_allclose(assembled, direct, atol=1e-10)


def _dense_rows(cmap):
    """Per group, every row's coefficient (m, s, n, n): A^T of unit rows."""
    per_row = [cmap.apply_AT(unit) for unit in np.eye(cmap.m)]
    return [np.stack([stacks[g] for stacks in per_row])
            for g in range(len(cmap.groups))]


# programs whose scatter plans, between them, hold groups of side 1 and
# more, of one and of several sectors, and padded, width-2, scaled and
# identity entries
PLAN_PROGRAMS = {
    "grid-3-sectors": lambda: sector_program(phase_grid_problem(3)[0]),
    "memory-2x22": lambda: build_primal(random_channel_problem(
        np.random.default_rng(0), 2, [(2, 2)] * 2, memory=True)),
    "covariant-seed": lambda: selected_phase_program()[0],
    "states-3x3": lambda: build_primal(
        random_state_problem(np.random.default_rng(1), 3, 3)),
}


def test_plan_programs_hold_every_kind_of_group_and_entry():
    groups = [g for make in PLAN_PROGRAMS.values() for g in make().cmap.groups]
    entries = [e for g in groups for e in g.entries]
    assert {min(g.side, 2) for g in groups} == {1, 2}
    assert {min(g.sectors, 2) for g in groups} == {1, 2}
    assert any(e.padded for e in entries)
    assert any(e.tensor.shape[1] == 2 for e in entries)
    assert any(e.scale != 1.0 for e in entries)
    assert any(e.identity for e in entries)


@pytest.mark.parametrize("name", PLAN_PROGRAMS)
def test_scatter_plans_are_adjoint_and_hermitian(name, rng):
    cmap = PLAN_PROGRAMS[name]().cmap
    y = rng.normal(size=cmap.m)
    ATy = cmap.apply_AT(y)
    for M in ATy:  # bitwise, not to rounding
        assert np.array_equal(M, M.conj().swapaxes(-1, -2))
    X = [np.array([[rand_herm(rng, g.side) for _ in range(g.sectors)]
                   for _ in range(g.copies)]) for g in cmap.groups]
    pairing = sum(np.vdot(Xg, np.broadcast_to(Ag, Xg.shape)).real
                  for Ag, Xg in zip(ATy, X))
    assert np.dot(cmap.apply_A(X), y) == pytest.approx(pairing, rel=1e-13)
    real = [Xg.real for Xg in X]
    assert np.array_equal(cmap.apply_A(real),
                          cmap.apply_A([Xg.astype(complex) for Xg in real]))


def test_kernels_match_dense_rows(rng):
    for sdp in (
            build_primal(random_channel_problem(
                np.random.default_rng(7), 3, [(2, 2), (2, 2)], memory=True)),
            # three steps, and steps with d_out != d_in
            build_primal(random_channel_problem(
                np.random.default_rng(8), 2, [(2, 1), (1, 2), (2, 1)],
                memory=True)),
            build_primal(random_channel_problem(
                np.random.default_rng(9), 2, [(1, 3), (2, 2)], memory=True)),
            # the direct phase program: Tr_out reaches 1/3 of its rows
            build_primal(phase_grid_problem(3)[0]),
            # the covariant program: the outcome's charge sectors are read
            # on the coordinates that also share a character only
            selected_phase_program()[0],
            # sector programs: groups of many sectors, of side 1 and more
            sector_program(phase_grid_problem(3)[0]),
            sector_program(two_phase_problem(1.0, 4)[0])):
        _assert_kernels_match_dense_rows(sdp, rng)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_basis_kernel_is_each_sectors_kernel(n, rng):
    stack = np.array([[rand_herm(rng, n) for _ in range(4)] for _ in range(3)])
    batched = basis_kernel(stack)
    assert batched.shape == (4, n * n, n * n)
    for t in range(4):
        np.testing.assert_array_equal(batched[t],
                                      basis_kernel(stack[:, t:t + 1])[0])
    if n == 1:  # the kernel of 1x1 sectors is sum_k |W_kt|^2
        np.testing.assert_allclose(batched[:, 0, 0],
                                   (np.abs(stack[:, :, 0, 0]) ** 2).sum(0))


def test_restricted_top_level_scatters_through_its_coordinates(rng):
    sdp = selected_phase_program()[0]
    top = sdp.num_steps
    coords = sdp.coords[top]
    d = sdp.level_dims[top]
    assert sdp.cmap.m == 1 + len(coords) < 1 + d * d
    y = rng.normal(size=sdp.cmap.m)
    expect = np.zeros(d * d)
    expect[coords] = -y[sdp.level_rows(top)]
    dual = dual_from_y(sdp, y)
    np.testing.assert_allclose(coords_from_hermitian(dual.operators[-1].data),
                               expect, atol=1e-12)


def _assert_kernels_match_dense_rows(sdp, rng):
    cmap = sdp.cmap
    dense = _dense_rows(cmap)
    for A in dense:
        np.testing.assert_allclose(A, A.conj().swapaxes(-1, -2), atol=1e-14)
    shapes = [(g.copies, g.sectors, g.side, g.side) for g in cmap.groups]
    Ws = []
    for shape in shapes:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        Ws.append(a @ a.conj().swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1]))
    expect = np.zeros((cmap.m, cmap.m))
    for A, W in zip(dense, Ws):
        # sum_b Re Tr(A_i W_b A_j W_b) over blocks b = (copy u, sector t);
        # a row's coefficient is the same on every copy
        expect += np.einsum("itkl,utlp,jtpq,utqk->ij", A, W, A, W,
                            optimize=True).real
    np.testing.assert_allclose(cmap.schur(Ws, np.empty_like(expect)),
                               expect, rtol=1e-10)

    X = [np.array([[rand_herm(rng, n) for _ in range(s)] for _ in range(k)])
         for k, s, n, _ in shapes]
    y = rng.normal(size=cmap.m)
    AX = cmap.apply_A(X)
    np.testing.assert_allclose(
        AX, sum(np.einsum("itkl,utlk->i", A, Xg).real for A, Xg in zip(dense, X)),
        rtol=1e-10)
    ATy = cmap.apply_AT(y)
    for g, a in zip(cmap.groups, ATy):
        assert a.shape == (g.sectors, g.side, g.side)
    pairing = sum(np.vdot(np.broadcast_to(Ag, Xg.shape), Xg).real
                  for Ag, Xg in zip(ATy, X))
    assert np.dot(y, AX) == pytest.approx(pairing, rel=1e-10)

    # real-typed stacks, as primal_start() returns them, are accepted
    x0 = sdp.primal_start()
    assert all(st.dtype == float for st in x0)
    np.testing.assert_allclose(
        cmap.apply_A(x0), cmap.apply_A([st.astype(complex) for st in x0]),
        rtol=1e-10)


def test_dual_vector_round_trip(rng):
    sdp = build_primal(helstrom_problem())
    y = rng.normal(size=sdp.cmap.m)
    dual = dual_from_y(sdp, y)
    # Helstrom has no level-0 row: S^(0) = lambda is Tr S^(1)
    assert dual.s0 == pytest.approx(np.trace(dual.operators[0].data).real,
                                    rel=1e-13)
    for j, op in enumerate(dual.operators, start=1):
        np.testing.assert_allclose(coords_from_hermitian(op.data),
                                   -y[sdp.level_rows(j)], atol=1e-12)
