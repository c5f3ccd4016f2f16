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

from conftest import (comb_spaces, coords_from_hermitian, dual_from_y,
                      helstrom_problem, hermitian_from_coords, memory_combs,
                      qubit_state_problem, reference_validate_comb,
                      seed_program, seeds, selected_phase_program,
                      sequential_phase_problem, state_problems,
                      structural_row_values)
from qnetopt.covariant import phase_grid_problem, two_phase_problem
from qnetopt.estimation import (EstimationProblem, joint_problem,
                                payoff_operators)
from qnetopt.instances import (random_channel_problem, random_memory_comb,
                               random_state_problem)
from qnetopt.networks import QuantumComb, validate_comb
from qnetopt.operators import LabeledOperator
from qnetopt.sdp import SolverOptions, slater_point
from qnetopt.sdp.engine import solve_program, tighten_dual
from qnetopt.sdp.ipm import (LAYOUT_CACHE, _flat_positions, _float_positions,
                             basis_kernel, basis_layout, solve_ipm)
from qnetopt.sdp.standard_form import build_primal, charge_sectors


def sector_program(problem):
    return build_primal(problem, sectors=charge_sectors(problem))


def group_stacks(sdp, outcome_blocks):
    """The group stacks of full-size outcome blocks: their sector parts."""
    return [np.array([[t[np.ix_(p, p)] for p in pos] for t in outcome_blocks],
                     dtype=complex) for pos in sdp.positions]


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


def test_layout_caches_keep_a_few_sides():
    # at side 4096 one side's layouts take 285 MB, so no cache keeps every
    # side it has seen
    for n in range(1, 4 * LAYOUT_CACHE):
        basis_kernel(*[np.eye(n, dtype=complex)[None, None]] * 2)
        _float_positions(n)
    for cache in (basis_layout, _flat_positions, _float_positions):
        info = cache.cache_info()
        assert info.maxsize == LAYOUT_CACHE <= 16
        assert info.currsize == LAYOUT_CACHE


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
        n = sdp.problem.space.num_steps
        groups = sdp.cmap.groups
        assert len(sdp.positions) == len(groups) == len(sdp.C)
        for g, c, pos in zip(groups, sdp.C, sdp.positions):
            assert pos.shape == (g.sectors, g.side)
            assert c.shape == (g.copies, g.sectors, g.side, g.side)
            # no chain group: every group holds the outcome blocks
            assert g.copies == sdp.num_outcomes
        # the sectors partition the outcome positions
        positions = np.concatenate([pos.ravel() for pos in sdp.positions])
        assert sorted(positions) == list(range(sdp.level_dims[-1]))
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
            blocks = [c[k] for c in sdp.C]
            assert np.array_equal(sdp.outcome(blocks), -op)


# per problem: the first level with rows, and m; a leading step with no
# input fixes Xi^(j) = I, and the levels below the first step with an input
# are dropped.  That level keeps its D^2 rows, and each later level j its
# D_j^2 less Xi^(j)'s (D_(j-1) d_in(j))^2
REDUCTION_CASES = {
    # level 0 (1 row) dropped: 2 groups and m = 5 with a chain variable
    "helstrom": (helstrom_problem, 1, 4),
    # levels 0 and 1 (1 + 4 rows) dropped: 3 groups and m = 41 with chain
    # variables
    "joint-states": (lambda: joint_problem([
        helstrom_problem(), random_state_problem(np.random.default_rng(1), 2,
                                                 3)]), 2, 36),
    # a comb that prepares a qubit and then applies a channel to it: level 0
    # dropped, and Xi^(2)'s 16 rows; 3 groups and m = 69 with chain
    # variables
    "prepare-then-channel": (lambda: random_channel_problem(
        np.random.default_rng(4), 2, [(1, 2), (2, 2)], memory=True), 1, 52),
    # step 1 has an input: b = e_0, and Xi^(1)'s 4 rows dropped from level 1
    "channel": (lambda: random_channel_problem(
        np.random.default_rng(5), 2, [(2, 2)]), 0, 13),
}


@pytest.mark.parametrize("case", REDUCTION_CASES)
def test_leading_input_free_steps_carry_no_chain_variable(case):
    make, first, m = REDUCTION_CASES[case]
    problem = make()
    sdp = build_primal(problem)
    assert [g.copies for g in sdp.cmap.groups] == [sdp.num_outcomes]
    assert sdp.cmap.m == m
    dims = np.array(sdp.level_dims)
    ins = [1] + [step.in_sys.dim for step in problem.space.steps]
    assert sdp.level_offsets[first] == 0
    assert m == dims[first] ** 2 + np.sum(
        dims[first + 1:] ** 2 - (dims[first:-1] * ins[first + 1:]) ** 2)
    # b is the identity's coordinates on the first level with rows
    rows = sdp.level_rows(first)
    expect = np.zeros(m)
    expect[rows] = coords_from_hermitian(np.eye(dims[first]))[
        sdp.coords[first]]
    assert np.array_equal(sdp.b, expect)
    if first == 0:
        assert np.array_equal(sdp.b, np.eye(m)[0])

    # lambda = -b.y is Tr S^(first), and R validates at full size;
    # solve_program runs on the charge sectors, so read its program
    opts = SolverOptions()
    sdp, res, _, lambda_, comb, report = solve_program(problem.validated(),
                                                       opts)
    assert report.certified
    y = tighten_dual(res.y)
    assert y is res.y
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
    t_ops = [LabeledOperator(space.factors(), rand_herm(g, sdp.level_dims[-1]))
             for k in range(sdp.num_outcomes)]
    direct = structural_row_values(sdp, t_ops)
    assembled = sdp.cmap.apply_A(group_stacks(sdp, [op.data for op in t_ops]))
    np.testing.assert_allclose(assembled, direct, atol=1e-10)
    # and the adjoint: -A^T y is dual_from_y's S^(N) on the sectors
    y = g.normal(size=sdp.cmap.m)
    top = dual_from_y(sdp, y).operators[-1].data
    np.testing.assert_allclose(sdp.outcome([-a for a in sdp.cmap.apply_AT(y)]),
                               top * _on_sectors(sdp), atol=1e-10)


def _on_sectors(sdp):
    """1 on the positions pairs that share a sector, 0 off them."""
    mask = np.zeros((sdp.level_dims[-1],) * 2)
    for pos in sdp.positions:
        mask[pos[:, :, None], pos[:, None, :]] = 1.0
    return mask


def _dense_rows(cmap):
    """Per group, every row's coefficient (m, s, n, n): A^T of unit rows."""
    per_row = [cmap.apply_AT(unit) for unit in np.eye(cmap.m)]
    return [np.stack([stacks[g] for stacks in per_row])
            for g in range(len(cmap.groups))]


# programs whose scatter plans, between them, hold groups of side 1 and
# more, of one and of several sectors, rows split between groups, and
# width-2, signed and identity entries
PLAN_PROGRAMS = {
    "grid-3-sectors": lambda: sector_program(phase_grid_problem(3)[0]),
    "memory-2x22": lambda: build_primal(random_channel_problem(
        np.random.default_rng(0), 2, [(2, 2)] * 2, memory=True)),
    "covariant-seed": lambda: selected_phase_program()[0],
    "states-3x3": lambda: build_primal(
        random_state_problem(np.random.default_rng(1), 3, 3)),
}


def test_plan_programs_hold_every_kind_of_group_and_entry():
    cmaps = [make().cmap for make in PLAN_PROGRAMS.values()]
    groups = [g for cmap in cmaps for g in cmap.groups]
    entries = [e for g in groups for e in g.entries]
    assert {min(g.side, 2) for g in groups} == {1, 2}
    assert {min(g.sectors, 2) for g in groups} == {1, 2}
    assert any(len(np.unique(rows)) < len(rows) for rows in (  # split rows
        np.concatenate([e.rows for e in cmap.entries]) for cmap in cmaps))
    assert any(e.tensor.shape[1] == 2 for e in entries)
    assert any((e.weights < 0).any() for e in entries)
    assert any((e.weights == 1).all() and np.array_equal(  # the identity
        e.tensor, np.arange(len(e.tensor))[:, None]) for e in entries)


def test_groups_hold_only_the_units_they_read():
    # the covariant seed program of four gates: its rows reach some groups
    cmap = seed_program(*sequential_phase_problem(4))[0].cmap
    assert len(cmap.groups) > 2
    for g, dense in zip(cmap.groups, _dense_rows(cmap)):
        rows = np.concatenate([e.rows for e in g.entries])
        reached = np.flatnonzero(dense.reshape(cmap.m, -1).any(axis=1))
        assert 0 < len(reached) < cmap.m
        np.testing.assert_array_equal(np.sort(rows), reached)  # each once
        for e in g.entries:
            assert e.tensor.shape == (len(e.rows), len(e.weights))
            assert 0 <= e.tensor.min()
            assert e.tensor.max() < g.sectors * g.side ** 2
            assert set(np.abs(e.weights)) == {1.0}


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
    kinds = set()
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
            sector_program(two_phase_problem(1.0, 4)[0]),
            # several sectors of side 2 and more
            sector_program(sequential_phase_problem(2)[0]),
            # a qutrit's 2 + 1 block: one sector of side 1
            sector_program(qubit_state_problem(
                "q3", [np.array([1.0, 0.0, 0.0]),
                       np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
                       np.array([0.0, 0.0, 1.0])], [0.4, 0.3, 0.3]))):
        _assert_kernels_match_dense_rows(sdp, rng)
        kinds |= {(min(g.side, 2), min(g.sectors, 2)) for g in sdp.cmap.groups}
    # groups of side 1 and more, each with one sector and with several
    assert kinds == {(1, 1), (1, 2), (2, 1), (2, 2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_basis_kernel_is_each_sectors_kernel(n, rng):
    X, Y = (np.array([[rand_herm(rng, n) for _ in range(4)] for _ in range(3)])
            for _ in range(2))
    batched = basis_kernel(X, Y)
    assert batched.shape == (4, n * n, n * n)
    for t in range(4):
        np.testing.assert_array_equal(
            batched[t], basis_kernel(X[:, t:t + 1], Y[:, t:t + 1])[0])
    if n == 1:  # the kernel of 1x1 sectors is sum_k x_kt y_kt
        np.testing.assert_allclose(batched[:, 0, 0],
                                   (X * Y).real[:, :, 0, 0].sum(0))


def test_restricted_top_level_scatters_through_its_coordinates(rng):
    sdp = selected_phase_program()[0]
    top = sdp.problem.space.num_steps
    coords = sdp.coords[top]
    d = sdp.level_dims[top]
    assert sdp.cmap.m == 1 + len(coords) < 1 + d * d
    # the rows read only the coordinates that both labels keep: -A^T y is
    # dual_from_y's S^(N), and 0 on every coordinate no row reads
    y = rng.normal(size=sdp.cmap.m)
    dual = dual_from_y(sdp, y).operators[-1].data
    scattered = sdp.outcome([-a for a in sdp.cmap.apply_AT(y)])
    np.testing.assert_allclose(scattered, dual, atol=1e-12)
    read = np.zeros(d * d, dtype=bool)
    read[coords] = True
    read[:d] = True  # the level-0 row reads the out-0 diagonal
    assert not np.any(coords_from_hermitian(scattered)[~read])


def _assert_kernels_match_dense_rows(sdp, rng):
    cmap = sdp.cmap
    dense = _dense_rows(cmap)
    for A in dense:
        np.testing.assert_allclose(A, A.conj().swapaxes(-1, -2), atol=1e-14)
    shapes = [(g.copies, g.sectors, g.side, g.side) for g in cmap.groups]
    pairs = []
    for shape in shapes:
        # X != Z^-1: a kernel that forgot to symmetrise in the two would
        # still pass with one stack in both places
        a = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
        pairs.append(tuple(a @ a.conj().swapaxes(-1, -2)
                           + shape[-1] * np.eye(shape[-1])))
    expect = np.zeros((cmap.m, cmap.m))
    for A, (Xg, Zinv) in zip(dense, pairs):
        # sum_b Re Tr(A_i X_b A_j Z^-1_b) over blocks b = (copy u, sector
        # t); a row's coefficient is the same on every copy; the greedy
        # path with room for the (t, k, l, p, q) intermediate, which the
        # default limit (the largest input) refuses when m < n^2
        expect += np.einsum("itkl,utlp,jtpq,utqk->ij", A, Xg, A, Zinv,
                            optimize=("greedy", 1 << 24)).real
    # 1e-12 relative, to each entry and to the largest: cancellation leaves
    # the einsum's small entries only that accurate
    np.testing.assert_allclose(cmap.schur(pairs, np.empty_like(expect)),
                               expect, rtol=1e-12,
                               atol=1e-12 * np.abs(expect).max())

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


# ---------------------------------------------------------------------------
# the program on the outcome sum alone, over drawn comb spaces: memoryful
# combs of one or two steps, input-free steps included
# ---------------------------------------------------------------------------


def comb_problem(space, g, combs=()):
    """Three outcomes: the given combs, random memory combs for the rest."""
    combs = tuple(combs) + tuple(random_memory_comb(g, space)
                                 for _ in range(3 - len(combs)))
    return EstimationProblem(space, (0, 1, 2), np.full(3, 1.0 / 3), combs,
                             g.uniform(size=(3, 3)))


@settings(max_examples=30, deadline=None)
@given(comb=memory_combs(), seed=seeds)
def test_the_program_reads_the_outcome_sum_alone(comb, seed):
    problem = comb_problem(comb.space, np.random.default_rng(seed), [comb])
    sdp = build_primal(problem)
    # no chain group: every group holds the three outcome blocks
    assert [g.copies for g in sdp.cmap.groups] == [3]
    # the first level with rows keeps D^2 of them, a later level D_j^2 less
    # Xi^(j)'s (D_(j-1) d_in(j))^2
    dims = np.array(sdp.level_dims)
    ins = np.array([1] + [s.in_sys.dim for s in problem.space.steps])
    first = next(j for j, c in enumerate(sdp.coords) if len(c))
    assert sdp.cmap.m == dims[first] ** 2 + np.sum(
        dims[first + 1:] ** 2 - (dims[first:-1] * ins[first + 1:]) ** 2)
    # the uniform tester meets every row
    np.testing.assert_allclose(sdp.cmap.apply_A(sdp.primal_start()), sdp.b,
                               rtol=0, atol=1e-13)
    # the Slater point's dual is c I exactly, c over every payoff
    top = sdp.outcome([-a for a in sdp.cmap.apply_AT(slater_point(sdp))])
    c = top[0, 0].real
    np.testing.assert_allclose(top, c * np.eye(len(top)), rtol=0,
                               atol=1e-13 * c)
    assert c > np.linalg.eigvalsh(payoff_operators(problem))[:, -1].max()


@settings(max_examples=20, deadline=None)
@given(space=comb_spaces(max_dim=2), seed=seeds)
def test_dense_A_has_full_row_rank(space, seed):
    sdp = build_primal(comb_problem(space, np.random.default_rng(seed)))
    m = sdp.cmap.m
    dense = np.concatenate([a.reshape(m, -1) for a in _dense_rows(sdp.cmap)],
                           axis=1)
    assert np.linalg.matrix_rank(np.hstack([dense.real, dense.imag])) == m


@settings(max_examples=12, deadline=None)
@given(space=comb_spaces(max_dim=2), seed=seeds)
def test_the_raw_dual_is_a_scalar_times_a_comb(space, seed):
    problem = comb_problem(space, np.random.default_rng(seed))
    sdp = build_primal(problem)
    res = solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(),
                    slater_point(sdp))
    lambda_ = -np.dot(sdp.b, res.y)
    top = sdp.outcome([-a / lambda_ for a in sdp.cmap.apply_AT(res.y)])
    validate_comb(QuantumComb(space, LabeledOperator(space.factors(), top)),
                  1e-12)


def test_an_input_free_step_after_an_input_has_no_chain_variable():
    # Tr_in Xi^(3) = Xi^(3) = I_out(2) (x) Xi^(2): 85 rows and three chain
    # groups before; now levels 1 and 3 (d_out = 1) are all Xi^(j)'s
    problem = random_channel_problem(np.random.default_rng(8), 2,
                                     [(2, 1), (1, 2), (2, 1)], memory=True)
    sdp = build_primal(problem)
    assert sdp.cmap.m == 13
    assert [g.copies for g in sdp.cmap.groups] == [2]
    assert [len(c) for c in sdp.coords] == [1, 0, 12, 0]
