"""Solver behavior: frozen optima, duality, certificates, failure modes."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import solve_triangular

from conftest import (HELSTROM_VALUE, chain_residuals, dual_from_y,
                      helstrom_problem, is_invariant, mixed_comb,
                      outcome_residuals, qubit_state_problem,
                      reference_validate_comb,
                      selected_phase_program, sequential_phase_problem,
                      state_problems, uniform_tester)
from qnetopt import serde
from qnetopt.cli import main
from qnetopt.errors import (BadParameter, DimensionCap, InvalidComb,
                            MaxIterations, NotPSD, NumericalFailure)
from qnetopt.estimation import (expected_payoff, joint_problem,
                                payoff_operators)
from qnetopt.instances import random_channel_problem, random_density
from qnetopt.networks import QuantumComb, validate_tester
from qnetopt.operators import LabeledOperator, SystemLabel, min_eig
from qnetopt.sdp import (SolverOptions, certify_dual, engine, ipm,
                         slater_point, solve, yuen_kennedy_lax)
from qnetopt.sdp.engine import tighten_dual
from qnetopt.covariant import covariant_gamma, phase_grid_problem
from qnetopt.sdp.ipm import (BlockConstraintMap, _chol_pair, _ct,
                             _step_pair, solve_ipm)
from qnetopt.sdp.standard_form import build_primal, charge_sectors


def test_helstrom_two_pure_states():
    sol = solve(helstrom_problem())
    assert sol.gamma_primal == pytest.approx(HELSTROM_VALUE, abs=1e-6)
    assert sol.gap < 1e-6
    assert sol.certificate.certified


def test_single_parameter_payoff_is_the_constant():
    # with one parameter every tester answers correctly; gamma = g
    v = np.array([1.0, 0.0])
    p = qubit_state_problem("single", [v], [1.0], payoff=[[0.375]])
    sol = solve(p)
    assert sol.gamma_primal == pytest.approx(0.375, abs=1e-7)


def test_shift_bookkeeping_in_solutions():
    base = helstrom_problem()
    shifted = replace(base, payoff=base.payoff + 0.5, payoff_shift=0.5)
    a, b = solve(base), solve(shifted)
    assert b.payoff_shift == pytest.approx(0.5)
    assert b.gamma_primal == pytest.approx(a.gamma_primal, abs=1e-6)
    # lambda certifies the stored (shifted) payoff scale
    assert b.lambda_ == pytest.approx(b.gamma_dual + 0.5, abs=1e-10)


def test_solve_refuses_a_non_psd_comb_before_building(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a program was built for a non-comb")

    problem = helstrom_problem()
    bad = problem.combs[1].op.with_data(np.diag([1.2, -0.2]))
    problem = replace(problem, combs=(problem.combs[0],
                                      QuantumComb(problem.space, bad)))
    monkeypatch.setattr(engine, "build_primal", unreachable)
    with pytest.raises(NotPSD):
        solve(problem)


def test_max_iterations_raises_with_diagnostics():
    with pytest.raises(MaxIterations) as err:
        solve(helstrom_problem(), SolverOptions(max_iter=2))
    assert "iteration" in str(err.value).lower() or err.value.diagnostics


def test_iteration_counts_are_pinned(monkeypatch):
    # every per-iteration cost is multiplied by these; a change of one shows
    # the 4-level grid's seed program (orbit route), then its K outcomes
    assert solve(phase_grid_problem(4)[0]).iterations == 8
    monkeypatch.setattr(engine, "diagonal_orbit", lambda problem, torus: None)
    assert solve(phase_grid_problem(4)[0]).iterations == 8
    assert solve(helstrom_problem()).iterations == 6
    # the covariant seed program, 9 iterations while it had chain groups
    assert covariant_gamma(*phase_grid_problem(3, 24)).iterations == 7


def test_ipm_history_records_every_iteration():
    sdp = build_primal(phase_grid_problem(4)[0])
    opts = SolverOptions()
    res = solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(),
                    slater_point(sdp), opts)
    assert len(res.history) == res.iterations
    assert [h.it for h in res.history] == list(range(1, res.iterations + 1))
    for h in res.history:
        assert 0.0 < h.alpha_p <= 1.0 and 0.0 < h.alpha_d <= 1.0
        assert 0.0 < h.sigma <= 1.0 and h.mu > 0.0
        assert h.feas_p >= 0.0 and h.feas_d >= 0.0
    last = res.history[-1]
    assert last.rel_gap <= opts.tol
    assert (last.pobj, last.dobj, last.rel_gap, last.feas_p, last.feas_d) == (
        res.pobj, res.dobj, res.rel_gap, res.feas_primal, res.feas_dual)


def test_solution_carries_the_iteration_history():
    sol = solve(phase_grid_problem(4)[0])
    assert len(sol.history) == sol.iterations
    assert [h.it for h in sol.history] == list(range(1, sol.iterations + 1))
    last = sol.history[-1]
    assert (last.rel_gap, last.feas_p, last.feas_d) == (
        sol.rel_gap, sol.feas_primal, sol.feas_dual)


def _grid_program(levels):
    problem = phase_grid_problem(levels)[0]
    return build_primal(problem, sectors=charge_sectors(problem))


@pytest.mark.parametrize("make", [
    lambda: _grid_program(8),
    lambda: build_primal(random_channel_problem(
        np.random.default_rng(0), 2, [(2, 2)] * 2, memory=True)),
    lambda: selected_phase_program(6, 14)[0],
], ids=["grid-8-sectors", "memory-2x22", "covariant-6"])
def test_peak_bytes_bounds_the_solver_peak(make):
    sdp = make()
    X0, y0 = sdp.primal_start(), slater_point(sdp)
    tracemalloc.start()
    try:
        solve_ipm(sdp.cmap, sdp.C, sdp.b, X0, y0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sdp.cmap.peak_bytes() <= 3 * peak


def _random_pairs(cmap, rng):
    pairs = []
    for g in cmap.groups:
        shape = (2, g.copies, g.sectors, g.side, g.side)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        pairs.append(tuple(a @ _ct(a) + g.side * np.eye(g.side)))
    return pairs


@pytest.mark.parametrize("make", [
    lambda: build_primal(random_channel_problem(
        np.random.default_rng(0), 2, [(2, 2)] * 2, memory=True)),
    lambda: selected_phase_program(6, 14)[0],
], ids=["memory-2x22", "covariant-6"])
def test_schur_overwrites_whatever_its_buffer_held(make):
    cmap = make().cmap
    # a group's rows read several numbers of units on it
    assert any(len({e.tensor.shape[1] for e in g.entries}) > 1
               for g in cmap.groups)
    pairs = _random_pairs(cmap, np.random.default_rng(1))
    out = np.full((cmap.m, cmap.m), np.nan)
    H = cmap.schur(pairs, out)
    assert H is out
    np.testing.assert_array_equal(H, cmap.schur(pairs, np.zeros_like(out)))


def test_schur_complement_is_one_array_per_solve(monkeypatch):
    problem = random_channel_problem(np.random.default_rng(0), 2,
                                     [(2, 2)] * 2, memory=True)
    real = BlockConstraintMap.schur

    def run(fresh):
        handed = []

        def wrapped(self, pairs, out):
            H = real(self, pairs, out)
            handed.append(H)
            return H.copy() if fresh else H

        monkeypatch.setattr(BlockConstraintMap, "schur", wrapped)
        return solve(problem), handed

    held, handed = run(fresh=False)
    assert len(handed) == held.iterations  # one assembly an iteration
    assert all(H is handed[0] for H in handed)
    fresh, _ = run(fresh=True)
    assert fresh.history == held.history
    assert (fresh.lambda_, fresh.gamma_primal, fresh.gamma_dual) == (
        held.lambda_, held.gamma_primal, held.gamma_dual)
    np.testing.assert_array_equal(fresh.comb_certificate.op.data,
                                  held.comb_certificate.op.data)
    for (_, a), (_, b) in zip(fresh.tester.outcomes, held.tester.outcomes):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("make", [
    lambda: phase_grid_problem(12)[0],
    lambda: phase_grid_problem(16)[0],
    lambda: random_channel_problem(np.random.default_rng(0), 2,
                                   [(2, 2)] * 2, memory=True),
], ids=["grid-12", "grid-16", "memory-2x22"])
def test_check_memory_bounds_the_whole_solve(make, direct_route):
    problem = make()
    estimate = engine.check_memory(
        build_primal(problem, sectors=charge_sectors(problem)),
        problem.num_params)
    combs = sum(c.op.data.nbytes for c in problem.combs)
    tracemalloc.start()
    try:
        solve(problem)
        peak = tracemalloc.get_traced_memory()[1] + combs
    finally:
        tracemalloc.stop()
    assert peak <= estimate <= 3 * peak


@pytest.mark.parametrize("levels", [12, 16])
def test_check_memory_bounds_the_orbit_route(levels, monkeypatch):
    # the estimate the route checks: the seed program and K full-size stacks
    estimates = []
    real_check = engine.check_memory

    def check(sdp, k):
        estimates.append(real_check(sdp, k))
        return estimates[-1]

    monkeypatch.setattr(engine, "check_memory", check)
    problem = phase_grid_problem(levels)[0]
    combs = sum(c.op.data.nbytes for c in problem.combs)
    tracemalloc.start()
    try:
        sol = solve(problem)
        peak = tracemalloc.get_traced_memory()[1] + combs
    finally:
        tracemalloc.stop()
    assert sol.route == "orbit" and len(estimates) == 1
    assert peak <= estimates[0] <= 3 * peak


def _unreachable(*args, **kwargs):
    raise AssertionError("solve_ipm ran past the memory cap")


def test_memory_cap_checked_before_the_solver(monkeypatch):
    p = random_channel_problem(np.random.default_rng(0), 2, [(2, 2), (2, 2)])
    monkeypatch.setattr(engine, "solve_ipm", _unreachable)
    monkeypatch.setattr(engine, "MEMORY_CAP_BYTES", 1 << 10)
    with pytest.raises(DimensionCap, match="estimated peak"):
        solve(p)


def test_four_by_four_memory_comb_is_refused_by_its_estimate(
        monkeypatch, tmp_path, capsys):
    # m = 65,793 rows: its Schur complement alone would take 35 GB
    p = random_channel_problem(np.random.default_rng(0), 2, [(4, 4)] * 2,
                               memory=True)
    monkeypatch.setattr(engine, "solve_ipm", _unreachable)
    with pytest.raises(DimensionCap, match="estimated peak"):
        solve(p)
    path = tmp_path / "problem.json"
    serde.dump_path(serde.problem_to_json(p), str(path))
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dimension cap:")


def test_step_length_eigen_failure_is_numerical_failure(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def no_convergence(a, *args, **kwargs):
        if a.ndim > 2 or a[0, 0].real < 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)

    # [dX; dZ] of 2 + 2 blocks; dual block 8 fails on its own
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    eye = np.array([np.eye(2)] * 4)
    D = eye.copy()
    D[3] *= -1.0
    with pytest.raises(NumericalFailure,
                       match="^step-length eigenvalues failed for dual block 8$"
                       ) as err:
        _step_pair(eye, D, [7, 8], 4)
    assert err.value.diagnostics == {"iteration": 4, "block": 8}
    # a batched failure that no block reproduces names no block
    with pytest.raises(NumericalFailure,
                       match="^step-length eigenvalues failed: Eigenvalues"
                       ) as err:
        _step_pair(eye, eye, [7, 8], 4)
    assert err.value.diagnostics == {"iteration": 4, "block": None}


def _reference_step(L, delta):
    """Per-block step length with triangular solves, as a loop over blocks."""
    lam = np.inf
    for Lb, Db in zip(L, delta):
        s = solve_triangular(Lb, Db, lower=True)
        s = solve_triangular(Lb, s.conj().T, lower=True)
        lam = min(lam, np.linalg.eigvalsh((s + s.conj().T) / 2)[0])
    return np.inf if lam >= -1e-13 else -1.0 / lam


@pytest.mark.parametrize("n", [1, 3, 8])
def test_batched_step_length_matches_per_block_reference(rng, n):
    def herm(k):
        a = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        return a + a.conj().transpose(0, 2, 1)

    # [X; Z] of 4 + 4 blocks; each half's step must be its own reference
    a = rng.normal(size=(8, n, n)) + 1j * rng.normal(size=(8, n, n))
    L = np.linalg.cholesky(a @ a.conj().transpose(0, 2, 1) + 0.1 * np.eye(n))
    Linv = np.linalg.inv(L)
    dX, dZ = herm(4), herm(4) - 5.0 * n * np.eye(n)
    for D in (np.concatenate([dX, dZ]), np.concatenate([dZ, dX])):
        steps = _step_pair(Linv, D, range(4), 0)
        for half, step in zip((slice(0, 4), slice(4, 8)), steps):
            assert np.isfinite(step)
            assert step == pytest.approx(_reference_step(L[half], D[half]),
                                         rel=1e-9)
    psd = a[:4].conj().transpose(0, 2, 1) @ a[:4]
    ap, ad = _step_pair(Linv, np.concatenate([psd, dZ]), range(4), 0)
    assert ap == np.inf == _reference_step(L[:4], psd)
    assert ad == pytest.approx(_reference_step(L[4:], dZ), rel=1e-9)
    ap, ad = _step_pair(Linv, np.concatenate([dX, psd]), range(4), 0)
    assert np.isfinite(ap) and ad == np.inf


@pytest.mark.parametrize("n", [1, 4])
def test_stacked_cholesky_failure_names_the_first_failing_block(
        rng, n, monkeypatch):
    # a stacked [X; Z] of 3 + 3 blocks: a block that is not positive
    # definite stops the solve, and the first one to fail is named
    a = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    M = a @ a.conj().transpose(0, 2, 1) + np.eye(n)
    singular, indefinite = np.full(n, 2.0), np.ones(n)
    singular[-1], indefinite[-1] = 0.0, -1.0
    for bad, half in ((1, "primal"), (4, "dual")):
        for broken in (singular, indefinite):
            XZ = M.copy()
            XZ[bad] = np.diag(broken)
            XZ[bad + 1] = np.diag(indefinite)
            with pytest.raises(NumericalFailure, match="^Cholesky failed for "
                               "%s block 6$" % half) as err:
                _chol_pair(XZ, [5, 6, 7], 2)
            assert err.value.diagnostics == {"iteration": 2, "block": 6}

    # a batched factor or inverse that fails where no block does names no
    # block (side 1 factors positive blocks with no LAPACK call)
    if n == 1:
        return
    for name, what in (("cholesky", "Cholesky"), ("inv", "Cholesky inverse")):
        def batch_fails(x, call=getattr(np.linalg, name)):
            if x.ndim > 2:
                raise np.linalg.LinAlgError("batch")
            return call(x)

        monkeypatch.setattr(np.linalg, name, batch_fails)
        with pytest.raises(NumericalFailure,
                           match="^%s failed: batch$" % what) as err:
            _chol_pair(M, [5, 6, 7], 2)
        assert err.value.diagnostics == {"iteration": 2, "block": None}
        monkeypatch.undo()


def test_side_one_closed_forms_match_lapack(rng):
    # [X; Z] of K = 3 copies of 5 one-by-one sectors, and a direction whose
    # halves both leave the cone
    k, shape = 3, (6, 5, 1, 1)
    XZ = rng.uniform(1e-3, 1e3, size=shape) + 0j
    D = rng.normal(size=shape) + 0j
    Linv = _chol_pair(XZ, np.arange(15), 0)
    np.testing.assert_allclose(Linv, np.linalg.inv(np.linalg.cholesky(XZ)),
                               rtol=1e-14, atol=0)
    # Z^-1 = L_z^-H L_z^-1 is 1 / z, the orthant's
    np.testing.assert_allclose(_ct(Linv[k:]) @ Linv[k:], 1.0 / XZ[k:],
                               rtol=1e-14, atol=0)

    lam = np.linalg.eigvalsh(Linv @ D @ _ct(Linv))[..., 0]
    ref = (-1.0 / lam[:k].min(), -1.0 / lam[k:].min())
    assert _step_pair(Linv, D, np.arange(15), 0) == pytest.approx(
        ref, rel=1e-14, abs=0)


def test_solve_ipm_keeps_one_stack_per_group():
    sdp = sector_program(phase_grid_problem(3)[0])
    groups = sdp.cmap.groups
    res = solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(),
                    slater_point(sdp))
    assert len(res.X) == len(groups)
    for g, x in zip(groups, res.X):
        assert x.shape == (g.copies, g.sectors, g.side, g.side)

    # raising a top-level row that reads a diagonal coordinate of the second
    # group at +1 makes that coordinate's dual slack indefinite (the -1 unit
    # of a difference row, on an out-0 position, only grows); the block of
    # its sector fails first, numbered group by group
    second, top = 1, sdp.level_offsets[-2]
    n = groups[second].side
    row, coord = next((e.rows[r], e.tensor[r, 0])
                      for e in groups[second].entries
                      if e.weights[0] > 0 and e.rows[0] >= top
                      for r in range(len(e.tensor))
                      if e.tensor[r, 0] % n ** 2 < n)
    y0 = slater_point(sdp)
    y0[row] += 1e6
    first = sum(g.copies * g.sectors for g in groups[:second]) + coord // n ** 2
    with pytest.raises(NumericalFailure, match="Cholesky failed for dual "
                       "block %d$" % first) as err:
        solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(), y0)
    assert err.value.diagnostics == {"iteration": 0, "block": first}


# apply_A runs three times an iteration (residual, A(X R_d Z^-1),
# corrector), so its fifth call feeds iteration 1's predictor; schur runs
# once an iteration
@pytest.mark.parametrize("method, calls, what", [
    ("apply_A", 4, "right-hand side"),
    ("schur", 1, "Schur complement"),
])
def test_non_finite_newton_system_is_numerical_failure(
        method, calls, what, tmp_path, monkeypatch, capsys):
    real = getattr(BlockConstraintMap, method)

    def poison():
        seen = []

        def poisoned(self, *args):
            seen.append(None)
            out = real(self, *args)
            return out * np.nan if len(seen) > calls else out

        monkeypatch.setattr(BlockConstraintMap, method, poisoned)

    poison()
    with pytest.raises(NumericalFailure, match=what) as err:
        solve(helstrom_problem())
    assert "iteration 1" in str(err.value)
    assert err.value.diagnostics == {"iteration": 1}

    path = tmp_path / "problem.json"
    serde.dump_path(serde.problem_to_json(helstrom_problem()), str(path))
    poison()
    assert main(["solve", str(path), "--out", str(tmp_path / "sol.json")]) == 6
    stderr = capsys.readouterr().err
    assert stderr.startswith("numerical failure: ") and what in stderr


def test_indefinite_schur_complement_is_numerical_failure(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(BlockConstraintMap, "schur",
                        lambda self, pairs, out: -np.eye(self.m))
    with pytest.raises(NumericalFailure,
                       match="Schur complement not positive definite") as err:
        solve(helstrom_problem())
    assert err.value.diagnostics == {"iteration": 0}

    path = tmp_path / "problem.json"
    serde.dump_path(serde.problem_to_json(helstrom_problem()), str(path))
    assert main(["solve", str(path), "--out", str(tmp_path / "sol.json")]) == 6
    assert "Schur complement not positive definite" in capsys.readouterr().err


def _solve_and_cli_fail(match, tmp_path, capsys, problem=None) -> dict:
    """The solve raises NumericalFailure, and CLI solve exits 6.

    problem defaults to Helstrom's.
    """
    problem = problem if problem is not None else helstrom_problem()
    with pytest.raises(NumericalFailure, match=match) as err:
        solve(problem)
    path = tmp_path / "problem.json"
    serde.dump_path(serde.problem_to_json(problem), str(path))
    assert main(["solve", str(path), "--out", str(tmp_path / "sol.json")]) == 6
    stderr = capsys.readouterr().err
    assert stderr == "numerical failure: %s\n" % err.value
    return err.value.diagnostics


def test_collapsed_step_lengths_are_numerical_failure(
        tmp_path, monkeypatch, capsys):
    # three short steps in a row stop the loop at iteration 2
    monkeypatch.setattr(ipm, "_step_pair", lambda *args: (1e-6, 1e-6))
    diagnostics = _solve_and_cli_fail(
        r"^step lengths collapsed \(alpha_p=9\.80e-07, alpha_d=9\.80e-07\)$",
        tmp_path, capsys)
    assert sorted(diagnostics) == ["iteration", "mu", "rel_gap"]
    assert diagnostics["iteration"] == 2
    assert diagnostics["rel_gap"] > 0 and diagnostics["mu"] > 0


# halving every row keeps R = -A^T y / lambda and halves lambda = -b.y, so R
# validates and the margins fail.  No y breaks R's normalization: range(A^T)
# is the span of the combs, with lambda = -b.y.  Doubling the rows above
# the first level with rows gives 2 R - M for the part M that its rows
# read, which is not PSD at a rank-deficient optimum
@pytest.mark.parametrize("s0, top, make, match", [
    (0.5, 0.5, helstrom_problem,
     r"^dual certificate margin -\d\.\d{3}e-0\d below -1\.0e-07$"),
    (1.0, 2.0, lambda: random_channel_problem(np.random.default_rng(2), 2,
                                              [(2, 2)]),
     r"^converged point failed validation: comb operator has eigenvalue "),
], ids=["margin", "positivity"])
def test_a_converged_point_that_fails_its_checks_is_numerical_failure(
        s0, top, make, match, tmp_path, monkeypatch, capsys):
    problem = make()
    sol = solve(problem)
    sdp = build_primal(problem, charge_sectors(problem))
    real = engine.tighten_dual

    def scaled(y):
        y = real(y).copy()
        y[:sdp.level_offsets[-2]] *= s0
        y[sdp.level_rows(sdp.problem.space.num_steps)] *= top
        return y

    monkeypatch.setattr(engine, "tighten_dual", scaled)
    assert _solve_and_cli_fail(match, tmp_path, capsys, problem) == {
        "rel_gap": sol.rel_gap, "iterations": sol.iterations}


def test_certify_dual_rejects_negative_lambda():
    p = helstrom_problem()
    with pytest.raises(BadParameter):
        certify_dual(-1.0, mixed_comb(p.space), p)


def test_certify_dual_rejects_invalid_comb():
    p = helstrom_problem()
    op = mixed_comb(p.space).op
    bad = QuantumComb(p.space, op.with_data(op.data * 2.0))
    with pytest.raises(InvalidComb):
        certify_dual(1.0, bad, p)


def test_mixed_comb_gives_a_loose_certificate():
    p = helstrom_problem()
    report = certify_dual(2.0, mixed_comb(p.space), p)
    assert report.certified
    assert report.lambda_ >= HELSTROM_VALUE - 1e-9
    tight = solve(p)
    assert report.lambda_ > tight.gamma_primal


def test_slater_point_is_strictly_feasible_on_random_problems():
    g = np.random.default_rng(11)
    for _ in range(5):
        p = random_channel_problem(g, 2, [(2, 2), (2, 2)], delta=False,
                                   memory=True)
        sdp = build_primal(p)
        point = dual_from_y(sdp, slater_point(sdp))
        # the chain is exact, S^(N) = c I, and c tops every payoff
        for r in chain_residuals(p, point):
            assert np.max(np.abs(r.data)) <= 1e-12 * point.s0
        top = point.operators[-1].data
        np.testing.assert_allclose(top, top[0, 0] * np.eye(len(top)),
                                   rtol=0, atol=1e-12 * top[0, 0])
        for r in outcome_residuals(p, point):
            assert min_eig(r.data) > 1e-9


def sector_program(problem):
    return build_primal(problem, sectors=charge_sectors(problem))


TIGHTEN_CASES = {
    "helstrom": lambda: (build_primal(helstrom_problem()), None),
    # two steps with no input: no chain variable, and S^(1) is traced down
    "joint-states": lambda: (build_primal(joint_problem([
        helstrom_problem(), helstrom_problem("hel2")])), None),
    # two steps with d_out != d_in, so dividing by the wrong one shows
    "memory-2step": lambda: (build_primal(random_channel_problem(
        np.random.default_rng(3), 2, [(2, 3), (3, 2)], memory=True)), None),
    "memory-3step": lambda: (build_primal(random_channel_problem(
        np.random.default_rng(8), 2, [(2, 1), (1, 2), (2, 1)],
        memory=True)), None),
    "selected-phase3": selected_phase_program,
    # Xi^(2) has sectors of two sides, and the outcome several groups
    "sectors-phase-2step": lambda: (sector_program(
        sequential_phase_problem(2)[0]), None),
}


@pytest.mark.parametrize("case", sorted(TIGHTEN_CASES))
def test_tighten_dual_makes_chain_exact(case):
    """The raw interior-point dual closes every chain condition as it comes."""
    sdp, action = TIGHTEN_CASES[case]()
    problem = sdp.problem
    opts = SolverOptions()
    res = solve_ipm(sdp.cmap, sdp.C, sdp.b, sdp.primal_start(),
                    slater_point(sdp), opts)
    assert tighten_dual(res.y) is res.y  # nothing left to tighten
    raw = dual_from_y(sdp, res.y)
    for r in chain_residuals(problem, raw):
        assert np.max(np.abs(r.data)) <= 1e-12 * raw.s0
    top = raw.operators[-1]
    # -A^T y / lambda is that S^(N) / S^(0), and a comb at 1e-12
    np.testing.assert_allclose(
        sdp.outcome([-a for a in sdp.cmap.apply_AT(res.y)]), top.data,
        rtol=0, atol=1e-12 * raw.s0)
    reference_validate_comb(QuantumComb(problem.space, top.with_data(
        top.data / raw.s0)), 1e-12)
    if action is not None:  # the covariant program's S^(N) is invariant
        assert is_invariant(top, action)
    for g in payoff_operators(problem):
        assert min_eig(top.data - g) >= -opts.tol


@settings(max_examples=20, deadline=None)
@given(problem=state_problems(max_states=3, max_dim=3))
def test_duality_sandwich(problem):
    """Primal testers stay below the optimum, the dual stays above."""
    sol = solve(problem)
    assert sol.gamma_dual >= sol.gamma_primal - 1e-6
    uni = validate_tester(uniform_tester(problem.space, problem.labels_x))
    assert expected_payoff(uni, problem) <= sol.gamma_primal + 1e-7
    assert sol.certificate.certified


def test_certificate_transfers_to_off_optimum_comb():
    """A certificate is an upper bound for any feasible strategy it dominates."""
    p = helstrom_problem()
    sol = solve(p)
    lam, cert = sol.lambda_, sol.comb_certificate
    # lambda * R - G_x is PSD, so every strategy value is below lambda
    rep = certify_dual(lam, cert, p)
    assert rep.lambda_ == pytest.approx(sol.gamma_dual, abs=1e-9)


def test_ykl_binary_matches_trace_norm_formula(rng):
    lab = SystemLabel("y", 2)
    rho0 = np.array([[0.8, 0.1], [0.1, 0.2]])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho1 = np.outer(v, v)
    pi = (0.35, 0.65)
    res = yuen_kennedy_lax([LabeledOperator((lab,), rho0),
                            LabeledOperator((lab,), rho1)], pi)
    diff = pi[0] * rho0 - pi[1] * rho1
    oracle = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(diff)).sum())
    assert res.p_succ == pytest.approx(oracle, abs=1e-6)


def test_ykl_trine_states():
    lab = SystemLabel("y", 2)
    states = []
    for k in range(3):
        th = 2.0 * np.pi * k / 3.0
        vv = np.array([np.cos(th / 2.0), np.sin(th / 2.0)])
        states.append(LabeledOperator((lab,), np.outer(vv, vv)))
    res = yuen_kennedy_lax(states, [1.0 / 3.0] * 3)
    assert res.p_succ == pytest.approx(2.0 / 3.0, abs=1e-6)
    total = sum(m.data for m in res.povm)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-6)
    assert res.slack < 1e-6
    assert min_eig(res.witness.data) > -1e-8


def test_ykl_witness_dominates_every_weighted_state(rng):
    """W = lambda R tops each p_i rho_i, and Tr W is the success probability.

    Tr W is lambda, the dual value, which exceeds p_succ by the duality gap:
    a tight tol brings that gap well below 1e-8.
    """
    lab = SystemLabel("y", 3)
    states = [LabeledOperator((lab,), random_density(rng, 3))
              for _ in range(4)]
    priors = rng.dirichlet(np.ones(4))
    res = yuen_kennedy_lax(states, priors, SolverOptions(tol=1e-10))
    for p, rho in zip(priors, states):
        assert min_eig(res.witness.data - p * rho.data) >= -1e-8
    trace = np.trace(res.witness.data).real
    assert trace == pytest.approx(res.solution.lambda_, rel=1e-12)
    assert abs(trace - res.p_succ) <= 1e-8


def test_ykl_rejects_mixed_labels():
    from qnetopt.errors import ShapeMismatch
    a = LabeledOperator((SystemLabel("y1", 2),), np.eye(2) / 2.0)
    b = LabeledOperator((SystemLabel("y2", 2),), np.eye(2) / 2.0)
    with pytest.raises(ShapeMismatch):
        yuen_kennedy_lax([a, b], [0.5, 0.5])


def test_memory_comb_strategy_value_is_feasible(rng):
    """The solver's certificate bounds the value of unrelated strategies too."""
    p = random_channel_problem(rng, 2, [(2, 2), (2, 2)], memory=True)
    sol = solve(p)
    lam, cert = sol.lambda_, sol.comb_certificate
    rep = certify_dual(lam, cert, p)
    assert rep.certified and rep.lambda_ >= sol.gamma_primal - 1e-8
