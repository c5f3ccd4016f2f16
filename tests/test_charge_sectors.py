"""The combs' local torus: its detection, and solves on its charge sectors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qnetopt import serde
from qnetopt.cli import main
from qnetopt.covariant import (phase_estimation_optimum, phase_grid_problem,
                               two_phase_problem)
from qnetopt.estimation import EstimationProblem, payoff_operators
from qnetopt.instances import (random_channel_problem, random_sequence_comb,
                               random_state_problem)
from qnetopt.networks import QuantumComb, validate_comb, validate_tester
from qnetopt.operators import SystemLabel
from qnetopt.sdp import SolverOptions, certify_dual, engine, solve
from qnetopt.sdp.standard_form import (CHARGE_DECIMALS, ChargeSectors,
                                       build_primal, charge_sectors)


def sector_sides(problem):
    labels = charge_sectors(problem).labels(problem.space.factors())
    return sorted(np.bincount(labels).tolist(), reverse=True)


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_phase_grid_has_one_level_sector_and_singletons(levels):
    problem = phase_grid_problem(levels)[0]
    assert sector_sides(problem) == [levels] + [1] * (levels ** 2 - levels)
    torus = charge_sectors(problem)
    sdp = build_primal(problem, sectors=torus)
    # one row for the trace, then the invariant coordinates of level 1, less
    # Xi^(1)'s: the input levels carry distinct charges, so Xi^(1) is
    # diagonal and levels of them
    labels = torus.labels(problem.space.factors())
    invariant = np.count_nonzero(labels[:, None] == labels[None, :])
    assert invariant == 2 * levels ** 2 - levels
    assert len(sdp.coords[1]) == invariant - levels
    assert sdp.cmap.m == 1 + 2 * levels ** 2 - 2 * levels


def test_two_phase_splits_four_and_twelve_singletons():
    assert sector_sides(two_phase_problem(1.0)[0]) == [4] + [1] * 12


@pytest.mark.parametrize("make", [
    lambda g: random_state_problem(g, 3, 3),
    lambda g: random_channel_problem(g, 2, [(2, 2)]),
    lambda g: random_channel_problem(g, 2, [(2, 2), (2, 2)], memory=True),
])
def test_random_problems_have_the_trivial_torus(make):
    problem = make(np.random.default_rng(4))
    assert charge_sectors(problem).charges == {}
    assert sector_sides(problem) == [problem.combs[0].op.dim]


def test_a_tiny_full_comb_mixed_in_gives_the_trivial_torus():
    problem = phase_grid_problem(3)[0]
    noise = random_sequence_comb(np.random.default_rng(1), problem.space)
    op = problem.combs[0].op
    mixed = validate_comb(QuantumComb(problem.space, op.with_data(
        op.data * (1.0 - 1e-12) + noise.op.data * 1e-12)))
    combs = (mixed,) + problem.combs[1:]
    assert charge_sectors(problem).charges != {}
    assert charge_sectors(EstimationProblem(
        problem.space, problem.labels_x, problem.prior, combs,
        problem.payoff)).charges == {}


def test_a_sector_that_rounding_splits_gives_the_trivial_torus(monkeypatch):
    # a sector's charges agree only up to float error; should rounding label
    # one of its positions apart, a comb entry joins it to the others, and
    # the torus is not used
    problem = phase_grid_problem(3)[0]
    real_labels = ChargeSectors.labels

    def split(self, factors):
        labels = real_labels(self, factors).copy()
        if labels.any():
            largest = np.flatnonzero(labels == np.bincount(labels).argmax())
            labels[largest[-1]] = labels.max() + 1
        return labels

    monkeypatch.setattr(ChargeSectors, "labels", split)
    assert charge_sectors(problem).charges == {}
    sol = solve(problem)
    assert sol.certificate.certified
    assert abs(sol.gamma_primal - phase_estimation_optimum(3).cos_max) <= 1e-7


def test_sectors_are_numbered_as_np_unique_numbers_the_charges():
    # the direct program's block and group order follows this numbering
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = int(rng.integers(1, 4))
        factors = [SystemLabel("f%d" % i, int(d))
                   for i, d in enumerate(rng.integers(1, 4, rng.integers(1, 4)))]
        charges = {f.id: rng.integers(-3, 4, (f.dim, r)) / 7.0 for f in factors}
        q = np.zeros((1, r))
        for f in factors:
            q = (q[:, None, :] + charges[f.id][None]).reshape(-1, r)
        keys = np.rint(q * 10.0 ** CHARGE_DECIMALS).astype(np.int64)
        np.testing.assert_array_equal(
            ChargeSectors(charges).labels(factors),
            np.unique(keys, axis=0, return_inverse=True)[1].ravel())


def test_combs_and_payoffs_are_exactly_zero_off_the_sectors():
    for problem in (phase_grid_problem(4)[0], two_phase_problem(0.7, 4)[0]):
        labels = charge_sectors(problem).labels(problem.space.factors())
        off = labels[:, None] != labels[None, :]
        for op in [c.op.data for c in problem.combs] + list(
                payoff_operators(problem)):
            assert not np.any(op[off])


def _built_programs(monkeypatch):
    """The programs solve builds, in order, once it is called."""
    built = []
    real_build = engine.build_primal

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(engine, "build_primal", build)
    return built


@pytest.mark.parametrize("levels", [3, 4, 5, 6])
def test_direct_solve_on_the_sectors_matches_the_oracle(levels, monkeypatch,
                                                      direct_route):
    built = _built_programs(monkeypatch)
    problem = phase_grid_problem(levels)[0]
    sol = solve(problem)
    assert sol.route == "direct"
    assert built[0].cmap.m == 1 + 2 * levels ** 2 - 2 * levels
    oracle = phase_estimation_optimum(levels).cos_max
    assert abs(sol.gamma_primal - oracle) <= 1e-7
    assert abs(sol.gamma_dual - oracle) <= 1e-7
    assert sol.certificate.certified

    # the full-size tester is valid and exactly zero off the sectors
    validate_tester(sol.tester, 1e-7)
    labels = charge_sectors(problem).labels(problem.space.factors())
    off = labels[:, None] != labels[None, :]
    for _, op in sol.tester.outcomes:
        assert not np.any(op.data[off])
    assert not np.any(sol.comb_certificate.op.data[off])


@pytest.mark.parametrize("levels", [3, 4, 5, 6])
def test_orbit_solve_on_the_sectors_matches_the_oracle(levels, monkeypatch):
    built = _built_programs(monkeypatch)
    problem = phase_grid_problem(levels)[0]
    sol = solve(problem)
    # the seed program alone: the characters split the diagonal sector
    # into singletons, so level 1 keeps its L^2 diagonal coordinates less
    # Xi^(1)'s L
    assert sol.route == "orbit" and len(built) == 1
    assert built[0].cmap.m == 1 + levels ** 2 - levels
    oracle = phase_estimation_optimum(levels).cos_max
    assert abs(sol.gamma_primal - oracle) <= 1e-7
    assert abs(sol.gamma_dual - oracle) <= 1e-7
    assert sol.certificate.certified
    assert len(sol.certificate.margins) == problem.num_params
    validate_tester(sol.tester, 1e-7)
    labels = charge_sectors(problem).labels(problem.space.factors())
    off = labels[:, None] != labels[None, :]
    for _, op in sol.tester.outcomes:
        assert not np.any(op.data[off])
    assert not np.any(sol.comb_certificate.op.data[off])


# sector programs, then programs of the trivial torus; the sector
# programs' combs are orbits, which solve takes the orbit route on
PROBLEMS = {"grid-%d" % levels: lambda levels=levels:
            phase_grid_problem(levels)[0] for levels in range(3, 9)}
PROBLEMS["two-phase"] = lambda: two_phase_problem(0.7, 4)[0]
ORBITS = list(PROBLEMS)
PROBLEMS["memory-2x22"] = lambda: random_channel_problem(
    np.random.default_rng(6), 2, [(2, 2), (2, 2)], memory=True)
PROBLEMS["states-4x3"] = lambda: random_state_problem(
    np.random.default_rng(6), 4, 3)
TOL = 10 * SolverOptions().tol  # the tolerance solve certifies with


@pytest.mark.parametrize("name", PROBLEMS)
def test_solve_margins_on_the_sectors_are_the_full_size_margins(
        name, direct_route):
    problem = PROBLEMS[name]()
    sol = solve(problem)
    assert sol.route == "direct"
    full = certify_dual(sol.lambda_, sol.comb_certificate, problem, TOL)
    if charge_sectors(problem).charges:
        np.testing.assert_allclose(sol.certificate.margins, full.margins,
                                   rtol=0, atol=1e-12)
    else:  # one sector, the whole space: the same matrices
        assert sol.certificate.margins == full.margins
    assert sol.certificate.certified and full.certified


@pytest.mark.parametrize("name", ORBITS)
def test_orbit_margins_on_the_sectors_are_the_full_size_margins(name):
    # one margin a caller outcome, lambda R - G_y on the torus blocks
    problem = PROBLEMS[name]()
    sol = solve(problem)
    assert sol.route == "orbit"
    full = certify_dual(sol.lambda_, sol.comb_certificate, problem, TOL)
    np.testing.assert_allclose(sol.certificate.margins, full.margins,
                               rtol=0, atol=1e-12)
    assert sol.certificate.certified and full.certified


@pytest.mark.parametrize("name", PROBLEMS)
def test_outcome_blocks_hold_the_largest_payoff_eigenvalue(name):
    problem = PROBLEMS[name]()
    sdp = build_primal(problem, sectors=charge_sectors(problem))
    blocks = max(np.linalg.eigvalsh(-c)[..., -1].max()
                 for c in sdp.C)
    full = np.linalg.eigvalsh(payoff_operators(problem))[:, -1].max()
    assert abs(blocks - full) <= 1e-12 * abs(full)


def test_phase_grid_solution_file_passes_dual_check_cold(tmp_path):
    problem_path = tmp_path / "problem.json"
    solution_path = tmp_path / "solution.json"
    lowered_path = tmp_path / "lowered.json"
    serde.dump_path(serde.problem_to_json(phase_grid_problem(4)[0]),
                    str(problem_path))
    assert main(["solve", str(problem_path), "--out", str(solution_path),
                 "--quiet"]) == 0
    doc = serde.load_path(str(solution_path))
    doc["lambda"] = doc["lambda"] - 1e-3
    serde.dump_path(doc, str(lowered_path))

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    def dual_check(path):
        return subprocess.run(
            [sys.executable, "-m", "qnetopt.cli", "dual-check",
             str(problem_path), str(path), "--quiet"],
            capture_output=True, text=True, env=env, timeout=120).returncode

    assert dual_check(solution_path) == 0
    assert dual_check(lowered_path) == 2


def test_ten_level_grid_certifies(capsys):
    # 191 rows; the sum of its full block sides once kept it out
    sol = solve(phase_grid_problem(10)[0])
    assert sol.certificate.certified
    assert sol.gamma_primal == pytest.approx(
        phase_estimation_optimum(10).cos_max, abs=1e-7)
    assert main(["example", "phase", "--levels", "10", "--quiet"]) == 0
    capsys.readouterr()
