"""solve on a diagonal orbit: detection, the seed program and its lift."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import orbit_route, sequential_phase_problem, skewed_prior

from qnetopt import serde
from qnetopt.cli import main
from qnetopt.covariant import (covariant_gamma, phase_grid_problem,
                               two_phase_problem)
from qnetopt.errors import NumericalFailure
from qnetopt.estimation import EstimationProblem
from qnetopt.instances import random_channel_problem, random_state_problem
from qnetopt.networks import (choi_of_channel, comb_of_memoryless_sequence,
                              comb_of_state)
from qnetopt.operators import LabeledOperator, SystemLabel
from qnetopt.sdp import SolverOptions, certify_dual, engine, solve
from qnetopt.sdp.engine import solve_program, yuen_kennedy_lax
from qnetopt.sdp.standard_form import charge_sectors, diagonal_orbit

ORBITS = {
    "grid-3": lambda: phase_grid_problem(3)[0],
    "grid-4": lambda: phase_grid_problem(4)[0],
    "grid-5": lambda: phase_grid_problem(5)[0],
    "two-phase": lambda: two_phase_problem(0.7, 8)[0],
    "seq-3": lambda: sequential_phase_problem(3)[0],
}


def _direct(problem):
    """The caller's K-outcome program: (gamma_primal, lambda) unshifted."""
    _, _, primal, lambda_, _, report = solve_program(problem, SolverOptions())
    assert report.certified
    return primal - problem.payoff_shift, lambda_


def _same_solution(a, b):
    """Bitwise-equal values, certificate, tester and iterations."""
    assert (a.gamma_primal, a.gamma_dual, a.lambda_, a.iterations) == (
        b.gamma_primal, b.gamma_dual, b.lambda_, b.iterations)
    np.testing.assert_array_equal(a.comb_certificate.op.data,
                                  b.comb_certificate.op.data)
    for (la, ta), (lb, tb) in zip(a.tester.outcomes, b.tester.outcomes):
        assert la == lb
        np.testing.assert_array_equal(ta.data, tb.data)


@pytest.mark.parametrize("case", sorted(ORBITS))
def test_the_orbit_route_agrees_with_the_direct_program(case):
    problem = ORBITS[case]()
    sol = solve(problem)
    assert sol.route == "orbit"
    gamma, lambda_ = _direct(problem)
    assert abs(sol.gamma_primal - gamma) <= 1e-8
    assert abs(sol.lambda_ - lambda_) <= 1e-8
    assert sol.gap <= 1e-7 and sol.certificate.certified
    # one margin per caller outcome, and a cold re-check certifies
    assert len(sol.certificate.margins) == problem.num_params
    assert certify_dual(sol.lambda_, sol.comb_certificate, problem).certified
    assert [m for m, _ in sol.tester.outcomes] == list(problem.labels_x)


def test_the_orbit_found_on_a_grid_is_its_phase_group():
    problem, action = phase_grid_problem(3)
    characters, phases = diagonal_orbit(problem, charge_sectors(problem))
    # R_x = U_x R_0 U_x^H at full size, U_x = diag(phases[:, x])
    for x, comb in enumerate(problem.combs):
        u = phases[:, x]
        np.testing.assert_allclose(
            u[:, None] * problem.combs[0].op.data * u.conj()[None, :],
            comb.op.data, atol=1e-12)
    # every factor's phases form the same cyclic group as the action's
    (chars,) = characters.values()
    assert chars.shape == (3, action.size)
    np.testing.assert_allclose(chars[:, 1] ** action.size, 1.0, atol=1e-12)


def _perturbed(problem, x, eps):
    """problem with comb x's channel phases shifted by eps on level 1."""
    step = problem.space.steps[0]
    levels = step.out_sys.dim
    phases = np.exp(2j * np.pi * x * np.arange(levels)
                    / problem.num_params)
    phases[1] *= np.exp(1j * eps)
    comb = comb_of_memoryless_sequence(
        [choi_of_channel([np.diag(phases)], step.in_sys, step.out_sys)])
    combs = list(problem.combs)
    combs[x] = comb
    return EstimationProblem(problem.space, problem.labels_x, problem.prior,
                             tuple(combs), problem.payoff,
                             problem.payoff_shift)


def test_a_comb_off_the_orbit_takes_the_direct_program():
    problem = _perturbed(phase_grid_problem(3)[0], 2, 1e-6)
    assert diagonal_orbit(problem, charge_sectors(problem)) is None
    sol = solve(problem)
    assert sol.route == "direct" and sol.certificate.certified
    gamma, lambda_ = _direct(problem)
    assert (sol.gamma_primal, sol.lambda_) == (gamma, lambda_)


def test_phases_that_form_no_group_take_the_direct_program():
    # three points of the 8-point grid: U_2^-1 U_0 is on no label
    full = phase_grid_problem(3)[0]
    keep = [0, 1, 2]
    problem = EstimationProblem(full.space, tuple(keep), np.full(3, 1.0 / 3),
                                tuple(full.combs[x] for x in keep),
                                full.payoff[np.ix_(keep, keep)],
                                full.payoff_shift)
    assert diagonal_orbit(problem, charge_sectors(problem)) is None
    assert solve(problem).route == "direct"


def _skewed_payoff(problem):
    payoff = problem.payoff.copy()
    payoff[1, 2] += 0.25
    return EstimationProblem(problem.space, problem.labels_x, problem.prior,
                             problem.combs, payoff, problem.payoff_shift)


@pytest.mark.parametrize("change", [skewed_prior, _skewed_payoff],
                         ids=["prior", "payoff"])
def test_no_orbit_gives_the_direct_solution_bitwise(change, monkeypatch):
    problem = change(phase_grid_problem(3)[0])
    torus = charge_sectors(problem)
    assert torus.charges and diagonal_orbit(problem, torus) is None
    sol = solve(problem)
    assert sol.route == "direct"
    # the direct program with detection skipped: today's path
    monkeypatch.setattr(engine, "diagonal_orbit", lambda problem, torus: None)
    _same_solution(sol, solve(problem))


def _unreachable(*args):
    raise AssertionError("a trivial torus reached the orbit detection")


@pytest.mark.parametrize("make", [
    lambda: random_channel_problem(np.random.default_rng(1), 3,
                                   [(2, 2), (2, 2)], memory=True),
    lambda: random_state_problem(np.random.default_rng(2), 4, 3),
], ids=["memory-chain", "state"])
def test_a_trivial_torus_never_reaches_detection(make, monkeypatch):
    problem = make()
    assert not charge_sectors(problem).charges
    monkeypatch.setattr("qnetopt.sdp.standard_form.joint_entries", _unreachable)
    sol = solve(problem)
    assert sol.route == "direct" and sol.certificate.certified


def _psk_qutrit(levels, states=3):
    """Phase-shift-keyed qubit states, on two levels of a qutrit.

    A qubit's PSK states have no zero entry, so their torus is trivial; the
    unused third level gives the combs a torus, and solve finds the orbit.
    """
    vectors = np.zeros((states, 3), complex)
    vectors[:, levels[0]] = 1.0
    vectors[:, levels[1]] = np.exp(2j * np.pi * np.arange(states) / states)
    return [LabeledOperator((SystemLabel("psk", 3),),
                            np.outer(v, v.conj()) / 2.0) for v in vectors]


# levels 1 and 2: the phase walk cannot start from level 0
@pytest.mark.parametrize("levels", [(0, 1), (1, 2)], ids=["01", "12"])
def test_yuen_kennedy_lax_on_a_psk_orbit_matches_the_direct_program(levels):
    states = _psk_qutrit(levels)
    ykl = yuen_kennedy_lax(states, [1.0 / 3] * 3)
    assert ykl.solution.route == "orbit"
    combs = tuple(comb_of_state(s) for s in states)
    problem = EstimationProblem(combs[0].space, (0, 1, 2),
                                np.full(3, 1.0 / 3), combs, np.eye(3))
    gamma, _ = _direct(problem)
    assert abs(ykl.p_succ - gamma) <= 1e-8
    assert abs(ykl.p_succ - 2.0 / 3.0) <= 1e-7  # three trine-like states
    assert ykl.slack <= 1e-6


def test_a_mutated_lifted_outcome_raises_numerical_failure(monkeypatch):
    real = engine.Tester

    def mutated(space, outcomes):
        (label, op), rest = outcomes[0], tuple(outcomes[1:])
        bad = op.with_data(op.data - 1e-3 * np.eye(len(op.data)))
        return real(space, ((label, bad),) + rest)

    monkeypatch.setattr(engine, "Tester", mutated)
    problem = phase_grid_problem(3)[0]
    with pytest.raises(NumericalFailure, match="failed validation"):
        orbit_route(problem)
    # solve falls back to the direct program, whose tester fails alike
    with pytest.raises(NumericalFailure, match="failed validation"):
        solve(problem)


def test_a_failed_route_falls_back_to_the_direct_program(monkeypatch):
    tried = []

    def failing(*args):
        tried.append(args)
        raise NumericalFailure("route check failed")

    problem = phase_grid_problem(3)[0]
    monkeypatch.setattr(engine, "_orbit_solution", failing)
    sol = solve(problem)
    assert len(tried) == 1
    assert sol.route == "direct" and sol.certificate.certified


def test_the_route_agrees_with_covariant_gamma():
    problem, action = phase_grid_problem(4)
    sol, res = solve(problem), covariant_gamma(problem, action)
    assert abs(sol.lambda_ - res.gamma_max) <= 1e-10
    np.testing.assert_allclose(sol.comb_certificate.op.data,
                               res.invariant_op.data, atol=1e-10)


def test_cli_solve_of_a_grid_reports_the_route_and_cold_dual_check(
        tmp_path, capsys):
    problem = phase_grid_problem(4)[0]
    path, sol_path = tmp_path / "grid.json", tmp_path / "solution.json"
    serde.dump_path(serde.problem_to_json(problem), str(path))
    assert main(["solve", str(path), "--out", str(sol_path)]) == 0
    assert "orbit route" in capsys.readouterr().err
    doc = json.loads(sol_path.read_text())
    assert "route" not in doc and "orbit" not in sol_path.read_text()

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    def dual_check(solution):
        return subprocess.run(
            [sys.executable, "-m", "qnetopt.cli", "dual-check", str(path),
             str(solution), "--quiet"], env=env, timeout=120).returncode

    assert dual_check(sol_path) == 0
    doc["lambda"] -= 1e-3
    lowered = tmp_path / "lowered.json"
    serde.dump_path(doc, str(lowered))
    assert dual_check(lowered) == 2
