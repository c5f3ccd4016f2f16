"""End-to-end checks for the headline behaviors, one per numbered gate.

Each test computes its verdict, records a pass/fail line for the terminal
summary, and only then asserts, so a red run still reports every gate.
"""

import time

import numpy as np
import pytest
from conftest import (HELSTROM_VALUE, coords_from_hermitian, helstrom_problem,
                      hermitian_from_coords, random_product_pair,
                      random_product_tester, record_acceptance)

from qnetopt.covariant import (FiniteGroupAction, covariant_gamma,
                               cyclic_group, phase_estimation_optimum,
                               phase_grid_problem, qmax_state, sum_of_phases)
from qnetopt.estimation import EstimationProblem
from qnetopt.instances import random_memory_comb, random_problem
from qnetopt.networks import CombSpace, born_probability, comb_of_state
from qnetopt.operators import LabeledOperator, SystemLabel, partial_trace
from qnetopt.product_rule import (counterexample_correlated_payoff,
                                  counterexample_multicopy,
                                  verify_product_rule)
from qnetopt.sdp import SolverOptions, certify_dual, solve
from qnetopt.sdp.engine import solve_program


def _finish(number, label, ok, detail):
    record_acceptance(number, label, ok, detail)
    assert ok, "%s: %s" % (label, detail)


def test_c1_two_state_discrimination():
    t0 = time.perf_counter()
    sol = solve(helstrom_problem())
    elapsed = time.perf_counter() - t0
    err = abs(sol.gamma_primal - HELSTROM_VALUE)
    _finish(1, "two-state discrimination optimum", err <= 1e-6 and elapsed < 1.0,
            "gamma %.9f, err %.2e, %.3fs" % (sol.gamma_primal, err, elapsed))


def test_c2_random_corpus_solved_and_certified():
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst_gap, worst_margin, n = 0.0, np.inf, 50
    all_ok = True
    for _ in range(n):
        problem = random_problem(rng)
        sol = solve(problem)
        rep = certify_dual(sol.lambda_, sol.comb_certificate, problem)
        worst_gap = max(worst_gap, sol.rel_gap)
        worst_margin = min(worst_margin, rep.min_margin)
        all_ok = all_ok and sol.rel_gap <= 1e-7 and rep.certified
    elapsed = time.perf_counter() - t0
    _finish(2, "random corpus with dual certificates",
            all_ok and elapsed < 300.0,
            "%d problems, worst rel gap %.2e, worst margin %.2e, %.1fs"
            % (n, worst_gap, worst_margin, elapsed))


def test_c3_product_rule_over_random_pairs():
    rng = np.random.default_rng(0xFACADE)
    t0 = time.perf_counter()
    n, worst_dev, all_ok = 20, 0.0, True
    for _ in range(n):
        a, b = random_product_pair(rng)
        rep = verify_product_rule([a, b])
        bound = 3e-6 * (1.0 + rep.product_of_factors)
        dev = abs(rep.gamma_joint - rep.product_of_factors)
        worst_dev = max(worst_dev, dev / (1.0 + rep.product_of_factors))
        all_ok = all_ok and dev <= bound and rep.certified
    elapsed = time.perf_counter() - t0
    _finish(3, "joint optimum factorizes over independent pairs",
            all_ok and elapsed < 600.0,
            "%d pairs, worst scaled deviation %.2e, %.1fs"
            % (n, worst_dev, elapsed))


def test_c4_correlated_payoff_beats_every_product():
    worst_gamma_err, all_ok, notes = 0.0, True, []
    for p in (0.3, 0.5, 0.7):
        rep = counterexample_correlated_payoff(p, d_grid=8)
        err = abs(rep.gamma_joint - max(p, 1.0 - p) / 2.0)
        worst_gamma_err = max(worst_gamma_err, err)
        all_ok = all_ok and err <= 1e-5
        if p == 0.7:
            all_ok = all_ok and rep.bell_sq_overlap >= 0.999
            notes.append("overlap^2 %.6f" % rep.bell_sq_overlap)
        if p == 0.5:
            prod_err = abs(rep.product_grid_value - 0.25)
            all_ok = all_ok and prod_err <= 1e-6
            notes.append("product err %.2e" % prod_err)
    _finish(4, "correlated payoff on independent channels",
            all_ok, "worst gamma err %.2e, %s" % (worst_gamma_err,
                                                  ", ".join(notes)))


def test_c5_phase_cost_matches_oracle():
    worst, all_ok, flags = 0.0, True, []
    for d in range(2, 6):
        problem, _action = phase_grid_problem(d)
        sol = solve(problem)
        c_sdp = 2.0 * (1.0 - sol.gamma_primal)
        oracle = phase_estimation_optimum(d)
        err = abs(c_sdp - oracle.c_min)
        worst = max(worst, err)
        all_ok = all_ok and err <= 1e-6
        flags.append("d=%d quoted %.6f (matches=%s)"
                     % (d, oracle.quoted_value, oracle.quoted_matches))
        assert isinstance(oracle.quoted_matches, bool)
    _finish(5, "phase cost against the exact tridiagonal optimum",
            all_ok, "worst err %.2e; %s" % (worst, "; ".join(flags)))


def test_c6_entangled_vs_product_cost_ratio():
    all_ok, notes = True, []
    for copies in (2, 3, 4):
        gaps = [abs(sum_of_phases(d, copies).ratio - copies)
                for d in (8, 16, 32)]
        within = gaps[0] <= 0.15 * copies
        trending = gaps[0] > gaps[1] > gaps[2]
        all_ok = all_ok and within and trending
        notes.append("K=%d off by %.1f%%" % (copies, 100.0 * gaps[0] / copies))
    _finish(6, "copies multiply the cost ratio", all_ok, ", ".join(notes))


def test_c7_two_copies_beat_independent_singles():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rep = counterexample_multicopy(np.array([1.0, 0.0]), plus, (0.5, 0.5), 2)
    err = abs(rep.p_multi - 0.9330127018922194)
    ok = err <= 1e-9 and rep.p_multi > rep.p_single_power
    _finish(7, "two-copy discrimination value",
            ok, "p(2)=%.12f (err %.1e), advantage %.6f"
            % (rep.p_multi, err, rep.advantage))


def test_c8_covariant_reduction_agrees_with_direct_solve():
    problem, action = phase_grid_problem(2)
    # the caller's K-outcome program: solve would take the orbit route
    _, direct, _, _, _, _ = solve_program(problem, SolverOptions())
    red = covariant_gamma(problem, action)
    stored = -direct.pobj
    err_gamma = abs(red.gamma_max - stored)
    err_split = abs(red.gamma_max * red.q_max - red.gamma_0)

    # orthogonal two-element orbit: domination level 1/2, perfect guessing
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    q_lab = SystemLabel("q", 2)
    flip = FiniteGroupAction(*cyclic_group(2), {"q": {0: np.eye(2), 1: x}})
    q, _rho = qmax_state(LabeledOperator((q_lab,), np.diag([1.0, 0.0])), flip)
    combs = tuple(comb_of_state(LabeledOperator((q_lab,), np.diag(e)))
                  for e in ([1.0, 0.0], [0.0, 1.0]))
    orbit = EstimationProblem(combs[0].space, (0, 1), np.array([0.5, 0.5]),
                              combs, np.eye(2))
    p_succ = solve(orbit).gamma_primal

    ok = (err_gamma <= 1e-6 and err_split <= 1e-8
          and abs(q - 0.5) <= 1e-6 and abs(p_succ - 1.0) <= 1e-6)
    _finish(8, "covariant reduction", ok,
            "gamma err %.2e, split err %.2e, q=%.6f, p_succ=%.6f"
            % (err_gamma, err_split, q, p_succ))


def test_c9_property_suites_scale():
    cases = 1000
    t0 = time.perf_counter()

    g = np.random.default_rng(11)
    for _ in range(cases):
        da, db = int(g.integers(2, 4)), int(g.integers(2, 4))
        fa, fb = SystemLabel("a", da), SystemLabel("b", db)
        m1 = g.normal(size=(da * db, da * db)) + 1j * g.normal(size=(da * db, da * db))
        m2 = g.normal(size=(da * db, da * db)) + 1j * g.normal(size=(da * db, da * db))
        op1, op2 = LabeledOperator((fa, fb), m1), LabeledOperator((fa, fb), m2)
        red = partial_trace(op1, ["a"])
        assert np.trace(red.data) == pytest.approx(np.trace(m1), abs=1e-9)
        both = partial_trace(LabeledOperator((fa, fb), 2.0 * m1 - 0.5 * m2), ["a"])
        assert np.allclose(both.data,
                           2.0 * red.data - 0.5 * partial_trace(op2, ["a"]).data,
                           atol=1e-9)
    t_ops = time.perf_counter() - t0

    g = np.random.default_rng(12)
    for i in range(cases):
        steps = int(g.integers(1, 3))
        space = CombSpace(tuple((SystemLabel("i%d" % k, 2), SystemLabel("o%d" % k, 2))
                                for k in range(steps)))
        comb = random_memory_comb(g, space)
        tester = random_product_tester(g, space, int(g.integers(2, 5)))
        probs = [born_probability(op, comb) for _m, op in tester.outcomes]
        assert min(probs) >= -1e-9
        assert sum(probs) == pytest.approx(1.0, abs=1e-8)
    t_born = time.perf_counter() - t0 - t_ops

    g = np.random.default_rng(13)
    for _ in range(cases):
        d = int(g.integers(2, 6))
        m = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        h = (m + m.conj().T) / 2.0
        assert np.allclose(hermitian_from_coords(coords_from_hermitian(h), d),
                           h, atol=1e-10)
    elapsed = time.perf_counter() - t0

    _finish(9, "property suites at scale", elapsed < 120.0,
            "%d cases each: traces %.1fs, outcome sums %.1fs, coordinates %.1fs"
            % (cases, t_ops, t_born, elapsed - t_ops - t_born))
