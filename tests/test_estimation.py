"""Estimation problems: payoff operators, expected payoff, joint products."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (helstrom_problem, hs_inner, is_psd,
                      random_product_tester, state_problems, uniform_tester)
from qnetopt.errors import BadParameter, DuplicateLabel, ShapeMismatch
from qnetopt.estimation import (EstimationProblem, expected_payoff,
                                joint_problem, payoff_operators,
                                problem_from_raw_payoff)
from qnetopt.networks import born_probability, validate_tester


def test_prior_must_normalize():
    p = helstrom_problem()
    with pytest.raises(BadParameter, match="sums to"):
        EstimationProblem(p.space, p.labels_x, np.array([0.5, 0.6]), p.combs,
                          p.payoff)


def test_negative_payoff_rejected():
    p = helstrom_problem()
    with pytest.raises(BadParameter, match="shift"):
        EstimationProblem(p.space, p.labels_x, p.prior, p.combs,
                          np.array([[1.0, -0.2], [0.0, 1.0]]))


@pytest.mark.parametrize("field, value", [
    ("prior", "ab"), ("prior", [[0.5], [0.5, 0.5]]),
    ("payoff", "ab"), ("payoff", [[1.0, 0.0], [0.0]]),
    ("payoff_shift", "abc"),
    # numpy would cast a complex array to its real part, with only a warning
    ("prior", np.array([0.5 + 0.3j, 0.5])),
    ("payoff", np.array([[1.0, 0.2j], [0.0, 1.0]])),
], ids=["prior-string", "prior-ragged", "payoff-string", "payoff-ragged",
        "shift-string", "prior-complex-array", "payoff-complex-array"])
def test_unreadable_numbers_are_bad_parameters(field, value):
    p = helstrom_problem()
    fields = dict(prior=p.prior, payoff=p.payoff, payoff_shift=0.0)
    fields[field] = value
    with pytest.raises(BadParameter, match=field):
        EstimationProblem(p.space, p.labels_x, combs=p.combs, **fields)


def test_repeated_labels_rejected():
    p = helstrom_problem()
    with pytest.raises(BadParameter):
        EstimationProblem(p.space, (0, 0), p.prior, p.combs, p.payoff)


def test_payoff_operators_are_psd_and_linear():
    p = helstrom_problem()
    ops = payoff_operators(p)
    assert ops.shape == (2, 2, 2) and not ops.flags.writeable
    for k, g in enumerate(ops):
        assert is_psd(p.combs[k].op.with_data(g))
        manual = sum(p.prior[j] * p.payoff[k, j] * p.combs[j].op.data
                     for j in range(2))
        np.testing.assert_allclose(g, manual, atol=1e-12)


def test_expected_payoff_matches_born_sums(rng):
    p = helstrom_problem()
    tester = validate_tester(uniform_tester(p.space, p.labels_x))
    manual = 0.0
    for i, x_est in enumerate(p.labels_x):
        t_op = dict(tester.outcomes)[x_est]
        for j, x_true in enumerate(p.labels_x):
            manual += (p.prior[j] * p.payoff[i, j]
                       * born_probability(t_op, p.combs[j]))
    assert expected_payoff(tester, p) == pytest.approx(manual, abs=1e-10)


def test_expected_payoff_rejects_outcome_mismatch(rng):
    p = helstrom_problem()
    t = random_product_tester(rng, p.space, 3)  # ids "0","1","2" as strings
    from qnetopt.errors import OutcomeMismatch
    with pytest.raises(OutcomeMismatch):
        expected_payoff(validate_tester(t), p)


def test_joint_problem_structure():
    a = helstrom_problem("ja")
    b = helstrom_problem("jb")
    j = joint_problem([a, b])
    assert j.num_params == 4
    assert j.labels_x[0] == (0, 0)
    np.testing.assert_allclose(
        j.prior.reshape(2, 2), np.outer(a.prior, b.prior), atol=1e-12)
    # payoff indexes (est pair, true pair) as the product of the factors
    g = j.payoff.reshape(2, 2, 2, 2)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert g[i1, i2, j1, j2] == pytest.approx(
                        a.payoff[i1, j1] * b.payoff[i2, j2])


def test_joint_problem_rejects_shared_labels():
    a = helstrom_problem("shared")
    b = helstrom_problem("shared")
    with pytest.raises(DuplicateLabel):
        joint_problem([a, b])


def test_problem_from_raw_payoff_shifts_negative_scores():
    p = helstrom_problem()
    raw = np.array([[0.5, -1.0], [-0.25, 0.5]])
    q = problem_from_raw_payoff(p.space, p.labels_x, p.prior, p.combs, raw)
    assert q.payoff_shift == pytest.approx(1.0)
    assert q.payoff.min() >= 0.0
    np.testing.assert_allclose(q.payoff, raw + 1.0)


def test_problem_from_raw_payoff_keeps_nonnegative_scores():
    p = helstrom_problem()
    q = problem_from_raw_payoff(p.space, p.labels_x, p.prior, p.combs, p.payoff)
    assert q.payoff_shift == 0.0


@settings(max_examples=25, deadline=None)
@given(problem=state_problems())
def test_payoff_pairing_consistent(problem):
    """<G_est, T> summed over a uniform tester equals the expected payoff."""
    tester = validate_tester(uniform_tester(problem.space, problem.labels_x))
    ops = payoff_operators(problem)
    acc = 0.0
    for g, x in zip(ops, problem.labels_x):
        t = dict(tester.outcomes)[x]
        acc += hs_inner(t.with_data(g), t).real
    assert expected_payoff(tester, problem) == pytest.approx(acc, abs=1e-9)


def test_comb_space_mismatch_rejected():
    a = helstrom_problem("ma")
    b = helstrom_problem("mb")
    with pytest.raises(ShapeMismatch):
        EstimationProblem(a.space, a.labels_x, a.prior, b.combs, a.payoff)
