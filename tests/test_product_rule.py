"""Product-rule verification and the two counterexample families."""

import numpy as np
import pytest
from conftest import (HELSTROM_VALUE, helstrom_problem, qubit_state_problem,
                      reference_validate_tester)
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetopt.errors import (BadParameter, DimensionCap, NonProductPayoff)
from qnetopt.estimation import (EstimationProblem, expected_payoff,
                                joint_problem, problem_from_raw_payoff)
from qnetopt.networks import tensor_testers
from qnetopt.product_rule import (_pure_input, best_product_input_value,
                                  counterexample_correlated_payoff,
                                  counterexample_multicopy,
                                  verify_product_rule)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
TWIN = HELSTROM_VALUE ** 2  # 0.7285533905932737


def test_twin_helstrom_product():
    rep = verify_product_rule([helstrom_problem("a"), helstrom_problem("b")])
    assert rep.product_of_factors == pytest.approx(TWIN, abs=1e-6)
    assert rep.gamma_joint == pytest.approx(TWIN, abs=2e-6)
    assert rep.relative_deviation <= 1e-6
    assert rep.certified
    assert rep.joint_certificate.lambda_ == pytest.approx(
        np.prod(rep.lambdas), abs=1e-12)


def test_trivial_factors_multiply_to_one():
    ones = [qubit_state_problem("t%d" % i, [np.array([1.0, 0.0])], [1.0])
            for i in range(3)]
    rep = verify_product_rule(ones)
    assert rep.gamma_joint == pytest.approx(1.0, abs=1e-7)
    assert rep.product_of_factors == pytest.approx(1.0, abs=1e-7)
    assert rep.certified


def test_factor_order_does_not_matter():
    a = helstrom_problem("a")
    b = qubit_state_problem("b", [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                            [0.25, 0.75])
    fwd = verify_product_rule([a, b])
    rev = verify_product_rule([b, a])
    assert fwd.gamma_joint == pytest.approx(rev.gamma_joint, abs=2e-7)


def test_supplied_joint_is_checked():
    a, b = helstrom_problem("a"), helstrom_problem("b")
    honest = joint_problem([a, b])
    rep = verify_product_rule([a, b], joint=honest)
    assert rep.certified

    payoff = honest.payoff.copy()
    payoff[0, 1] += 0.1
    correlated = EstimationProblem(honest.space, honest.labels_x, honest.prior,
                                   honest.combs, payoff, honest.payoff_shift)
    with pytest.raises(NonProductPayoff, match="payoff"):
        verify_product_rule([a, b], joint=correlated)


def test_shifted_factor_rejected():
    p = helstrom_problem()
    shifted = problem_from_raw_payoff(p.space, p.labels_x, p.prior, p.combs,
                                      p.payoff - 0.5)
    with pytest.raises(NonProductPayoff, match="shift"):
        verify_product_rule([shifted])


def test_empty_factor_list_rejected():
    with pytest.raises(BadParameter):
        verify_product_rule([])


def test_tensor_tester_attains_the_product():
    a, b = helstrom_problem("a"), helstrom_problem("b")
    rep = verify_product_rule([a, b])
    joined = tensor_testers(rep.factor_solutions[0].tester,
                            rep.factor_solutions[1].tester)
    value = expected_payoff(joined, joint_problem([a, b]))
    assert value == pytest.approx(rep.product_of_factors, abs=2e-6)
    assert value <= rep.gamma_joint + 1e-6


def test_multicopy_frozen_values():
    rep = counterexample_multicopy(np.array([1.0, 0.0]), PLUS, [0.5, 0.5], 2)
    assert rep.overlap == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert rep.p_single == pytest.approx(0.8535533905932737, abs=1e-12)
    assert rep.p_multi == pytest.approx(0.9330127018922194, abs=1e-12)
    assert rep.p_single_power == pytest.approx(0.7285533905932737, abs=1e-12)
    assert rep.advantage == pytest.approx(0.2044593113, abs=1e-9)


def test_multicopy_single_copy_has_no_advantage():
    rep = counterexample_multicopy(np.array([1.0, 0.0]), PLUS, [0.4, 0.6], 1)
    assert rep.p_multi == rep.p_single
    assert rep.advantage == 0.0


def test_multicopy_orthogonal_is_perfect():
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for k in (1, 2, 5):
        rep = counterexample_multicopy(e0, e1, [0.5, 0.5], k)
        assert rep.p_multi == pytest.approx(1.0, abs=1e-12)


def test_multicopy_identical_states_guess_the_prior():
    rep = counterexample_multicopy(PLUS, PLUS, [0.3, 0.7], 4)
    assert rep.p_single == pytest.approx(0.7, abs=1e-12)
    assert rep.p_multi == pytest.approx(0.7, abs=1e-12)


def test_multicopy_guards():
    e0 = np.array([1.0, 0.0])
    with pytest.raises(BadParameter, match="unit"):
        counterexample_multicopy(2.0 * e0, PLUS, [0.5, 0.5], 2)
    with pytest.raises(BadParameter, match="copies"):
        counterexample_multicopy(e0, PLUS, [0.5, 0.5], 0)
    with pytest.raises(BadParameter, match="distribution"):
        counterexample_multicopy(e0, PLUS, [0.5, 0.4], 2)
    with pytest.raises(DimensionCap):
        counterexample_multicopy(e0, PLUS, [0.5, 0.5], 13)


@pytest.mark.parametrize("priors", [[np.nan, 0.5], [0.5, 0.5, 0.7], [1.0]],
                         ids=["nan", "three", "one"])
def test_multicopy_priors_must_be_a_finite_pair(priors):
    with pytest.raises(BadParameter, match="length-2 distribution"):
        counterexample_multicopy(np.array([1.0, 0.0]), PLUS, priors, 2)


@pytest.mark.parametrize("priors", ["ab", [[0.5], [0.5, 0.5]],
                                    np.array([0.5 + 0.3j, 0.5])],
                         ids=["string", "ragged", "complex-array"])
def test_multicopy_unreadable_priors_are_bad_parameters(priors):
    with pytest.raises(BadParameter, match="priors"):
        counterexample_multicopy(np.array([1.0, 0.0]), PLUS, priors, 2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 8))
def test_multicopy_advantage_is_nonnegative(seed, copies):
    g = np.random.default_rng(seed)
    a = g.normal(size=2) + 1j * g.normal(size=2)
    b = g.normal(size=2) + 1j * g.normal(size=2)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    w = g.uniform(0.05, 0.95)
    rep = counterexample_multicopy(a, b, [w, 1.0 - w], copies)
    assert rep.advantage >= -1e-12
    assert rep.p_multi <= 1.0 + 1e-12
    if copies < 8:
        again = counterexample_multicopy(a, b, [w, 1.0 - w], copies + 1)
        assert again.p_multi >= rep.p_multi - 1e-12


def test_product_input_scan_small_p():
    assert best_product_input_value(0.5) == pytest.approx(0.25, abs=1e-12)
    assert best_product_input_value(0.3) == pytest.approx(0.25, abs=1e-12)


def test_correlated_payoff_beats_products():
    rep = counterexample_correlated_payoff(0.7)
    assert rep.gamma_expected == pytest.approx(0.35, abs=1e-12)
    assert rep.gamma_joint == pytest.approx(0.35, abs=1e-5)
    assert rep.bell_sq_overlap >= 0.999
    assert rep.product_grid_value == pytest.approx(0.25, abs=1e-9)
    assert rep.product_tester_value == pytest.approx(0.25, abs=1e-6)
    assert rep.gamma_joint > rep.product_grid_value + 0.09
    assert np.linalg.norm(rep.recovered_state) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [0.7, 0.26])
def test_correlated_payoff_input_matches_the_labeled_chain(p):
    """The recovered input is the one the label-based Xi^(1) gives."""
    rep = counterexample_correlated_payoff(p)
    xi = reference_validate_tester(rep.solution.tester)[-1]
    state = _pure_input(xi.data.conj(), p)
    assert np.max(np.abs(rep.recovered_state - state)) <= 1e-12
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert rep.bell_sq_overlap == pytest.approx(
        abs(np.vdot(bell, state)) ** 2, abs=1e-12)
    assert rep.gamma_expected == max(p, 1.0 - p) / 2.0
