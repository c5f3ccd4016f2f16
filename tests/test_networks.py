"""Comb and tester structure: recursions, Born rule, tensoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (memory_combs, random_product_tester,
                      reference_validate_comb, reference_validate_tester,
                      seeds, uniform_tester)
from qnetopt import serde
from qnetopt.errors import (BadPermutation, DimensionCap, NormalizationViolation,
                            NotAState, NotPSD, NotTracePreserving,
                            ShapeMismatch)
from qnetopt.estimation import EstimationProblem, payoff_operators
from qnetopt.instances import (random_density, random_memory_comb,
                               random_unitary)
from qnetopt.networks import (CombSpace, QuantumComb, Tester, born_probability,
                              choi_of_channel, comb_of_memoryless_sequence,
                              comb_of_state, tensor_combs, tensor_testers,
                              validate_comb, validate_tester)
from qnetopt.operators import (DIMENSION_CAP, LabeledOperator, SystemLabel,
                               partial_trace, permute_systems)

I2 = SystemLabel("in", 2)
O2 = SystemLabel("out", 2)


def test_choi_of_identity_channel():
    c = choi_of_channel([np.eye(2)], I2, O2)
    v = np.array([1, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(c.data, np.outer(v, v), atol=1e-12)
    assert c.label_ids() == ("out", "in")


def test_choi_unitary_is_rank_one(rng):
    u = random_unitary(rng, 3)
    la, lb = SystemLabel("x", 3), SystemLabel("y", 3)
    c = choi_of_channel([u], la, lb)
    w = np.linalg.eigvalsh(c.data)
    assert w[-1] == pytest.approx(3.0, abs=1e-9)
    assert np.all(w[:-1] < 1e-9)
    red = partial_trace(c, ("y",))
    np.testing.assert_allclose(red.data, np.eye(3), atol=1e-10)


def test_choi_rejects_non_trace_preserving():
    with pytest.raises(NotTracePreserving):
        choi_of_channel([0.5 * np.eye(2)], I2, O2)


def test_comb_of_state_validates():
    rho = LabeledOperator((O2,), np.diag([0.25, 0.75]))
    comb = comb_of_state(rho)
    assert comb.space.num_steps == 1
    assert comb.space.steps[0].in_sys.dim == 1


def test_comb_of_state_rejects_subnormalized():
    with pytest.raises(NotAState):
        comb_of_state(LabeledOperator((O2,), np.diag([0.25, 0.25])))


def test_validate_comb_flags_level_and_residual():
    c = choi_of_channel([np.eye(2)], I2, O2)
    comb = QuantumComb(CombSpace(((I2, O2),)), c.with_data(2.0 * c.data))
    with pytest.raises(NormalizationViolation) as err:
        validate_comb(comb)
    assert err.value.level in (0, 1)
    assert err.value.residual > 0.5


def test_validate_comb_rejects_non_positive():
    m = np.diag([1.5, 0.5, 0.5, -0.5])  # trace correct, one negative direction
    comb = QuantumComb(CombSpace(((I2, O2),)),
                       LabeledOperator((O2, I2), m))
    with pytest.raises(NotPSD):
        validate_comb(comb)


def test_two_step_memoryless_sequence_is_a_comb(rng):
    labs = [SystemLabel(s, 2) for s in ("i1", "o1", "i2", "o2")]
    c1 = choi_of_channel([random_unitary(rng, 2)], labs[0], labs[1])
    c2 = choi_of_channel([random_unitary(rng, 2)], labs[2], labs[3])
    comb = comb_of_memoryless_sequence([c1, c2])
    assert comb.space.num_steps == 2
    np.testing.assert_allclose(comb.op.data, np.kron(c1.data, c2.data), atol=1e-12)


def test_tester_needs_an_outcome():
    space = CombSpace(((I2, O2),))
    with pytest.raises(ShapeMismatch):
        validate_tester(Tester(space, ()))


@pytest.mark.parametrize("order", [("q", "q#src"), ("q#src", "q")])
def test_an_operator_on_the_space_ids_with_other_dims_is_a_shape_mismatch(
        order):
    qubit = comb_of_state(LabeledOperator((SystemLabel("q", 2),), np.eye(2) / 2))
    qutrit = comb_of_state(LabeledOperator((SystemLabel("q", 3),),
                                           np.eye(3) / 3))
    op = permute_systems(qutrit.op, order)
    with pytest.raises(ShapeMismatch, match="q: 3, not 2"):
        validate_comb(QuantumComb(qubit.space, op))
    with pytest.raises(ShapeMismatch, match="q: 3, not 2"):
        Tester(qubit.space, ((0, op),))
    with pytest.raises(ShapeMismatch, match="do not match comb factors"):
        born_probability(op, qubit)


def test_uniform_tester_chain_and_probabilities(rng):
    space = CombSpace(((I2, O2),))
    u = uniform_tester(space, ("a", "b", "c"))
    t = validate_tester(u)
    assert t is u
    c = choi_of_channel([random_unitary(rng, 2)], I2, O2)
    comb = validate_comb(QuantumComb(space, c))
    for _, op in t.outcomes:
        assert born_probability(op, comb) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_tester_scaled_sum_rejected():
    space = CombSpace(((I2, O2),))
    t = uniform_tester(space, ("a", "b"))
    doubled = Tester(space, tuple((m, op.with_data(2.0 * op.data))
                                  for m, op in t.outcomes))
    with pytest.raises(NormalizationViolation):
        validate_tester(doubled)


def test_validate_comb_returns_its_argument(rng):
    comb = QuantumComb(CombSpace(((I2, O2),)),
                       choi_of_channel([random_unitary(rng, 2)], I2, O2))
    assert validate_comb(comb) is comb


PERTURBATIONS = (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6,
                 1e-5, 1e-4, 1e-3)


def _perturbation(g, n, scale):
    """scale times a random Hermitian matrix, plus an anti-Hermitian part of
    about 1e-12, within HERM_TOL, which gives every trace an imaginary part."""
    a = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    a /= np.max(np.abs(a))
    return scale * (a + a.conj().T) + 1e-12 * (a - a.conj().T)


def _walk_case(seed):
    """A memoryful comb or a uniform 3-outcome tester, perturbed at one level.

    The perturbation is a random matrix H on the first k steps, grown to
    every factor so that the levels above k still hold: a comb gains H (x)
    I / d_out for the later steps, a tester's first outcome H (x) I_out (x)
    I_in / d_in.  So a large enough H breaks level k, or level 0 for k = 0.
    """
    g = np.random.default_rng(seed)
    n_steps = 1 + seed // 2 % 3
    top = 2 if n_steps == 3 else 3
    space = CombSpace(tuple(
        (SystemLabel("i%d" % s, int(g.integers(1, top + 1))),
         SystemLabel("o%d" % s, int(g.integers(2, top + 1))))
        for s in range(n_steps)))
    k = int(g.integers(0, n_steps + 1))
    scale = PERTURBATIONS[int(g.integers(len(PERTURBATIONS)))]
    prefix = int(np.prod([s.out_sys.dim * s.in_sys.dim
                          for s in space.steps[:k]], dtype=np.int64))
    grow = np.ones((1, 1))
    for s in space.steps[k:]:
        d = s.out_sys.dim if seed % 2 == 0 else s.in_sys.dim
        grow = np.kron(grow, np.eye(s.out_sys.dim * s.in_sys.dim) / d)
    shift = np.kron(_perturbation(g, prefix, scale), grow)
    factors = space.factors()
    if seed % 2 == 0:
        comb = random_memory_comb(g, space)
        w = max(0.0, g.uniform(-0.25, 0.5))  # a third stay rank-deficient
        mixed = np.eye(len(grow) * prefix) / np.prod(
            [s.out_sys.dim for s in space.steps])
        data = (1.0 - w) * comb.op.data + w * mixed + shift
        return QuantumComb(space, LabeledOperator(factors, data))
    (m, first), *rest = uniform_tester(space, ("a", "b", "c")).outcomes
    return Tester(space, ((m, first.with_data(first.data + shift)), *rest))


def _outcome(check, obj):
    try:
        check(obj)
    except (NotPSD, NormalizationViolation) as exc:
        return type(exc), getattr(exc, "level", None), \
            getattr(exc, "residual", None)
    return None


def test_walk_matches_the_labeled_reference():
    """Exception type, level and residual, bitwise, on 900 seeded cases."""
    seen = set()
    for seed in range(900):
        obj = _walk_case(seed)
        if isinstance(obj, Tester):
            got = _outcome(validate_tester, obj)
            want = _outcome(reference_validate_tester, obj)
        else:
            got = _outcome(validate_comb, obj)
            want = _outcome(reference_validate_comb, obj)
        assert got == want, seed
        seen.add(got[:2] if got else None)
    # every branch is exercised: passes, NotPSD, and levels 0 to N + 1
    assert None in seen and (NotPSD, None) in seen
    assert {lvl for kind, lvl in filter(None, seen)
            if kind is NormalizationViolation} == {0, 1, 2, 3, 4}


@settings(max_examples=30, deadline=None)
@given(comb=memory_combs(), seed=seeds, n_out=st.integers(1, 4))
def test_born_rule_is_a_distribution(comb, seed, n_out):
    """Any causal tester applied to any comb yields a probability vector."""
    g = np.random.default_rng(seed)
    tester = random_product_tester(g, comb.space, n_out)
    probs = [born_probability(op, comb) for _, op in tester.outcomes]
    assert all(p >= -1e-9 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ca=memory_combs(prefix="u"), cb=memory_combs(prefix="v"))
def test_tensor_combs_validates(ca, cb):
    if len(ca.op.data) * len(cb.op.data) > DIMENSION_CAP:
        with pytest.raises(DimensionCap):
            tensor_combs(ca, cb)
        return
    both = tensor_combs(ca, cb)
    validate_comb(both)
    assert both.space.num_steps == ca.space.num_steps + cb.space.num_steps


def test_tensor_testers_pairs_outcomes(rng):
    sa = CombSpace(((SystemLabel("p", 2), SystemLabel("q", 2)),))
    sb = CombSpace(((SystemLabel("r", 2), SystemLabel("s", 2)),))
    ta = random_product_tester(rng, sa, 2)
    tb = random_product_tester(rng, sb, 3)
    tt = validate_tester(tensor_testers(ta, tb))
    assert len(tt.outcomes) == 6
    assert tt.outcome_ids()[0] == (ta.outcome_ids()[0], tb.outcome_ids()[0])


def test_tensor_tester_born_factorizes(rng):
    sa = CombSpace(((SystemLabel("p", 2), SystemLabel("q", 2)),))
    sb = CombSpace(((SystemLabel("r", 1), SystemLabel("s", 3)),))
    ta = random_product_tester(rng, sa, 2)
    tb = random_product_tester(rng, sb, 2)
    ca = validate_comb(QuantumComb(sa, choi_of_channel(
        [random_unitary(rng, 2)], SystemLabel("p", 2), SystemLabel("q", 2))))
    rho = random_density(rng, 3)
    cb = validate_comb(QuantumComb(sb, LabeledOperator(
        (SystemLabel("s", 3), SystemLabel("r", 1)), rho)))
    joint_comb = tensor_combs(ca, cb)
    tt = tensor_testers(ta, tb)
    for (ma, mb), op in tt.outcomes:
        pa = born_probability(dict(ta.outcomes)[ma], ca)
        pb = born_probability(dict(tb.outcomes)[mb], cb)
        assert born_probability(op, joint_comb) == pytest.approx(pa * pb, abs=1e-9)


def test_combs_and_testers_store_the_canonical_factor_order(rng):
    space = CombSpace(tuple((SystemLabel("i%d" % k, 2), SystemLabel("o%d" % k, 2))
                            for k in range(2)))
    shuffled = ("i1", "o0", "o1", "i0")
    combs = [random_memory_comb(rng, space) for _ in range(2)]
    moved = [QuantumComb(space, permute_systems(c.op, shuffled)) for c in combs]
    for c, m in zip(combs, moved):
        assert m.op.factors == space.factors()
        np.testing.assert_array_equal(m.op.data, c.op.data)
        assert serde.comb_to_json(m) == serde.comb_to_json(c)

    tester = random_product_tester(rng, space, 3)
    moved_tester = Tester(space, tuple((k, permute_systems(op, shuffled))
                                       for k, op in tester.outcomes))
    for (_, op), (_, mop) in zip(tester.outcomes, moved_tester.outcomes):
        assert mop.factors == space.factors()
        np.testing.assert_array_equal(mop.data, op.data)
    assert serde.tester_to_json(moved_tester) == serde.tester_to_json(tester)

    problems = [EstimationProblem(space, (0, 1), [0.3, 0.7], cs,
                                  [[1.0, 0.2], [0.0, 0.5]])
                for cs in (combs, moved)]
    assert serde.problem_to_json(problems[1]) == serde.problem_to_json(problems[0])
    canonical, permuted = (payoff_operators(p) for p in problems)
    np.testing.assert_array_equal(permuted, canonical)


def test_operator_on_other_factors_is_refused_at_construction():
    space = CombSpace(((I2, O2),))
    other = LabeledOperator((O2, SystemLabel("x", 2)), np.eye(4))
    with pytest.raises(BadPermutation):
        QuantumComb(space, other)
    with pytest.raises(BadPermutation):
        Tester(space, (("a", other),))
