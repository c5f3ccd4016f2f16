"""Labeled operator algebra: tensor structure, traces, permutations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed_identity, hs_inner, identity_on, is_psd
from qnetopt.errors import (BadPermutation, DimensionCap, DuplicateLabel,
                            NotHermitian, ShapeMismatch, UnknownLabel)
from qnetopt.operators import (LabeledOperator, SystemLabel, min_eig,
                               partial_trace, permute_systems, scalar_op,
                               tensor, tensor_all)

A = SystemLabel("a", 2)
B = SystemLabel("b", 3)
C = SystemLabel("c", 2)


def rand_op(rng, factors):
    d = int(np.prod([f.dim for f in factors]))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return LabeledOperator(tuple(factors), m + m.conj().T)


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        LabeledOperator((A, A), np.eye(4))


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        LabeledOperator((A, B), np.eye(5))


def test_dimension_cap_enforced():
    labs = tuple(SystemLabel("x%d" % i, 4) for i in range(7))
    with pytest.raises(DimensionCap):
        LabeledOperator(labs, np.eye(4**7))


def test_partial_trace_matches_explicit_loop(rng):
    op = rand_op(rng, (A, B))
    red = partial_trace(op, ("b",))
    expect = np.zeros((2, 2), dtype=complex)
    m = op.data.reshape(2, 3, 2, 3)
    for j in range(3):
        expect += m[:, j, :, j]
    np.testing.assert_allclose(red.data, expect, atol=1e-12)
    assert red.label_ids() == ("a",)


def test_partial_trace_all_factors_gives_scalar(rng):
    op = rand_op(rng, (A, B))
    s = partial_trace(op, ("a", "b"))
    assert s.factors == ()
    np.testing.assert_allclose(s.data, np.trace(op.data).reshape(1, 1), atol=1e-12)


def test_partial_trace_unknown_label(rng):
    with pytest.raises(UnknownLabel):
        partial_trace(rand_op(rng, (A, B)), ("zz",))


def test_permute_systems_round_trip(rng):
    op = rand_op(rng, (A, B, C))
    back = permute_systems(permute_systems(op, ("c", "a", "b")), ("a", "b", "c"))
    np.testing.assert_allclose(back.data, op.data, atol=1e-12)


def test_permute_rejects_wrong_set(rng):
    with pytest.raises(BadPermutation):
        permute_systems(rand_op(rng, (A, B)), ("a", "a"))


def test_permutation_preserves_spectrum(rng):
    op = rand_op(rng, (A, B, C))
    w0 = np.linalg.eigvalsh(op.data)
    w1 = np.linalg.eigvalsh(permute_systems(op, ("b", "c", "a")).data)
    np.testing.assert_allclose(w0, w1, atol=1e-9)


def test_tensor_and_partial_trace_are_adjoint_ish(rng):
    # Tr[(X (x) I_b) Y] = Tr[X Tr_b Y]
    x = rand_op(rng, (A,))
    y = rand_op(rng, (A, B))
    lhs = hs_inner(tensor(x, identity_on((B,))), y)
    rhs = hs_inner(x, partial_trace(y, ("b",)))
    assert abs(lhs - rhs) < 1e-10


def test_embed_identity_positions(rng):
    x = rand_op(rng, (A,))
    emb = embed_identity(x, B, 0)
    assert emb.label_ids() == ("b", "a")
    np.testing.assert_allclose(emb.data, np.kron(np.eye(3), x.data), atol=1e-12)
    emb2 = embed_identity(x, B, 1)
    np.testing.assert_allclose(emb2.data, np.kron(x.data, np.eye(3)), atol=1e-12)


def test_scalar_op_behaves_like_a_number():
    s = scalar_op(2.5)
    assert s.factors == ()
    t = tensor(s, LabeledOperator((A,), np.eye(2)))
    np.testing.assert_allclose(t.data, 2.5 * np.eye(2))


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        min_eig(LabeledOperator((A,), m).data)


def test_min_eig_and_psd(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    pos = LabeledOperator((A, C), g @ g.conj().T)
    assert is_psd(pos)
    assert min_eig(pos.data) >= -1e-10
    neg = LabeledOperator((A, C), pos.data - 3.0 * np.eye(4) * np.abs(pos.data).max())
    assert not is_psd(neg)
    # a stack: one minimum per matrix, each that of a lone eigvalsh call
    for d in (2, 7, 36):
        g = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
        stack = g + g.conj().swapaxes(-1, -2)
        lowest = min_eig(stack)
        assert lowest.shape == (2, 3)
        loop = [[np.linalg.eigvalsh(m)[0] for m in row] for row in stack]
        np.testing.assert_array_equal(lowest, loop)
        stack[1, 2, 0, -1] += 1e-6
        with pytest.raises(NotHermitian):
            min_eig(stack)
        stack[1, 2, 0, -1] = np.nan  # a NaN entry is not Hermitian either
        with pytest.raises(NotHermitian):
            min_eig(stack)


def test_min_eig_leaves_a_real_input_alone(rng):
    g = rng.normal(size=(5, 5))
    a = g + g.T
    a[0, 1] += 1e-12  # asymmetric, but within HERM_TOL
    a.flags.writeable = False
    before = a.copy()
    assert min_eig(a) == min_eig(a.astype(complex))
    np.testing.assert_array_equal(a, before)
    w = before.copy()  # a writable real input is not overwritten either
    min_eig(w)
    np.testing.assert_array_equal(w, before)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.inf],
                         ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal",
                                                         "off-diagonal"])
def test_min_eig_rejects_non_finite_entries(entry, value):
    a = np.eye(3, dtype=complex)
    a[entry] = value
    with pytest.raises(NotHermitian):
        min_eig(a)


@pytest.mark.parametrize("dtype", [float, complex])
def test_min_eig_of_entries_near_the_float_maximum_is_finite(dtype):
    # a + a^H overflows; halved first, the Hermitian parts are finite: all
    # ones times 1e308, of spectrum {0, 0, 3e308}, and 1e308 I
    a = np.stack([np.full((3, 3), 1e308), 1e308 * np.eye(3)]).astype(dtype)
    a.flags.writeable = False
    lowest = min_eig(a)
    assert abs(lowest[0]) <= 1e-14 * 1e308
    assert lowest[1] == 1e308


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_is_trace_preserving(seed):
    g = np.random.default_rng(seed)
    op = rand_op(g, (A, B))
    red = partial_trace(op, ("b",))
    assert abs(np.trace(red.data) - np.trace(op.data)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hs_inner_hermitian_symmetry(seed):
    g = np.random.default_rng(seed)
    x, y = rand_op(g, (A, B)), rand_op(g, (A, B))
    assert abs(hs_inner(x, y) - np.conj(hs_inner(y, x))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(["a", "b", "c"]))
def test_permute_then_trace_commutes(seed, perm):
    """Tracing a factor commutes with reordering the remaining ones."""
    g = np.random.default_rng(seed)
    op = rand_op(g, (A, B, C))
    t1 = partial_trace(permute_systems(op, tuple(perm)), ("b",))
    keep = tuple(p for p in perm if p != "b")
    t2 = permute_systems(partial_trace(op, ("b",)), keep)
    np.testing.assert_allclose(t1.data, t2.data, atol=1e-10)


def test_tensor_all_associates(rng):
    ops = [rand_op(rng, (A,)), rand_op(rng, (B,)), rand_op(rng, (C,))]
    lhs = tensor_all(ops)
    rhs = tensor(ops[0], tensor(ops[1], ops[2]))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)
    assert lhs.label_ids() == ("a", "b", "c")
