"""Dense complex linear algebra over labeled tensor-product spaces.

A LabeledOperator is a square complex matrix together with an ordered list of
SystemLabel factors.  The matrix basis is ordered lexicographically by the
declared factor order (row-major), so kron() of the raw matrices matches
tensor() of the operators.  All operations are pure; operators are immutable
after construction.

Dimensions are capped (default 4096 total) to keep everything dense and
desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (BadPermutation, DimensionCap, DuplicateLabel,
                     NotHermitian, ShapeMismatch, UnknownLabel)

#: Hard cap on the total dimension of any single operator.
DIMENSION_CAP = 4096

#: Relative scale of min_eig's Hermiticity check.
HERM_TOL = 1e-10


@dataclass(frozen=True)
class SystemLabel:
    """An elementary tensor factor: an opaque id plus its dimension."""

    id: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionCap("label %r has dim %d < 1" % (self.id, self.dim))


def _total_dim(factors: Sequence[SystemLabel]) -> int:
    n = 1
    for f in factors:
        n *= f.dim
    return n


@dataclass(frozen=True)
class LabeledOperator:
    """Square complex matrix over an ordered list of labeled factors."""

    factors: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        ids = [f.id for f in factors]
        if len(set(ids)) != len(ids):
            raise DuplicateLabel("repeated label ids: %r" % (ids,))
        n = _total_dim(factors)
        if n > DIMENSION_CAP:
            raise DimensionCap("total dimension %d exceeds cap %d" % (n, DIMENSION_CAP))
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (n, n):
            raise ShapeMismatch(
                "matrix shape %r does not match factor dims (side %d)" % (data.shape, n))
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    # -- small conveniences used throughout the package ------------------

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)

    def label_ids(self) -> tuple:
        return tuple(f.id for f in self.factors)

    def with_data(self, data: np.ndarray) -> "LabeledOperator":
        return LabeledOperator(self.factors, data)


def scalar_op(value=1.0) -> LabeledOperator:
    """A 1x1 operator on no factors (the empty tensor product)."""
    return LabeledOperator((), np.array([[value]], dtype=complex))


def tensor(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product; a's factors first, then b's.  Labels must be disjoint."""
    overlap = set(a.label_ids()) & set(b.label_ids())
    if overlap:
        raise DuplicateLabel("labels occur on both operands: %r" % sorted(overlap))
    return LabeledOperator(a.factors + b.factors, np.kron(a.data, b.data))


def tensor_all(ops: Sequence[LabeledOperator]) -> LabeledOperator:
    """Kronecker product of ops in order; the scalar 1 when there are none."""
    out = ops[0] if ops else scalar_op(1.0)
    for op in ops[1:]:
        out = tensor(out, op)
    return out


def _positions(a: LabeledOperator, ids) -> list:
    index = {f.id: i for i, f in enumerate(a.factors)}
    out = []
    for lid in ids:
        if lid not in index:
            raise UnknownLabel("label %r not present on %r" % (lid, a.label_ids()))
        out.append(index[lid])
    return out


def partial_trace(a: LabeledOperator, over) -> LabeledOperator:
    """Trace out the named factors; remaining factors keep their order.

    `over` may contain SystemLabel objects or bare id strings.  Tracing over
    every factor returns a scalar LabeledOperator on no factors.
    """
    ids = [f.id if isinstance(f, SystemLabel) else f for f in over]
    if len(set(ids)) != len(ids):
        raise UnknownLabel("repeated labels in trace set: %r" % (ids,))
    _positions(a, ids)  # raises UnknownLabel early
    data = a.data
    factors = list(a.factors)
    for lid in ids:
        pos = [f.id for f in factors].index(lid)
        dims = [f.dim for f in factors]
        d = dims[pos]
        pre = int(np.prod(dims[:pos], dtype=np.int64)) if pos else 1
        post = int(np.prod(dims[pos + 1:], dtype=np.int64)) if pos + 1 < len(dims) else 1
        data = trace_middle(data, pre, d, post)
        del factors[pos]
    return LabeledOperator(tuple(factors), data)


def trace_middle(data: np.ndarray, pre: int, d: int, post: int) -> np.ndarray:
    """Trace out the middle factor of a matrix on (pre, d, post)."""
    t = data.reshape(pre, d, post, pre, d, post)
    return np.trace(t, axis1=1, axis2=4).reshape(pre * post, pre * post)


def permute_systems(a: LabeledOperator, order) -> LabeledOperator:
    """Reorder the tensor factors.  `order` is a permutation of a's labels."""
    ids = [f.id if isinstance(f, SystemLabel) else f for f in order]
    if sorted(ids) != sorted(a.label_ids()):
        raise BadPermutation(
            "order %r is not a permutation of %r" % (ids, a.label_ids()))
    perm = _positions(a, ids)
    k = len(a.factors)
    dims = a.dims
    t = a.data.reshape(dims + dims)
    t = np.transpose(t, axes=[*perm, *[p + k for p in perm]])
    new_factors = tuple(a.factors[p] for p in perm)
    n = a.dim
    return LabeledOperator(new_factors, t.reshape(n, n))


def min_eig(a: np.ndarray):
    """Smallest eigenvalue of each matrix's Hermitian part; a is (..., n, n).

    The package's only positivity test.  NotHermitian if a matrix is off
    Hermitian by more than HERM_TOL times 1 + its largest entry.  A float
    for one matrix, an array of a's leading shape for a stack.
    """
    # the ufunc always allocates, so h is a fresh copy even for real a;
    # it is made a's Hermitian part below
    h = np.conjugate(a).swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf: rejected below
        residual = np.abs(a - h).max(axis=(-2, -1))
    # "not <=" fails a NaN residual, and isinf an infinite one (whose scale
    # is infinite too), so no matrix with a non-finite entry passes
    if not residual.max() <= HERM_TOL:  # else every matrix passes: scale >= 1
        scale = 1.0 + np.abs(a).max(axis=(-2, -1))
        bad = ~(residual <= HERM_TOL * scale) | np.isinf(residual)
        if bad.any():
            raise NotHermitian("matrix is not Hermitian (residual %.3e)"
                               % residual[bad].max())
    h += a
    h /= 2.0
    return np.linalg.eigvalsh(h)[..., 0]

