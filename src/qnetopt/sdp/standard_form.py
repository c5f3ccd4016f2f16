"""Tester optimization as a block-diagonal SDP in standard form.

Variable blocks are the tester chain operators Xi^(1)..Xi^(N) followed by one
outcome operator per candidate estimate.  The equality constraints are the
tester normalization recursion, written level by level:

    level 0:      Tr_in1[Xi^(1)] = 1
    level j:      Tr_in(j+1)[Xi^(j+1)] - I_out(j) (x) Xi^(j) = 0     (1 <= j < N)
    level N:      sum_est T_est - I_out(N) (x) Xi^(N) = 0

and the objective is  max sum_est <G_est, T_est>.

Blocks are complex Hermitian and every coefficient is a Hermitian operator,
so row values and objective numbers are Hilbert-Schmidt inner products on the
operators themselves.  Constraint rows are indexed by a Hermitian basis of
each level's operator space only, which keeps the row count at
1 + sum_j D_j^2 and the Schur complement positive definite.

Chain operators use the factor order (out_1, in_1, ..., out_{j-1}, in_{j-1},
in_j); with that choice every coefficient is either a basis element, a basis
element with an identity appended, or a partial trace of one, and no factor
permutations appear in the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ShapeMismatch
from ..estimation import EstimationProblem, PayoffOperators, payoff_operators
from ..operators import LabeledOperator
from .ipm import BlockConstraintMap, ConstraintEntry

# ---------------------------------------------------------------------------
# Hermitian bases and partial traces of coefficient stacks
# ---------------------------------------------------------------------------


_basis_cache = {}


def hermitian_basis_stack(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of C^{d x d}, stacked as a (d^2, d, d) array.

    Order: diagonal units, then (e_ij + e_ji)/sqrt2 for i<j, then
    i(e_ij - e_ji)/sqrt2 for i<j.
    """
    if d in _basis_cache:
        return _basis_cache[d]
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
    mats.setflags(write=False)
    _basis_cache[d] = mats
    return mats


def hermitian_from_coords(coords: np.ndarray, d: int) -> np.ndarray:
    return np.tensordot(np.asarray(coords), hermitian_basis_stack(d), axes=1)


def coords_from_hermitian(h: np.ndarray) -> np.ndarray:
    d = h.shape[0]
    stack = hermitian_basis_stack(d)
    return np.tensordot(stack.conj(), h, axes=([1, 2], [0, 1])).real


def trace_middle(mats: np.ndarray, pre: int, mid: int, post: int) -> np.ndarray:
    """Partial trace of a (r, pre*mid*post, ...) stack over the middle factor."""
    r = mats.shape[0]
    t = mats.reshape(r, pre, mid, post, pre, mid, post)
    return np.trace(t, axis1=2, axis2=5).reshape(r, pre * post, pre * post)


# ---------------------------------------------------------------------------
# the tester SDP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardSdp:
    """Block structure, objective, constraint map, and right-hand side."""

    problem: EstimationProblem
    payoff_ops: PayoffOperators
    block_dims: tuple     # side of each variable block
    level_dims: tuple     # side of each constraint level space, 1..N
    level_offsets: tuple  # row offset of each level, level 0 at offset 0
    cmap: BlockConstraintMap
    C: tuple              # objective blocks (min <C, X> convention)
    b: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.problem.space.num_steps

    @property
    def num_outcomes(self) -> int:
        return self.problem.num_params

    def xi_block(self, j: int) -> int:
        """Variable-block index of Xi^(j), 1-based j."""
        return j - 1

    def outcome_block(self, k: int) -> int:
        return self.num_steps + k

    def level_rows(self, j: int) -> slice:
        start = self.level_offsets[j]
        stop = self.level_offsets[j + 1] if j + 1 < len(self.level_offsets) \
            else self.cmap.m
        return slice(start, stop)

    def primal_start(self) -> List[np.ndarray]:
        """The uniform tester chain: strictly feasible, all equalities exact."""
        space = self.problem.space
        blocks = []
        c = 1.0
        for j in range(1, self.num_steps + 1):
            c = c / space.steps[j - 1].in_sys.dim
            blocks.append(c * np.eye(self.block_dims[self.xi_block(j)]))
        t_val = c / self.num_outcomes
        for k in range(self.num_outcomes):
            blocks.append(t_val * np.eye(self.block_dims[self.outcome_block(k)]))
        return blocks


def build_primal(problem: EstimationProblem,
                 outcome_rows: Optional[np.ndarray] = None) -> StandardSdp:
    """Assemble blocks, objective, and the structured constraint map.

    outcome_rows is the coefficient stack of the outcome blocks in the
    level-N rows, (D_N^2, D_N, D_N); None means the Hermitian basis, which
    imposes sum_est T_est = I_out(N) (x) Xi^(N).  The covariant program passes
    the twirled basis twirl(B_a): the twirl is self-adjoint, so row a reads
    <B_a, twirl(T)> and the constraint becomes twirl(T) = I_out(N) (x) Xi^(N).
    """
    space = problem.space
    n_steps = space.num_steps
    d_in = space.in_dims()
    d_out = space.out_dims()

    # prefix dims D_j = prod_{i<=j} d_out_i * d_in_i, D_0 = 1
    prefix = [1]
    for j in range(n_steps):
        prefix.append(prefix[-1] * d_out[j] * d_in[j])

    block_dims = [prefix[j - 1] * d_in[j - 1] for j in range(1, n_steps + 1)]
    block_dims += [prefix[n_steps]] * problem.num_params

    level_dims = tuple(prefix[1:])
    offsets = [0, 1]
    for j in range(1, n_steps):
        offsets.append(offsets[-1] + prefix[j] ** 2)
    m = offsets[-1] + prefix[n_steps] ** 2

    entries = []
    # level 0: full trace of Xi^(1)
    eye0 = np.eye(block_dims[0], dtype=complex)[None, :, :]
    entries.append(ConstraintEntry(0, 1, 0, eye0))
    # levels 1..N-1: Tr_in(j+1)[Xi^(j+1)] - I_out(j) (x) Xi^(j)
    for j in range(1, n_steps):
        rows = slice(offsets[j], offsets[j] + prefix[j] ** 2)
        basis = hermitian_basis_stack(prefix[j])
        grown = np.einsum("rab,cd->racbd", basis,
                          np.eye(d_in[j], dtype=complex)).reshape(
                              prefix[j] ** 2, prefix[j] * d_in[j],
                              prefix[j] * d_in[j])
        entries.append(ConstraintEntry(rows.start, rows.stop, j, grown))
        shrunk = trace_middle(basis, prefix[j - 1], d_out[j - 1], d_in[j - 1])
        entries.append(ConstraintEntry(rows.start, rows.stop, j - 1, -shrunk))
    # level N: sum_est T_est - I_out(N) (x) Xi^(N)
    rows = slice(offsets[n_steps], m)
    basis = hermitian_basis_stack(prefix[n_steps])
    if outcome_rows is None:
        outcome_rows = basis
    for k in range(problem.num_params):
        # one ndarray shared by every outcome block
        entries.append(ConstraintEntry(rows.start, rows.stop, n_steps + k,
                                       outcome_rows))
    shrunk = trace_middle(basis, prefix[n_steps - 1], d_out[n_steps - 1],
                          d_in[n_steps - 1])
    entries.append(ConstraintEntry(rows.start, rows.stop, n_steps - 1,
                                   -shrunk))

    cmap = BlockConstraintMap(m, block_dims, entries)
    b = np.zeros(m)
    b[0] = 1.0

    gops = payoff_operators(problem)
    C = [np.zeros((n, n)) for n in block_dims[:n_steps]]
    order = space.factor_ids()
    for g in gops.operators:
        if g.label_ids() != order:
            raise ShapeMismatch("payoff operator out of canonical order")
        C.append(-g.data)

    return StandardSdp(problem, gops, tuple(block_dims), level_dims,
                       tuple(offsets), cmap, tuple(C), b)


# ---------------------------------------------------------------------------
# the dual program, in operator form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualState:
    """Dual variables: a scalar S^(0) and one Hermitian S^(j) per level."""

    s0: float
    operators: tuple  # LabeledOperator for S^(1)..S^(N) on the step prefixes


def dual_from_y(sdp: StandardSdp, y: np.ndarray) -> DualState:
    """Recover the operator-form dual variables from the row multipliers."""
    space = sdp.problem.space
    dual_ops = []
    for j in range(1, sdp.num_steps + 1):
        mat = hermitian_from_coords(-y[sdp.level_rows(j)], sdp.level_dims[j - 1])
        dual_ops.append(LabeledOperator(space.prefix_factors(j), mat))
    return DualState(float(-y[0]), tuple(dual_ops))


def y_from_dual(sdp: StandardSdp, dual: DualState) -> np.ndarray:
    y = np.zeros(sdp.cmap.m)
    y[0] = -dual.s0
    for j in range(1, sdp.num_steps + 1):
        rows = sdp.level_rows(j)
        y[rows] = -coords_from_hermitian(dual.operators[j - 1].data)
    return y
