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
1 + sum_j D_j^2 and the Schur complement positive definite.  A covariant
program whose outcome enters on kept coordinates only has fewer level-N
rows: those coordinates and the ones I_out(N) (x) Xi^(N) reaches, recorded
in top_coords.

Chain operators use the factor order (out_1, in_1, ..., out_{j-1}, in_{j-1},
in_j); with that choice every coefficient is either a basis element, a basis
element with an identity appended, or a partial trace of one, and no factor
permutations appear in the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..estimation import EstimationProblem, PayoffOperators, payoff_operators
from ..operators import LabeledOperator
# coords_from_hermitian is unused here: it is exported beside its transpose
from .ipm import (BlockConstraintMap, BlockGroup, ConstraintEntry,
                  basis_layout, coordinate_index, coords_from_hermitian,
                  hermitian_from_coords)


def _grown_rows(d: int, d_in: int) -> np.ndarray:
    """Coordinates of B_a (x) I_in on side d * d_in: d_in unit entries a row."""
    row, col, imag = basis_layout(d)
    k = np.arange(d_in)
    return coordinate_index(row[:, None] * d_in + k, col[:, None] * d_in + k,
                            imag[:, None], d * d_in)


def _shrunk_rows(pre: int, d_out: int, d_in: int) -> np.ndarray:
    """Coordinates of Tr_out B_a for B_a on (pre, out, in): one unit or none.

    e_PQ traces to e_P'Q' (output index dropped) if P and Q share the output
    index and to zero otherwise; dropping it keeps P' < Q'.
    """
    row, col, imag = basis_layout(pre * d_out * d_in)

    def keep(i):
        return i // (d_out * d_in) * d_in + i % d_in

    idx = coordinate_index(keep(row), keep(col), imag, pre * d_in)
    same_out = row // d_in % d_out == col // d_in % d_out
    return np.where(same_out, idx, -1)[:, None]


def block_sides(problem: EstimationProblem) -> List[int]:
    """Sides of the variable blocks: Xi^(1)..Xi^(N), then one per estimate.

    Xi^(j) has side D_(j-1) d_in(j), where D_j = prod_(i<=j) d_out(i) d_in(i)
    is the side of level j; every outcome block has side D_N.
    """
    sides, d = [], 1
    for step in problem.space.steps:
        sides.append(d * step.in_sys.dim)
        d = sides[-1] * step.out_sys.dim
    return sides + [d] * problem.num_params


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
    level_offsets: tuple  # first row of each level 0..N, then the row count
    cmap: BlockConstraintMap
    C: tuple              # objective blocks (min <C, X> convention)
    b: np.ndarray
    top_coords: np.ndarray  # level-space coordinate of each level-N row

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
        return slice(self.level_offsets[j], self.level_offsets[j + 1])

    def level_coords(self, j: int) -> np.ndarray:
        """Coordinate of each row of level j >= 1 in its level space."""
        if j == self.num_steps:
            return self.top_coords
        return np.arange(self.level_dims[j - 1] ** 2)

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

    outcome_rows says how the outcome blocks enter the level-N rows.  None
    means the identity, which imposes sum_est T_est = I_out(N) (x) Xi^(N).  A
    real (D_N^2, D_N^2) matrix is a coordinate map: the covariant program
    passes the twirl's matrix P[a, c] = Re<B_a, twirl(B_c)>, so row a reads
    <B_a, twirl(T)> and the constraint becomes twirl(T) = I_out(N) (x) Xi^(N).
    A 1-D array lists kept coordinates, the twirl of a 0/1 diagonal P: T
    enters on those only.  The level-N rows are then the kept coordinates
    together with every coordinate that I_out(N) (x) Xi^(N) reaches; the
    other rows are zero in every entry and are left out.

    The constraint map gets one block group per chain operator, in chain
    order, holding the entry of the level below that reads Xi^(j) and the
    level-j entry -I_out(j) (x) Xi^(j); then one group of all the outcome
    blocks, which share the level-N entry.
    """
    space = problem.space
    n_steps = space.num_steps
    d_in = space.in_dims()
    d_out = space.out_dims()

    block_dims = block_sides(problem)
    # prefix dims D_j = D_(j-1) * d_in_j * d_out_j, D_0 = 1
    prefix = [1] + [block_dims[j] * d_out[j] for j in range(n_steps)]
    level_dims = tuple(prefix[1:])

    # level-N rows: their coordinates, and how the outcome blocks enter them
    shrunk_top = _shrunk_rows(prefix[n_steps - 1], d_out[-1], d_in[-1])
    top_coords = np.arange(prefix[n_steps] ** 2)
    if outcome_rows is None:
        outcome_rows = top_coords[:, None]
    elif np.ndim(outcome_rows) == 1:
        kept = np.asarray(outcome_rows)
        top_coords = np.union1d(kept, np.flatnonzero(shrunk_top[:, 0] >= 0))
        outcome_rows = np.where(np.isin(top_coords, kept), top_coords, -1)[:, None]
        shrunk_top = shrunk_top[top_coords]

    offsets = [0, 1]
    for j in range(1, n_steps):
        offsets.append(offsets[-1] + prefix[j] ** 2)
    offsets.append(offsets[-1] + len(top_coords))
    m = offsets[-1]

    # lower[j] reads Xi^(j+1) at level j; level 0 reads its trace, the sum
    # of its diagonal coordinates
    lower = [ConstraintEntry(0, np.arange(block_dims[0])[None, :])]
    lower += [ConstraintEntry(offsets[j], _grown_rows(prefix[j], d_in[j]))
              for j in range(1, n_steps)]
    shrunk = [_shrunk_rows(prefix[j], d_out[j], d_in[j])
              for j in range(n_steps - 1)] + [shrunk_top]
    groups = [BlockGroup((j,), [lower[j], ConstraintEntry(offsets[j + 1],
                                                          shrunk[j], -1.0)])
              for j in range(n_steps)]
    groups.append(BlockGroup(tuple(range(n_steps, len(block_dims))),
                             [ConstraintEntry(offsets[n_steps], outcome_rows)]))

    cmap = BlockConstraintMap(m, block_dims, groups)
    b = np.zeros(m)
    b[0] = 1.0

    gops = payoff_operators(problem)
    C = [np.zeros((n, n)) for n in block_dims[:n_steps]]
    C += [-g.data for g in gops.operators]

    return StandardSdp(problem, gops, tuple(block_dims), level_dims,
                       tuple(offsets), cmap, tuple(C), b, top_coords)


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
        d = sdp.level_dims[j - 1]
        coords = np.zeros(d * d)
        coords[sdp.level_coords(j)] = -y[sdp.level_rows(j)]
        mat = hermitian_from_coords(coords, d)
        dual_ops.append(LabeledOperator(space.prefix_factors(j), mat))
    return DualState(float(-y[0]), tuple(dual_ops))
