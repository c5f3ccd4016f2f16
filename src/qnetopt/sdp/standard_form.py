"""Tester optimization as a block-diagonal SDP in standard form.

The variables are the outcome operators T_est, one block per candidate
estimate, and the objective is  max sum_est <G_est, T_est>.  A tester is
normalized by the chain (Chiribella, D'Ariano and Perinotti, PRA 80,
022339, 2009)

    sum_est T_est = I_out(N) (x) Xi^(N)
    Tr_in(j) Xi^(j) = I_out(j-1) (x) Xi^(j-1)      (1 < j <= N)
    Tr Xi^(1) = 1

which fixes each Xi^(j) as a partial trace of S = sum_est T_est, and a
partial trace of a PSD operator is PSD.  So the chain operators are implied
variables, which presolve removes (Andersen and Andersen, Math. Program. 71,
1995), and the rows are written on S alone.  Level j, j = 0..N, is the
space of I_out(j) (x) Xi^(j), with factors (out_1, in_1, ..., out_j, in_j):
a position of level j is (p, o, i), a level-(j-1) position, an out(j)
level and an in(j) level, and level 0 is the 1x1 space of Xi^(0) = 1.
With M_N = S and M_(j-1) = Tr_in(j) of the out(j)-(0, 0) block of M_j,
the chain says M_j = I_out(j) (x) Xi^(j) for Xi^(j) that block:

    level j > first:  M_j[a] = 0                 if a's out(j) indices differ
                      M_j[a] - M_j[a0] = 0       if both are o >= 1, a0
                                                 the coordinate with o = 0
    level first:      M_first = I

A coordinate whose two out(j) indices are both 0 is one of Xi^(j)'s and
gives no row.  first is the level of the first step with an input: a
leading step with no input fixes its Xi^(j) = I, so the levels below first
have no rows, first = 0 when step 1 has an input (the row Tr Xi^(1) = 1),
and a state problem is  sum_est T_est = I.  Each level-j row is a +-1 sum
of prod_(k>j) d_in(k) coordinates of S, twice that many for a difference
row.  The rows are independent, and range(A^T) is the span of the combs:
-A^T y is lambda R for a comb R and lambda = -b.y, so the dual is a
scalar times a comb as it comes.

Blocks are complex Hermitian and every coefficient is a Hermitian operator,
so row values and objective numbers are Hilbert-Schmidt inner products on the
operators themselves.  The combs are often fixed by a torus of local
diagonal unitaries, a phase on each level of each factor (charge_sectors
finds the largest one).  Such a torus maps testers to testers and leaves
every payoff unchanged, so an optimal tester can be taken invariant: block
diagonal by charge, the sum of a position's level charges.  Each outcome
block is therefore split into its charge sectors, and the rows of each
level are its invariant coordinates, those of the Hermitian basis whose
row and column positions share a charge: the sum of the squared sector
sides, not D_j^2, less Xi^(j)'s.  A covariant program labels the levels'
positions by the pair (charge, character of a diagonal group action) and
its outcome's by the charge only, so its rows are the coordinates that
both the torus and the twirl keep (ChargeSectors).  The sectors of one
side are one block group of the solver, the outcomes as its copies.  A
sector's positions are kept in ascending order, so each of its coordinates
is one coordinate of its block, and the group maps are the maps to S's
coordinates composed with that index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..estimation import EstimationProblem, payoff_operators
from ..networks import CombSpace
from ..operators import SystemLabel
from .ipm import (BlockConstraintMap, BlockGroup, ConstraintEntry,
                  basis_layout, coordinate_index)

CHARGE_DECIMALS = 8  # charges that agree to this many decimals are equal


def _lifted(steps, side: int, row, col, imag) -> np.ndarray:
    """The coordinates of S whose sum is M_j's coordinate (row, col, imag).

    steps are the steps j+1..N, and side is S's.  M_(k-1) is Tr_in(k) of
    M_k's out(k)-(0, 0) block, so a level-(k-1) position p reads the
    positions (p d_out(k) + 0) d_in(k) + i, i over in(k), alike on both
    sides.  One row per coordinate, of prod_(k>j) d_in(k) units.
    """
    row, col = row[:, None], col[:, None]
    for step in steps:
        d_in, grow = step.in_sys.dim, step.out_sys.dim * step.in_sys.dim
        k = np.arange(d_in)
        row = (row[:, :, None] * grow + k).reshape(len(row), -1)
        col = (col[:, :, None] * grow + k).reshape(len(col), -1)
    return coordinate_index(row, col, imag[:, None], side)


# ---------------------------------------------------------------------------
# charge sectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChargeSectors:
    """Sector labels: a torus of local diagonal unitaries, and group characters.

    charges maps a factor id to a (dim, r) array, the charge of each of its
    levels: the phase phi_f(i) that level i gets, as a vector over an
    orthonormal basis of the torus's r directions.  characters maps a factor
    id to a (dim, c) array, the phase that each of c group elements puts on
    each level (diagonal_characters), absent for factors left alone.  A
    position carries the sum of its levels' charges and the product of their
    characters, and the positions that share both form a sector.  With
    neither, every space is one sector.
    """

    charges: Mapping = field(default_factory=dict)
    characters: Mapping = field(default_factory=dict)

    def labels(self, factors: Sequence[SystemLabel]) -> np.ndarray:
        """The sector of each position of the space, numbered by label."""
        return self._label(self.walk(factors))

    def chain_labels(self, space: CombSpace):
        """Labels of levels 0..N, and the charge labels of level N.

        One walk from level 0, the one position of Xi^(0) = 1: level j+1
        is level j with out(j+1) and in(j+1).
        """
        walk = self.walk([])
        level = [self._label(walk)]
        for step in space.steps:
            walk = self.walk([step.out_sys, step.in_sys], walk)
            level.append(self._label(walk))
        top = self._label(walk, False) if self.characters else level[-1]
        return level, top

    def walk(self, factors: Sequence[SystemLabel], walk=None):
        """Each position's (charge, phases) once factors extend walk's space.

        None is the empty space.  Phase column g is element g's: with no
        characters on the factors there is one column, and every phase is 1.
        """
        if walk is None:
            r = max([v.shape[1] for v in self.charges.values()], default=0)
            c = max([v.shape[1] for v in self.characters.values()], default=1)
            walk = np.zeros((1, r)), np.ones((1, c))
        for f in factors:
            q, phases = walk
            add, mul = self.charges.get(f.id), self.characters.get(f.id)
            walk = (np.repeat(q, f.dim, axis=0) if add is None else
                    (q[:, None] + add).reshape(len(q) * f.dim, -1),
                    np.repeat(phases, f.dim, axis=0) if mul is None else
                    (phases[:, None] * mul).reshape(len(q) * f.dim, -1))
        return walk

    def _label(self, walk, characters: bool = True) -> np.ndarray:
        q, phases = walk
        keys = np.rint(q * 10.0 ** CHARGE_DECIMALS).astype(np.int64)
        if characters and self.characters:
            # two positions carry one character when the mean over the group
            # of their phases' ratio is 1, and it is 0 otherwise: label each
            # by the first position of its character
            same = (phases @ phases.conj().T).real > 0.5 * phases.shape[1]
            keys = np.column_stack([keys, same.argmax(axis=1)])
        if not keys.shape[1]:
            return np.zeros(len(keys), np.intp)
        # np.unique(keys, axis=0, return_inverse=True)[1], without its slow
        # structured sort: each row's number among the distinct rows, sorted
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        ids = np.empty(len(keys), np.intp)
        ids[order] = np.cumsum(np.r_[True, np.any(ordered[1:] != ordered[:-1],
                                                  axis=1)]) - 1
        return ids


def charge_sectors(problem: EstimationProblem) -> ChargeSectors:
    """The largest torus of local diagonal unitaries that fixes every comb.

    The unknowns are one phase phi_f(i) per factor f and level i.  Each
    nonzero entry (p, q) of any comb (exactly nonzero, no tolerance) asks
    (e_p - e_q) . phi = 0, where e_p has a 1 at each factor's level of
    position p, and the torus is the nullspace of these equations: that of
    their Gram matrix sum (e_p - e_q)(e_p - e_q)^T, an integer matrix
    summed exactly, whose orthonormal nullspace basis comes from an SVD.
    Every nonzero entry joins two positions of one charge, and a stray tiny
    entry can only merge sectors.  Sectors are told apart by rounding the
    float charges (CHARGE_DECIMALS), so the torus is returned only if no
    nonzero entry joins two positions that rounding labels apart: the
    combs, and the payoff operators summed from them, are then exactly
    zero off the sectors.  Otherwise, as for a comb with no zero entry
    (found at the cost of one comparison pass), the torus is trivial.
    """
    combs = problem.combs
    support = combs[0].op.data != 0
    if np.count_nonzero(support) < support.size:
        for c in combs[1:]:
            support |= c.op.data != 0
    if np.count_nonzero(support) == support.size:
        return ChargeSectors()
    factors = problem.space.factors()
    dims = [f.dim for f in factors]
    size = len(support)
    starts = np.cumsum([0] + dims[:-1])
    levels = np.array(np.unravel_index(np.arange(size), dims)).T
    e = np.zeros((size, sum(dims)))
    e[np.arange(size)[:, None], starts + levels] = 1.0
    # sum_pq W_pq (e_p - e_q)(e_p - e_q)^T, with W the support
    w = support.astype(float)
    cross = e.T @ (w @ e)
    gram = (e.T * (w.sum(axis=0) + w.sum(axis=1))) @ e - cross - cross.T
    _, sv, vt = np.linalg.svd(gram)
    rank = int(np.sum(sv > sv[0] * len(sv) * np.finfo(float).eps))
    null = vt[rank:].T
    torus = ChargeSectors({f.id: null[s:s + f.dim]
                           for f, s in zip(factors, starts)})
    labels = torus.labels(factors)
    if not np.count_nonzero(labels) or \
            np.count_nonzero(support[labels[:, None] != labels]):
        return ChargeSectors()
    return torus


def _invariant_coords(labels: np.ndarray) -> np.ndarray:
    """The coordinates whose row and column share a sector, ascending."""
    row, col, _ = basis_layout(len(labels))
    return np.flatnonzero(labels[row] == labels[col])


def _side_groups(labels: np.ndarray) -> list:
    """A block space's sectors, grouped by side: (positions, map) pairs.

    positions is (s, n): the s sectors of side n, each ascending.  map[c]
    is the group coordinate of the block coordinate c, t n^2 plus the local
    coordinate in sector t, or -1 off the group; map[-1] = -1 keeps padding.
    A single sector needs no map (None): its coordinates are the block's.
    """
    if not np.count_nonzero(labels):
        return [(np.arange(len(labels))[None], None)]
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    sectors = np.split(order, np.cumsum(counts)[:-1])
    side = len(labels)
    groups = []
    for n in dict.fromkeys(counts.tolist()):
        pos = np.array([p for p in sectors if len(p) == n])
        row, col, imag = basis_layout(n)
        parent = coordinate_index(pos[:, row], pos[:, col], imag, side)
        pmap = np.full(side * side + 1, -1)
        pmap[parent.ravel()] = np.arange(parent.size)
        groups.append((pos, pmap))
    return groups


def _remap(tensor: np.ndarray, pmap: Optional[np.ndarray]) -> np.ndarray:
    return tensor if pmap is None else pmap[tensor]


# ---------------------------------------------------------------------------
# the tester SDP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardSdp:
    """Block groups, objective, constraint map, and right-hand side.

    The program's blocks are the cmap groups' (copies, sectors, n, n)
    stacks, those of the outcome blocks' sectors, outcome k the copy k.
    positions[g] holds the (s, n) positions of group g's sectors in an
    outcome block.  C, -G_est on outcome est's sectors and so all of it
    (charge_sectors), is the objective's only copy.  The rows run over the
    levels 0..N, from the first step with an input on, and read S =
    sum_est T_est; b is the identity's coordinates on that first level
    (e_0 when it is level 0) and 0 on every other row.
    """

    problem: EstimationProblem
    level_dims: tuple     # side D_j of each constraint level space, 0..N
    level_offsets: tuple  # first row of each level 0..N, then the row count
    cmap: BlockConstraintMap
    C: tuple              # objective stacks (min <C, X> convention)
    b: np.ndarray
    coords: tuple         # per level 0..N, each row's level-space coordinate
    positions: tuple      # per group, its sectors' positions (s, n)

    @property
    def num_outcomes(self) -> int:
        return self.problem.num_params

    def level_rows(self, j: int) -> slice:
        return slice(self.level_offsets[j], self.level_offsets[j + 1])

    def outcome(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Full size from the groups' (s, n, n) blocks; 0 off them."""
        side = self.level_dims[-1]
        out = np.zeros((side, side), dtype=complex)
        for pos, x in zip(self.positions, blocks):
            out[pos[:, :, None], pos[:, None, :]] = x
        return out

    def primal_start(self) -> List[np.ndarray]:
        """The uniform tester: strictly feasible, all equalities exact.

        Each outcome is I / (K d_in(1) ... d_in(N)).
        """
        c = 1.0
        for step in self.problem.space.steps:
            c = c / step.in_sys.dim
        return [c / self.num_outcomes * np.broadcast_to(np.eye(st.shape[-1]),
                                                        st.shape)
                for st in self.C]


def build_primal(problem: EstimationProblem,
                 sectors: Optional[ChargeSectors] = None) -> StandardSdp:
    """Assemble the block groups, objective, and the structured constraint map.

    sectors labels the positions (charge_sectors, and a diagonal group
    action's characters for a covariant program); None is one sector a
    space.  The rows of every level are its invariant coordinates, those
    whose row and column share a sector, less Xi^(j)'s.  The outcome blocks
    are split by charge only: a covariant program's single outcome T need
    not be invariant under the group, and its rows impose the chain on
    twirl(T).  The group acts locally, so the twirl commutes with the
    partial traces and the out(j)-(0, 0) blocks that make the chain, and
    the rows left out never bind.

    The rows start at the first step with an input, whose level keeps all
    its coordinates, M_first = b; a later level j reads M_j, at -1 the o = 0
    coordinate too on a difference row (the module docstring).  The
    program gets one block group per sector side of the outcome space, a
    copy per outcome.  Each level gives a group one entry, reading the
    units that fall in it, and a difference row's -1 units one more on the
    same rows.  The objective is -G_est on outcome est's sectors, gathered
    from each G_est and then negated.
    """
    torus = sectors if sectors is not None else ChargeSectors()
    space = problem.space
    first = next((j for j, step in enumerate(space.steps)
                  if step.in_sys.dim > 1), space.num_steps)
    level_labels, outcome_labels = torus.chain_labels(space)
    level_dims = tuple(len(labels) for labels in level_labels)
    side = level_dims[-1]

    # per level: its rows' coordinates, and their +1 and -1 units on S
    coords, units, offsets = [], [], [0]
    for j, labels in enumerate(level_labels):
        c = _invariant_coords(labels) if j >= first else np.zeros(0, np.intp)
        row, col, imag = (x[c] for x in basis_layout(level_dims[j]))
        shift = None
        if j > first:
            step = space.steps[j - 1]
            d_in, d_out = step.in_sys.dim, step.out_sys.dim
            o_r, o_c = row // d_in % d_out, col // d_in % d_out
            # the rows whose out(j) indices differ, then the difference rows
            keep = np.flatnonzero((o_r > 0) | (o_c > 0))
            keep = keep[np.argsort(o_r[keep] == o_c[keep], kind="stable")]
            c, row, col, imag = c[keep], row[keep], col[keep], imag[keep]
            same = (o_r == o_c)[keep]
            shift = np.where(same, o_r[keep] * d_in, 0)
        if len(c):
            lifted = _lifted(space.steps[j:], side, row, col, imag)
            minus = None if shift is None else np.where(same[:, None], _lifted(
                space.steps[j:], side, row - shift, col - shift, imag), -1)
            units.append((offsets[-1], lifted, minus))
        coords.append(c)
        offsets.append(offsets[-1] + len(c))
    m = offsets[-1]

    # one group per sector side, a copy per outcome; the objective -G_est
    G = payoff_operators(problem)
    groups, positions, C = [], [], []
    for pos, pmap in _side_groups(outcome_labels):
        s, n = pos.shape
        entries = []
        for start, plus, minus in units:
            for tensor, scale in ((plus, 1.0), (minus, -1.0)):
                if tensor is not None:
                    tensor = _remap(tensor, pmap)
                    if tensor.max(initial=-1) >= 0:
                        entries.append(ConstraintEntry(start, tensor, scale))
        groups.append(BlockGroup(problem.num_params, n, entries, s))
        positions.append(pos)
        C.append(-G[:, pos[:, :, None], pos[:, None, :]])

    # M_first = I: 1 on its diagonal rows
    b = np.zeros(m)
    b[offsets[first] + np.flatnonzero(coords[first] < level_dims[first])] = 1.0
    return StandardSdp(problem, level_dims, tuple(offsets),
                       BlockConstraintMap(m, groups), tuple(C), b,
                       tuple(coords), tuple(positions))
