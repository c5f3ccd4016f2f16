"""Tester optimization as a block-diagonal SDP in standard form.

Variable blocks are the tester chain operators Xi^(1)..Xi^(N) followed by one
outcome operator per candidate estimate.  The equality constraints are the
tester normalization recursion, written level by level:

    level 0:      Tr_in1[Xi^(1)] = 1
    level j:      Tr_in(j+1)[Xi^(j+1)] - I_out(j) (x) Xi^(j) = 0     (1 <= j < N)
    level N:      sum_est T_est - I_out(N) (x) Xi^(N) = 0

and the objective is  max sum_est <G_est, T_est>.  Level 0 is the base
case, on the 1x1 space of Xi^(0) = 1, whose side is D_0 = 1.  A leading
step with no input fixes its Xi^(j) = I: it has no block, the levels below
the first step with an input have no rows, and that level's I_out (x) Xi
is the right-hand side.  So level 0 has a row only when step 1 has an
input, and a state problem is  sum_est T_est = I.

Blocks are complex Hermitian and every coefficient is a Hermitian operator,
so row values and objective numbers are Hilbert-Schmidt inner products on the
operators themselves.  The combs are often fixed by a torus of local
diagonal unitaries, a phase on each level of each factor (charge_sectors
finds the largest one).  Such a torus maps testers to testers and leaves
every payoff unchanged, so an optimal tester and an optimal dual chain can
be taken invariant: block diagonal by charge, the sum of a position's level
charges.  Each tester block is therefore split into its charge sectors, and
the constraint rows of each level are its invariant coordinates, those of
the Hermitian basis whose row and column positions share a charge: the sum
of the squared sector sides, not D_j^2.  A trivial torus has one sector per
space and gives sum_j D_j^2 rows over the levels that have rows, which
keeps the Schur complement positive definite.  A covariant program labels
the chain's positions by the pair (charge, character of a diagonal group
action) and its outcome's by the charge only, so its rows are the
coordinates that both the torus and the twirl keep (ChargeSectors).  The
sectors of one side are one block group of the solver: those of each
Xi^(j), and those of every outcome block, the outcomes as its copies.

Chain operators use the factor order (out_1, in_1, ..., out_{j-1}, in_{j-1},
in_j); with that choice every coefficient is either a basis element, a basis
element with an identity appended, or a partial trace of one, and no factor
permutations appear in the hot path.  A sector's positions are kept in
ascending order, so each of its coordinates is one coordinate of its block,
and the sector maps are these maps composed with that index.
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


def _grown_rows(d: int, d_in: int, coords) -> np.ndarray:
    """Coordinates of B_a (x) I_in on side d * d_in: d_in unit entries a row.

    One row per coordinate a in coords of side d.
    """
    row, col, imag = (x[coords] for x in basis_layout(d))
    k = np.arange(d_in)
    return coordinate_index(row[:, None] * d_in + k, col[:, None] * d_in + k,
                            imag[:, None], d * d_in)


def _shrunk_rows(pre: int, d_out: int, d_in: int, coords) -> np.ndarray:
    """Coordinates of Tr_out B_a for B_a on (pre, out, in): one unit or none.

    e_PQ traces to e_P'Q' (output index dropped) if P and Q share the output
    index and to zero otherwise; dropping it keeps P' < Q'.  One row per
    coordinate a in coords.
    """
    row, col, imag = (x[coords] for x in basis_layout(pre * d_out * d_in))

    def keep(i):
        return i // (d_out * d_in) * d_in + i % d_in

    idx = coordinate_index(keep(row), keep(col), imag, pre * d_in)
    same_out = row // d_in % d_out == col // d_in % d_out
    return np.where(same_out, idx, -1)[:, None]


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
        """Labels of each Xi^(j), of levels 0..N, and the charge labels of N.

        One walk from level 0, the one position of Xi^(0) = 1: Xi^(j+1) is
        level j with in(j+1), level j+1 with out(j+1) too.
        """
        walk = self.walk([])
        xi, level = [], [self._label(walk)]
        for step in space.steps:
            xi.append(self._label(self.walk([step.in_sys], walk)))
            walk = self.walk([step.out_sys, step.in_sys], walk)
            level.append(self._label(walk))
        top = self._label(walk, False) if self.characters else level[-1]
        return xi, level, top

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

    The program's blocks are the cmap groups' (copies, sectors, n, n) stacks:
    first, step by step, the groups of Xi^(j)'s sectors (xi_groups), one copy
    each and none for a fixed Xi^(j), then those of the outcome blocks'
    sectors, outcome k the copy k.  positions[g] holds the (s, n) positions
    of group g's sectors in their tester block.  C, -G_est on outcome est's
    sectors and so all of it (charge_sectors), is the objective's only copy.
    The rows run over the levels 0..N of the chain, level 0 the 1x1 space
    of Xi^(0) = 1, from the first step with an input on; b is the identity's
    coordinates on that level (e_0 when it is level 0).
    """

    problem: EstimationProblem
    level_dims: tuple     # side D_j of each constraint level space, 0..N
    level_offsets: tuple  # first row of each level 0..N, then the row count
    cmap: BlockConstraintMap
    C: tuple              # objective stacks (min <C, X> convention)
    b: np.ndarray
    coords: tuple         # per level 0..N, each row's level-space coordinate
    positions: tuple      # per group, its sectors' positions (s, n)
    xi_groups: tuple      # per step, the cmap groups of Xi^(j)'s sectors

    @property
    def num_steps(self) -> int:
        return self.problem.space.num_steps

    @property
    def num_outcomes(self) -> int:
        return self.problem.num_params

    def level_rows(self, j: int) -> slice:
        return slice(self.level_offsets[j], self.level_offsets[j + 1])

    @property
    def outcome_groups(self) -> slice:
        return slice(sum(map(len, self.xi_groups)), None)

    def outcome(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Full size from the outcome groups' (s, n, n) blocks; 0 off them."""
        side = self.level_dims[-1]
        out = np.zeros((side, side), dtype=complex)
        for pos, x in zip(self.positions[self.outcome_groups], blocks):
            out[pos[:, :, None], pos[:, None, :]] = x
        return out

    def primal_start(self) -> List[np.ndarray]:
        """The uniform tester chain: strictly feasible, all equalities exact.

        Xi^(j) is I / (d_in(1) ... d_in(j)), and each outcome I_N / K.
        """
        scale, c = [], 1.0
        for step, groups in zip(self.problem.space.steps, self.xi_groups):
            c = c / step.in_sys.dim
            scale += [c] * len(groups)
        scale += [c / self.num_outcomes] * (len(self.positions) - len(scale))
        return [v * np.broadcast_to(np.eye(st.shape[-1]), st.shape)
                for v, st in zip(scale, self.C)]


def build_primal(problem: EstimationProblem,
                 sectors: Optional[ChargeSectors] = None) -> StandardSdp:
    """Assemble the block groups, objective, and the structured constraint map.

    sectors labels the positions (charge_sectors, and a diagonal group
    action's characters for a covariant program); None is one sector a
    space.  Each Xi^(j) is split into its sectors, and the rows of every
    level are its invariant coordinates, those whose row and column share a
    sector.  The outcome blocks are split by charge only: a covariant
    program's single outcome T need not be invariant under the group, and
    its level-N rows impose twirl(T) = I_out(N) (x) Xi^(N).  The group acts
    locally, so twirling the Xi chain keeps it a chain, and the rows left
    out never bind.

    The levels run 0..N alike, level 0 the 1x1 space of Xi^(0) = 1, whose
    one row reads Tr Xi^(1).  The recursion from Tr Xi^(1) = 1 fixes
    Xi^(j) = I for the leading steps with no input: they get no group, the
    levels below the first step with an input get no rows, and b is the
    identity's coordinates on that level (e_0 when step 1 has an input)
    and 0 on every other row.  The program gets, in chain order, one block
    group per sector side of each other chain operator, one copy holding
    the entry of the level below that reads Xi^(j) and the level-j entry
    -I_out(j) (x) Xi^(j); then one
    group per sector side of the outcome space, a copy per outcome, which
    share the level-N entry.  Its objective is zero on the chain and -G_est
    on outcome est's sectors, gathered from each G_est and then negated.
    """
    torus = sectors if sectors is not None else ChargeSectors()
    space = problem.space

    # levels 0..N, level 0 the 1x1 space of Xi^(0) = 1: the side D_j of
    # each, and its rows, its invariant coordinates, none below the first
    # step with an input
    first = next((j for j, step in enumerate(space.steps)
                  if step.in_sys.dim > 1), space.num_steps)
    xi_labels, level_labels, outcome_labels = torus.chain_labels(space)
    level_dims = tuple(len(labels) for labels in level_labels)
    coords = [_invariant_coords(labels) if j >= first else np.zeros(0, np.intp)
              for j, labels in enumerate(level_labels)]
    offsets = [0]
    for c in coords:
        offsets.append(offsets[-1] + len(c))
    m = offsets[-1]

    # level j reads Xi^(j+1) through B_a (x) I_in(j+1), its partial trace,
    # and level j + 1 through -Tr_out(j+1) B_a, minus I_out(j+1) (x) Xi^(j+1)
    groups, positions, xi_groups, C = [], [], [()] * first, []
    for j, step in enumerate(space.steps[first:], start=first):
        d, d_in, d_out = level_dims[j], step.in_sys.dim, step.out_sys.dim
        lower = _grown_rows(d, d_in, coords[j])
        upper = _shrunk_rows(d, d_out, d_in, coords[j + 1])
        split = _side_groups(xi_labels[j])
        xi_groups.append(tuple(range(len(groups), len(groups) + len(split))))
        for pos, pmap in split:
            s, n = pos.shape
            groups.append(BlockGroup(1, n, [
                ConstraintEntry(offsets[j], _remap(lower, pmap)),
                ConstraintEntry(offsets[j + 1], _remap(upper, pmap),
                                -1.0)], s))
            positions.append(pos)
            C.append(np.zeros((1, s, n, n), dtype=complex))

    # objective: -G_est on each outcome's sectors, the outcomes as copies
    G = payoff_operators(problem)
    for pos, pmap in _side_groups(outcome_labels):
        s, n = pos.shape
        groups.append(BlockGroup(problem.num_params, n, [ConstraintEntry(
            offsets[space.num_steps], _remap(coords[-1][:, None], pmap))], s))
        positions.append(pos)
        C.append(-G[:, pos[:, :, None], pos[:, None, :]])

    # I_out(first) (x) Xi^(first) = I on level first: 1 on its diagonal rows
    b = np.zeros(m)
    b[offsets[first] + np.flatnonzero(coords[first] < level_dims[first])] = 1.0
    return StandardSdp(problem, level_dims, tuple(offsets),
                       BlockConstraintMap(m, groups), tuple(C), b,
                       tuple(coords), tuple(positions), tuple(xi_groups))
