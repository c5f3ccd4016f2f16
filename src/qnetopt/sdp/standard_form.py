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
sector's positions are kept in ascending order, so a unit on S's positions
(P, Q), P <= Q, is the coordinate of the positions' indices in their
sector, and each group lists, for the rows that reach it, only the units
that fall on it.  diagonal_orbit finds when the combs are, besides, an
orbit of a group of local diagonal unitaries, whose characters give solve
the one-outcome seed program of covariant_gamma.
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


def _lifted(steps, row, col):
    """The positions (P, Q) on S of the units whose sum is M_j's (row, col).

    steps are the steps j+1..N.  M_(k-1) is Tr_in(k) of M_k's out(k)-(0, 0)
    block, so a level-(k-1) position p reads the positions (p d_out(k) + 0)
    d_in(k) + i, i over in(k), alike on both sides.  One row per coordinate,
    of prod_(k>j) d_in(k) units, and P <= Q wherever row <= col.
    """
    row, col = row[:, None], col[:, None]
    for step in steps:
        d_in, grow = step.in_sys.dim, step.out_sys.dim * step.in_sys.dim
        row, col = ((x[:, :, None] * grow + np.arange(d_in)).reshape(
            len(x), x.shape[1] * d_in) for x in (row, col))
    return row, col


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
        return _row_ids(keys)


def _row_ids(keys: np.ndarray) -> np.ndarray:
    """Each row's number among the distinct rows of keys, sorted.

    np.unique(keys, axis=0, return_inverse=True)[1], without its slow
    structured sort.
    """
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


# ---------------------------------------------------------------------------
# diagonal orbits
# ---------------------------------------------------------------------------

ORBIT_TOL = 1e-8     # |U_x R_e U_x^H - R_x| against 1 + the largest |R|
PAYOFF_TOL = 1e-9    # |g(y, x) - g(e, y^-1 x)|
PHASE_TURNS = 1 << 24  # phases that round alike at 2^-24 turn are equal


def joint_entries(combs) -> tuple:
    """The combs' joint support (rows, cols), and their (K, nnz) values there."""
    support = combs[0].op.data != 0
    for c in combs[1:]:
        support |= c.op.data != 0
    rows, cols = np.nonzero(support)
    return rows, cols, np.array([c.op.data[rows, cols] for c in combs])


def orbit_misfits(entries: tuple, e: int, phases: np.ndarray) -> np.ndarray:
    """Whether each comb x misses U_x R_e U_x^H by over ORBIT_TOL.

    entries is joint_entries' triple; column x of the (D, c) phases is
    diag(U_x), one column of ones serving every x.  Off the joint support
    both sides are exactly 0, and U R U^H is R times outer(ph, conj ph).
    """
    rows, cols, stack = entries
    ph = np.broadcast_to(phases.T, (len(stack), len(phases)))
    scale = 1.0 + float(np.abs(stack).max())
    err = np.abs(stack[e] * (ph[:, rows] * ph[:, cols].conj())
                 - stack).max(axis=1)
    return err > ORBIT_TOL * scale


def payoff_misfits(payoff: np.ndarray, quotient: np.ndarray,
                   e: int) -> np.ndarray:
    """Whether each row y misses g(y, x) = g(e, y^-1 x) by over PAYOFF_TOL.

    quotient[y, x] is the index of y^-1 x.
    """
    return np.abs(payoff - payoff[e, quotient]).max(axis=1) > PAYOFF_TOL


def _read_phases(factors, rows, cols, ratio) -> dict:
    """Per factor moved, the (dim, K) phases of U_x, R_x = U_x R_0 U_x^H.

    ratio, R_x / R_0 on the joint support at unit modulus, reads prod_f
    u_f(p_f) conj(u_f(q_f)) at entry (p, q).  Where every later factor's
    levels agree, and with the earlier factors' phases divided out, that
    is u_f(a) conj(u_f(b)) on f's levels a, b: a walk along those entries
    from level 0 (phase 1, and again from the lowest level left) reads f's
    levels for every label at once.  Unread levels keep phase 1.  The
    phases are fixed only up to the torus that fixes R_0: the caller
    checks them.
    """
    dims = [f.dim for f in factors]
    lr, lc = np.unravel_index(rows, dims), np.unravel_index(cols, dims)
    later, agree = [], np.ones(len(rows), bool)
    for a, b in zip(lr[::-1], lc[::-1]):
        later.append(agree)
        agree = agree & (a == b)
    characters = {}
    for f, a, b, same in zip(factors, lr, lc, later[::-1]):
        edge = np.flatnonzero(same & (a != b))
        ea, eb, r = a[edge], b[edge], ratio[:, edge].conj()
        u = np.ones((len(ratio), f.dim), complex)
        known = np.zeros(f.dim, bool)
        known[0] = True
        while True:
            step = np.flatnonzero(known[ea] & ~known[eb])
            if not step.size:
                left = eb[~known[eb]]
                if not left.size:
                    break
                known[left.min()] = True
                continue
            new, first = np.unique(eb[step], return_index=True)
            u[:, new] = r[:, step[first]] * u[:, ea[step[first]]]
            known[new] = True
        if np.count_nonzero(u != 1.0):
            characters[f.id] = u.T
            ratio = ratio * (u[:, a].conj() * u[:, b])
    return characters


def diagonal_orbit(problem: EstimationProblem,
                   torus: ChargeSectors) -> Optional[tuple]:
    """(characters, phases) of local diagonal U_x, a group with R_x = U_x R_0
    U_x^H; None if the combs are no such orbit.

    characters maps each factor moved to its (dim, K) phases, column x
    U_x's (diagonal_characters' form), and column x of the (D, K) phases is
    diag(U_x); U_0 = I.  Detection runs only on a nontrivial torus
    (charge_sectors): combs with no zero entry, such as three qubit PSK
    states, get None.  The combs must share one zero pattern, on which U_x
    is read (_read_phases), and be U_x R_0 U_x^H (orbit_misfits).  The U_x
    must be distinct and hold every U_y^-1 U_x, matched by their phases
    rounded to PHASE_TURNS: the group's quotient table.  The prior must be
    uniform, the payoff left-invariant (payoff_misfits) and g(e, .) not 0.
    """
    k = problem.num_params
    if not torus.charges or k < 2 \
            or np.abs(problem.prior - 1.0 / k).max() > 1e-9 \
            or problem.payoff[0].sum() <= 1e-14 * k:
        return None
    entries = joint_entries(problem.combs)
    rows, cols, stack = entries
    if np.count_nonzero(stack) < stack.size:
        return None
    ratio = stack / stack[0]
    factors = problem.space.factors()
    characters = _read_phases(factors, rows, cols, ratio / np.abs(ratio))
    if not characters:
        return None
    _, phases = ChargeSectors(characters=characters).walk(factors)
    if orbit_misfits(entries, 0, phases).any():
        return None
    v = np.concatenate(list(characters.values())).T  # (K, levels moved)
    quotient = v.conj()[:, None] * v
    turns = np.angle(np.concatenate([v, quotient.reshape(k * k, -1)]))
    keys = np.rint(turns * (PHASE_TURNS / (2.0 * np.pi))).astype(np.int64)
    ids = _row_ids(keys % PHASE_TURNS)
    index = np.full(len(keys), -1)
    index[ids[:k]] = np.arange(k)
    quotient = index[ids[k:]].reshape(k, k)
    if np.count_nonzero(index >= 0) < k or (quotient < 0).any() \
            or payoff_misfits(problem.payoff, quotient, 0).any():
        return None
    return characters, phases


def _invariant_coords(labels: np.ndarray) -> np.ndarray:
    """The coordinates whose row and column share a sector, ascending."""
    row, col, _ = basis_layout(len(labels))
    return np.flatnonzero(labels[row] == labels[col])


def _side_groups(labels: np.ndarray) -> list:
    """A block space's sectors, grouped by side: (positions, sector, local).

    positions is (s, n): the s sectors of side n, each ascending.  sector[p]
    and local[p] are position p's sector in the group and its index in that
    sector, -1 off the group, so a coordinate on positions (p, q) of one
    sector is the group's sector[p] n^2 + coordinate_index(local[p],
    local[q], imag, n).
    """
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    groups = []
    for n in dict.fromkeys(counts.tolist()):
        pos = order[(counts == n)[labels[order]]].reshape(-1, n)
        sector, local = np.full((2, len(labels)), -1)
        sector[pos] = np.arange(len(pos))[:, None]
        local[pos] = np.arange(n)
        groups.append((pos, sector, local))
    return groups


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
    copy per outcome.  A level's rows that reach a group are split by how
    many +1 and how many -1 units they read on it, each split one entry of
    the group: each row's units on the group, +1 first (ConstraintEntry).
    The objective is -G_est on outcome est's sectors, gathered
    from each G_est and then negated.
    """
    torus = sectors if sectors is not None else ChargeSectors()
    space = problem.space
    first = next((j for j, step in enumerate(space.steps)
                  if step.in_sys.dim > 1), space.num_steps)
    level_labels, outcome_labels = torus.chain_labels(space)
    level_dims = tuple(len(labels) for labels in level_labels)

    # per level: its rows' coordinates, and its units in two blocks of rows,
    # those that read +1 units and the difference rows, which read +1 units
    # then as many -1 units: their positions on S, imag, and signs
    coords, units, offsets = [], [], [0]
    for j, labels in enumerate(level_labels):
        c = _invariant_coords(labels) if j >= first else np.zeros(0, np.intp)
        row, col, imag = (x[c] for x in basis_layout(level_dims[j]))
        d, shift = len(c), 0  # rows d on: M_j at (o, o) less at (0, 0)
        if j > first:
            step = space.steps[j - 1]
            d_in, d_out = step.in_sys.dim, step.out_sys.dim
            o_r, o_c = row // d_in % d_out, col // d_in % d_out
            # the rows whose out(j) indices differ, then the difference rows
            keep = np.flatnonzero((o_r > 0) | (o_c > 0))
            keep = keep[np.argsort(o_r[keep] == o_c[keep], kind="stable")]
            c, row, col, imag = c[keep], row[keep], col[keep], imag[keep]
            d = np.count_nonzero(o_r[keep] != o_c[keep])
            shift = o_r[keep][d:] * d_in
        rows = offsets[-1] + np.arange(len(c))
        coords.append(c)
        offsets.append(offsets[-1] + len(c))
        if len(c):
            P, Q = _lifted(space.steps[j:], row, col)
            signs = np.ones(P.shape[1])
            units.append((rows[:d], P[:d], Q[:d], imag[:d], signs))
        if d < len(c):
            Pm, Qm = _lifted(space.steps[j:], row[d:] - shift, col[d:] - shift)
            units.append((rows[d:], np.hstack([P[d:], Pm]),
                          np.hstack([Q[d:], Qm]), imag[d:],
                          np.concatenate([signs, -signs])))
    m = offsets[-1]

    # one group per sector side, a copy per outcome; the objective -G_est
    G = payoff_operators(problem)
    groups, positions, C = [], [], []
    for pos, sector, local in _side_groups(outcome_labels):
        s, n = pos.shape
        entries = []
        for rows, P, Q, imag, signs in units:
            on = local[P] >= 0  # the lift keeps P and Q in one sector
            split = on @ np.where(signs > 0, 1, len(signs) + 1)
            for key in np.unique(split[split > 0]):
                r = np.flatnonzero(split == key)
                p, q, live = P[r], Q[r], on[r]
                coord = sector[p] * n * n + coordinate_index(
                    local[p], local[q], imag[r, None], n)
                entries.append(ConstraintEntry(
                    rows[r], coord[live].reshape(len(r), -1), signs[live[0]]))
        groups.append(BlockGroup(problem.num_params, n, entries, s))
        positions.append(pos)
        C.append(-G[:, pos[:, :, None], pos[:, None, :]])

    # M_first = I: 1 on its diagonal rows
    b = np.zeros(m)
    b[offsets[first] + np.flatnonzero(coords[first] < level_dims[first])] = 1.0
    return StandardSdp(problem, level_dims, tuple(offsets),
                       BlockConstraintMap(m, groups), tuple(C), b,
                       tuple(coords), tuple(positions))
