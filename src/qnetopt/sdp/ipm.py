"""Feasible-start primal-dual interior-point core for block-diagonal SDPs.

Solves   min <C, X>  s.t.  A(X) = b,  X >= 0 (block diagonal, complex Hermitian)
and its dual simultaneously, with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  The caller supplies strictly feasible primal and
dual starting points; with those, every iterate stays (numerically) feasible,
so primal and dual objectives bracket the optimum and the duality gap is an
honest error bound.

The program is its block groups: each is K copies of s sector blocks of
one side n, held as one (K, s, n, n) stack.  C, the start X0 and the
result's X come as one such stack per group; blocks are numbered
group by group, copy by copy.  (The copies are the outcome blocks of a
tester; the sectors are the charge sectors of one block, or of every
outcome block.)  Constraints are supplied as a BlockConstraintMap in
coordinates: x_a = Re<B_a, X> in the orthonormal Hermitian basis B
(basis_layout), and each row group's entry is a unit coordinate map R:
each of its rows reads a scaled sum of coordinates, R x, of the copies
summed, s n^2 coordinates sector-major.  So A^T y is one (s, n, n) stack
per group, the same for every copy, and broadcasting hands it to each.
A and A^T run through one scatter plan a group, built once: a sparse map
between the rows and the floats of the copies' sum, as SDPT3 holds each
block's A (Toh, Todd and Tutuncu, Optim. Methods Softw. 11, 1999), so each
is one bincount a group.  The Schur complement then needs, per group, only the block-diagonal S
with blocks S_t[a, c] = Re sum_k Tr(B_a W_kt B_c W_kt), which one batched
GEMM and an index gather give in closed form (basis_kernel); for n = 1
that is the diagonal sum_k |W_kt|^2.  Entry pairs add R_i S R_j^T.  This
is the structure-exploiting assembly of Fujisawa, Kojima and Nakata (Math.
Program. 79, 1997), specialised to comb constraints; every group takes it,
including those whose entries read only some coordinates (the outcome
sectors of a covariant program).  The iteration keeps one (2 K, s, n, n)
stack [X; Z] per group: one batched Cholesky and inverse an iteration serve
the NT scaling and Z^-1, and one eigensolve of each direction [dX; dZ]
gives both step lengths.  A group of side 1 is the nonnegative orthant, as
in SDPT3's linear blocks: its factor, inverse, NT scaling and step lengths
are taken elementwise in closed form, with no LAPACK call.  A LAPACK call
that fails stops the solve and names its block (_lapack).  The predictor
and corrector share W R_d W and its image under A.  The Schur complement H
is one (m, m) array held for the whole loop: each iteration's assembly
zeroes it and adds into it, and its Cholesky factor overwrites it, so no
m x m array is allocated after the first.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np
# LAPACK itself: at small m, SciPy's checking cho_factor and cho_solve cost
# several times the work.  solve_ipm looks the names up at call time.
from scipy.linalg.lapack import dpotrf as cho_factor, dpotrs as cho_solve

from ..errors import BadParameter, MaxIterations, NumericalFailure

_R2 = np.sqrt(0.5)
STEP_FRACTION = 0.98     # share of the distance to the cone boundary taken
MIN_SIGMA = 1e-10        # floor of the centering parameter
FEAS_TOL_FACTOR = 100.0  # feasibility residuals may reach this times tol


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the interior-point loop."""

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not (0.0 < self.tol < np.inf and self.max_iter >= 0):
            raise BadParameter("need a finite tol > 0 and max_iter >= 0, got "
                               "%r and %r" % (self.tol, self.max_iter))


@functools.lru_cache(maxsize=None)
def basis_layout(n: int):
    """Position (row[a], col[a]), row <= col, of each basis coordinate a.

    The Hermitian basis of side n is e_ii, then (e_ij + e_ji)/sqrt2, then
    i(e_ij - e_ji)/sqrt2 (imag[a] true), pairs i < j in row-major order.
    """
    iu, ju = np.triu_indices(n, 1)
    diag = np.arange(n)
    layout = (np.concatenate([diag, iu, iu]), np.concatenate([diag, ju, ju]),
              np.arange(n * n) >= n + len(iu))
    for arr in layout:
        arr.setflags(write=False)
    return layout


def coordinate_index(row, col, imag, n: int):
    """Inverse of basis_layout: the coordinate on (row, col), row <= col."""
    pair = row * n - row * (row + 1) // 2 + col - row - 1
    return np.where(row == col, row, n + pair + imag * (n * (n - 1) // 2))


@functools.lru_cache(maxsize=None)
def _flat_positions(n: int):
    """Flat index of the diagonal, and of each pair's upper and lower entry."""
    row, col, _ = basis_layout(n)
    h = (n * n + n) // 2
    return row[:n] * (n + 1), row[n:h] * n + col[n:h], col[n:h] * n + row[n:h]


@functools.lru_cache(maxsize=None)
def _float_positions(n: int):
    """coords = w f[i] + v f[j] over the (re, im) floats f of a matrix."""
    diag, up, lo = _flat_positions(n)
    w = np.full(n * n, _R2)
    w[:n] = 0.5
    v = w.copy()
    v[n + len(up):] *= -1.0
    return (np.concatenate([2 * diag, 2 * up, 2 * up + 1]),
            np.concatenate([2 * diag, 2 * lo, 2 * lo + 1]), w, v)


def basis_kernel(stack: np.ndarray) -> np.ndarray:
    """S_t[a, c] = Re sum_k Tr(B_a L_kt B_c L_kt^H) for a (K, s, n, n) stack L.

    The (s, n^2, n^2) kernels of the s sectors come from one batched GEMM,
    G_t[(q, r), (p, s)] = sum_k L_kt[q, r] conj(L_kt[p, s]); for n = 1 its
    real part is S.  Transposed to T[(p, q), (r, s)] it turns each trace
    into vec(B_a)^T T vec(B_c).  Each B_a has at most two nonzero entries
    and T[(q, p), (s, r)] = conj T[(p, q), (r, s)], so S is a gather of the
    rows p <= q of T at the diagonal, upper and lower positions.
    """
    k, s, n, _ = stack.shape
    flat = stack.reshape(k, s, n * n)
    G = flat.transpose(1, 2, 0) @ flat.transpose(1, 0, 2).conj()
    if n == 1:
        return G.real.copy()
    G = G.reshape(s, n, n, n, n)
    row, col, _ = basis_layout(n)
    h = (n * n + n) // 2  # coordinates: diagonal | symmetric | antisymmetric
    V = G[:, col[:h], :, row[:h], :].reshape(h, s, n * n)  # rows p <= q of T
    del G  # the gather copied all that S needs
    diag, up, lo = _flat_positions(n)
    Vd, Vu, Vl = V.take(diag, axis=-1), V.take(up, axis=-1), V.take(lo, axis=-1)
    del V  # and so did these three
    plus, minus = Vu + Vl, Vl - Vu
    S = np.empty((s, n * n, n * n))
    T = S.transpose(1, 0, 2)  # T[a, t, c] = S_t[a, c], in V's axis order
    T[:h, :, :n], T[h:, :, :n] = Vd.real, -Vd[n:].imag
    T[:h, :, n:h], T[:h, :, h:] = plus.real, minus.imag
    T[h:, :, n:h], T[h:, :, h:] = -plus[n:].imag, minus[n:].real
    T[n:, :, :n] *= np.sqrt(2.0)
    T[:n, :, n:] *= _R2
    return S


def _block_diagonal(S: np.ndarray) -> np.ndarray:
    """The (s d, s d) block-diagonal matrix of an (s, d, d) stack."""
    s, d, _ = S.shape
    if s == 1:
        return S[0]
    out = np.zeros((s, d, s, d))
    idx = np.arange(s)
    out[idx, :, idx, :] = S
    return out.reshape(s * d, s * d)


@dataclass
class ConstraintEntry:
    """Coordinate map R of one row group on a block: the rows read R x.

    R is scale times the tensor's unit map, on rows row_start onwards, one
    per tensor row: the integer tensor (rows, k) lists the coordinates whose
    unit vectors sum to each row, with -1 padding short rows.  On a block of
    r coordinates, the tensor 0..r-1 at scale 1 is the identity (identity).
    """

    row_start: int
    tensor: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        t = self.tensor
        self.padded = t.min(initial=0) < 0
        self.identity = self.scale == 1.0 and t.shape[1:] == (1,) and \
            np.array_equal(t[:, 0], np.arange(len(t)))

    @property
    def rows(self) -> slice:
        return slice(self.row_start, self.row_start + len(self.tensor))

    def left(self, M: np.ndarray) -> np.ndarray:
        """R @ M, for M with the block's coordinates along axis 0."""
        if self.identity and len(M) == len(self.tensor):
            return M
        t = self.tensor
        if t.shape[1] == 1:
            out = M.take(t[:, 0], axis=0)
            if self.padded:
                out[t[:, 0] < 0] = 0.0
        else:
            if self.padded:  # index -1 reads an appended zero row
                M = np.concatenate([M, np.zeros((1,) + M.shape[1:])])
            out = M.take(t, axis=0).sum(axis=1)
        if self.scale != 1.0:
            out *= self.scale
        return out


class BlockGroup(NamedTuple):
    """K copies of s sector blocks of one side n, which the entries read alike.

    Its stack is (K, s, n, n).  A sums the copies, and the entries read the
    sectors' coordinates one after another, s n^2 of them.
    """

    copies: int
    side: int
    entries: list
    sectors: int


def _scatter_plan(g: BlockGroup):
    """(rows, floats, weights): A on the group as one scatter of its floats.

    Coordinate c of sector t is w f[i] + v f[j] over the floats f of the
    copies' sum, t 2 n^2 onwards (_float_positions); a diagonal's two halves
    are one float of weight 1.  Each unit c of each entry's tensor gives
    its row these two (float, weight) records, the weight times the
    entry's scale, in the tensor's order; zero weights are dropped.
    """
    i, j, w, v = _float_positions(g.side)
    w, v = np.where(i == j, 1.0, w), np.where(i == j, 0.0, v)
    start = 2 * g.side ** 2 * np.arange(g.sectors)[:, None]
    floats = np.stack([start + i, start + j], axis=-1).reshape(-1, 2)
    weights = np.tile(np.stack([w, v], axis=-1), (g.sectors, 1))
    parts = []
    for e in g.entries:
        r, k = np.nonzero(e.tensor >= 0)
        c = e.tensor[r, k]
        parts.append((np.repeat(e.row_start + r, 2), floats[c].ravel(),
                      e.scale * weights[c].ravel()))
    rows, fl, wt = (np.concatenate(a) for a in zip(*parts))
    keep = wt != 0.0
    return rows[keep], fl[keep], wt[keep]


class BlockConstraintMap:
    """The linear map A and its adjoint, with a structured Schur assembler.

    They act on one (K, s, n, n) stack per block group, in the order of
    groups.  entries lists every group's entries, and sizes the number of
    coordinates they read in each group.  plans holds each group's entries
    as one scatter plan (_scatter_plan), SDPT3's precomputed A of a block:
    A is one bincount a group onto the rows, A^T one onto the floats.
    """

    def __init__(self, m: int, groups: Sequence[BlockGroup]):
        self.m = int(m)
        self.groups = list(groups)
        self.sizes = [g.sectors * g.side ** 2 for g in self.groups]
        self.entries = [e for g in self.groups for e in g.entries]
        self.plans = [_scatter_plan(g) for g in self.groups]

    def peak_bytes(self) -> int:
        """Estimated peak bytes of solve_ipm, from the shapes only.

        H (8 m^2), one array for the whole loop, factored in place, is
        alive while each group's kernel S is formed, about 30 s n^4
        (basis_kernel), and its pairs added: S and products over the R rows
        an entry reaches, 24 max(s n^2, R)^2.  About 24 complex (K, s, n, n)
        stacks a group besides, the scatter plans (24 bytes a record) and a
        call's gather of them, and 32 KB of small objects (array headers,
        lists, the history).
        """
        kernel = 0
        for g, size in zip(self.groups, self.sizes):
            rows = max(np.count_nonzero(e.tensor.max(1) >= 0) for e in g.entries)
            kernel = max(kernel, 30 * g.sectors * g.side ** 4,
                         24 * max(size, rows) ** 2)
        stacks = sum(g.copies * size for g, size in zip(self.groups, self.sizes))
        plans = sum(len(rows) for rows, _, _ in self.plans)
        return (8 * self.m ** 2 + kernel + 24 * 16 * stacks + 40 * plans
                + (32 << 10))

    def apply_A(self, stacks: Sequence[np.ndarray]) -> np.ndarray:
        y = np.zeros(self.m)
        for (rows, floats, weights), st in zip(self.plans, stacks):
            # the copies summed, as floats; a real stack's sum is cast
            f = np.ascontiguousarray(st.sum(axis=0), dtype=complex).view(float)
            y += np.bincount(rows, weights * f.ravel().take(floats),
                             minlength=self.m)
        return y

    def apply_AT(self, y: np.ndarray) -> List[np.ndarray]:
        """Per group, the (s, n, n) sector blocks that every copy gets.

        They are exactly Hermitian: a coordinate's two floats receive the
        same products, negated on the imaginary lower one, in the same order.
        """
        out = []
        for g, (rows, floats, weights) in zip(self.groups, self.plans):
            f = np.bincount(floats, weights * y.take(rows),
                            minlength=2 * g.sectors * g.side ** 2)
            out.append(f.view(complex).reshape(g.sectors, g.side, g.side))
        return out

    def schur(self, scalings: Sequence[np.ndarray],
              out: np.ndarray) -> np.ndarray:
        """H[i, j] = sum_blocks Re Tr(A_i W A_j W) for the group stacks of W.

        H is assembled into out, an (m, m) array that is zeroed first, and
        returned: solve_ipm hands in the same array every iteration.
        """
        out.fill(0.0)
        for stack, g in zip(scalings, self.groups):
            S = _block_diagonal(basis_kernel(stack))
            _add_pairs(out, S, g.entries)
            del S  # a kernel can be as large as H: free it before the next
        return out


def _add_pairs(H: np.ndarray, S: np.ndarray, entries: Sequence[ConstraintEntry]):
    """H[rows_i, rows_j] += R_i S R_j^T over the pairs of one block group.

    A padded one-unit entry paired with itself adds scale^2 S[t, t] on the
    rows it reaches only (Tr_out reaches 1/d_out of them), never the mostly
    zero block over all its rows.
    """
    for i, ei in enumerate(entries):
        if ei.padded and ei.tensor.shape[1] == 1:
            reached = np.flatnonzero(ei.tensor[:, 0] >= 0)
            t, r = ei.tensor[reached], ei.row_start + reached[:, None]
            block = S[t, t.T]
            block *= ei.scale ** 2
            H[r, r.T] += block
            others = entries[i + 1:]
        else:
            others = entries[i:]
        if not others:
            continue
        left = ei.left(S)
        for ej in others:
            hij = ej.left(left.T).T
            H[ei.rows, ej.rows] += hij
            if ej is not ei:
                H[ej.rows, ei.rows] += hij.T


# iterate it of a solve, its scaled residuals feas_p and feas_d, and the step
# (centering sigma, lengths alpha) to it
IpmStep = namedtuple("IpmStep", "it pobj dobj rel_gap feas_p feas_d mu sigma "
                                "alpha_p alpha_d")


@dataclass
class IpmResult:
    """The optimum: X one (K, s, n, n) stack per group, as C was, and y."""

    X: List[np.ndarray]
    y: np.ndarray
    iterations: int
    status: str
    pobj: float
    dobj: float
    gap: float
    rel_gap: float
    feas_primal: float
    feas_dual: float
    history: tuple  # one IpmStep per iteration, in order


def _lapack(call, stack: np.ndarray, ids, it: int, what: str):
    """call(stack), batched; a LinAlgError stops the solve: NumericalFailure.

    It names the first block that fails on its own, ids numbering those of
    the stack or of each half [X; Z], or block None if none does.
    """
    try:
        return call(stack)
    except np.linalg.LinAlgError as exc:
        failure, where, block = exc, ": %s" % exc, None
    flat = stack.reshape((-1,) + stack.shape[-2:])
    names = ["primal block", "dual block"] if len(flat) > len(ids) else ["block"]
    for i, M in enumerate(flat):
        try:
            call(M)
        except np.linalg.LinAlgError:
            block = int(ids[i % len(ids)])
            where = " for %s %d" % (names[i // len(ids)], block)
            break
    raise NumericalFailure(what + where,
                           {"iteration": it, "block": block}) from failure


def _chol_pair(XZ: np.ndarray, ids, it: int):
    """Cholesky factors L of a stacked [X; Z] and their inverses L^-1.

    A block that is not positive definite stops the solve (_lapack).  On
    side 1, L = sqrt(x) and L^-1 = 1 / L when every entry is positive; a
    zero, negative or NaN entry takes the LAPACK path, as any other side does.
    """
    if XZ.shape[-1] == 1 and (XZ.real > 0).all():
        L = np.sqrt(XZ.real).astype(XZ.dtype)
        return L, 1.0 / L
    L = _lapack(np.linalg.cholesky, XZ, ids, it, "Cholesky failed")
    return L, _lapack(np.linalg.inv, L, ids, it, "Cholesky inverse failed")


def _ct(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def _herm(M: np.ndarray) -> np.ndarray:
    return (M + _ct(M)) / 2.0


def _step_pair(Linv: np.ndarray, D: np.ndarray, ids, it: int):
    """Largest (alpha_p, alpha_d) keeping each half of [X; Z] + alpha D >= 0.

    Linv stacks the inverse factors L^-1: I + alpha L^-1 D L^-H >= 0, whose
    one triangle eigvalsh reads; ids numbers the blocks of each half, and
    an eigensolve that fails stops the solve (_lapack).  On side 1 that
    eigenvalue is d |l^-1|^2, multiplied in the matmuls' order so that it
    is eigvalsh's to the bit.  A half that D keeps >= 0 gets inf.
    """
    if D.shape[-1] == 1:
        lam = (Linv * D * Linv.conj()).real[..., 0, 0]
    else:
        lam = _lapack(np.linalg.eigvalsh, Linv @ D @ _ct(Linv), ids, it,
                      "step-length eigenvalues failed")[..., 0]
    k = len(lam) // 2
    return tuple(np.inf if low >= -1e-13 else -1.0 / low
                 for low in (float(lam[:k].min()), float(lam[k:].min())))


def _nt_scaling(Lx: np.ndarray, Lxinv: np.ndarray, Lz: np.ndarray, ids, it: int):
    """G = Lx V diag(s)^-1/2, G^-1 and s from Lz^H Lx = U diag(s) V^H; W = G G^H.

    On side 1, s = l_z l_x, G = l_x / sqrt(s) and G^-1 = sqrt(s) / l_x, so
    W = sqrt(x / z), the orthant's scaling.  An s that is not finite and
    positive raises, naming its block, and so does an SVD that fails.
    """
    side1 = Lx.shape[-1] == 1
    if side1:
        s = (Lz.conj() * Lx).real[..., 0]
    else:
        _, s, vh = _lapack(np.linalg.svd, _ct(Lz) @ Lx, ids, it,
                           "NT scaling SVD failed")
    broken = np.flatnonzero(~((s > 0) & (s < np.inf)).all(axis=-1))
    if broken.size:
        raise NumericalFailure("NT scaling broke down",
                               {"iteration": it, "block": int(ids[broken[0]])})
    if side1:
        r = np.sqrt(s)[..., None]
        return Lx / r, r * Lxinv, s
    return ((Lx @ _ct(vh)) / np.sqrt(s)[..., None, :],
            np.sqrt(s)[..., :, None] * (vh @ Lxinv), s)


def solve_ipm(cmap: BlockConstraintMap, C: Sequence[np.ndarray], b: np.ndarray,
              X0: Sequence[np.ndarray], y0: np.ndarray,
              opts: SolverOptions = SolverOptions()) -> IpmResult:
    """Run the predictor-corrector loop from the given strictly feasible pair.

    C and X0 hold one (K, s, n, n) stack per group of cmap, and so does
    the result's X; A^T y, one (s, n, n) stack, broadcasts over the K
    copies.
    """
    halves = [g.copies for g in cmap.groups]
    blocks = [g.copies * g.sectors for g in cmap.groups]
    nu = float(sum(k * g.side for k, g in zip(blocks, cmap.groups)))
    # blocks are numbered group by group, copy by copy, sector by sector
    group_ids = [range(first - k, first)
                 for k, first in zip(blocks, np.cumsum(blocks))]
    y = np.array(y0, dtype=float)
    XZ = [np.concatenate([x, c - a]) for x, c, a in
          zip(X0, C, cmap.apply_AT(y))]  # [X; Z] per group
    b_scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    c_scale = 1.0 + max(float(np.abs(c).max(initial=0.0)) for c in C)
    slow_steps = 0
    history = []
    H = np.empty((cmap.m, cmap.m))  # the Schur complement, every iteration

    for it in range(opts.max_iter + 1):
        X, Z = zip(*[(xz[:k], xz[k:]) for xz, k in zip(XZ, halves)])
        r_p = b - cmap.apply_A(X)
        R_d = [c - z - a for c, z, a in zip(C, Z, cmap.apply_AT(y))]
        pobj = float(sum(np.vdot(c, x).real for c, x in zip(C, X)))
        dobj = float(np.dot(b, y))
        gap = float(sum(np.vdot(x, z).real for x, z in zip(X, Z)))
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        feas_p = float(np.max(np.abs(r_p))) / b_scale if r_p.size else 0.0
        feas_d = max(float(np.max(np.abs(Rb))) for Rb in R_d) / c_scale
        mu = gap / nu
        if it:
            history.append(IpmStep(it, pobj, dobj, rel_gap, feas_p, feas_d, mu,
                                   sigma, ap, ad))
        feas_tol = opts.tol * FEAS_TOL_FACTOR
        if rel_gap <= opts.tol and feas_p <= feas_tol and feas_d <= feas_tol:
            return IpmResult(list(X), y, it, "optimal", pobj, dobj, gap,
                             rel_gap, feas_p, feas_d, tuple(history))
        if it == opts.max_iter:
            raise MaxIterations(
                "no convergence in %d iterations (relative gap %.3e)"
                % (opts.max_iter, rel_gap),
                {"iterations": it, "rel_gap": rel_gap, "gap": gap,
                 "pobj": pobj, "dobj": dobj})

        # Nesterov-Todd scaling, one stacked call per group; the inverse
        # factors also serve Z^-1 and every step length of the iteration
        Ls, Linvs = zip(*[_chol_pair(xz, ids, it)
                          for xz, ids in zip(XZ, group_ids)])
        Gs, Ginvs, svals = zip(*[
            _nt_scaling(lf[:k], li[:k], lf[k:], ids, it)
            for lf, li, k, ids in zip(Ls, Linvs, halves, group_ids)])
        Ws = [g @ _ct(g) for g in Gs]
        A_WRW = cmap.apply_A([w @ rd @ w for w, rd in zip(Ws, R_d)])

        # shift H's diagonal, check it finite once (so its factor is; each
        # solve checks only its right-hand side) and factor it in place: H.T
        # is the Fortran-ordered view LAPACK overwrites, through its lower
        # triangle (H is symmetric, and dpotrf's lower path is the faster)
        H = cmap.schur(Ws, H)
        H.flat[::cmap.m + 1] += 1e-14 * max(1.0, float(np.trace(H)) / cmap.m)
        if not np.isfinite(H).all():
            raise NumericalFailure("Schur complement not finite at iteration %d"
                                   % it, {"iteration": it})
        Hf, info = cho_factor(H.T, lower=1, clean=0, overwrite_a=1)
        if info:
            raise NumericalFailure("Schur complement not positive definite",
                                   {"iteration": it})

        def newton(rhs, Rc):
            """dy, and per group [dX; dZ], for rhs = r_p - A(Rc - W R_d W)."""
            if not np.isfinite(rhs).all():
                raise NumericalFailure("Newton right-hand side not finite at "
                                       "iteration %d" % it, {"iteration": it})
            dy = cho_solve(Hf, rhs, lower=1)[0]
            D = []
            for rc, w, rd, a in zip(Rc, Ws, R_d, cmap.apply_AT(dy)):
                dz = rd - a  # exactly Hermitian, as R_d and A^T dy are
                D.append(np.concatenate([_herm(rc - w @ dz @ w), dz]))
            return D, dy

        def step(D):
            pairs = zip(*[_step_pair(li, d, ids, it)
                          for li, d, ids in zip(Linvs, D, group_ids)])
            return [min(1.0, STEP_FRACTION * min(al)) for al in pairs]

        # predictor, Rc = -X: r_p - A(-X - W R_d W) = b + A(W R_d W)
        D_a, _ = newton(b + A_WRW, [-x for x in X])
        ap, ad = step(D_a)
        mu_aff = sum(np.vdot(xz[:k] + ap * d[:k], xz[k:] + ad * d[k:]).real
                     for xz, d, k in zip(XZ, D_a, halves)) / nu
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, MIN_SIGMA, 1.0))

        # corrector with Mehrotra second-order term in the scaled space
        Rc = []
        for x, li, g, ginv, s, d, k in zip(X, Linvs, Gs, Ginvs, svals, D_a,
                                           halves):
            cross = _herm((ginv @ d[:k] @ _ct(ginv)) @ (_ct(g) @ d[k:] @ g))
            cross = 2.0 * cross / (s[..., :, None] + s[..., None, :])
            Rc.append(sigma * mu * (_ct(li[k:]) @ li[k:]) - x
                      - g @ cross @ _ct(g))
        D, dy = newton(r_p - cmap.apply_A(Rc) + A_WRW, Rc)
        ap, ad = step(D)

        # X, Z and the directions stay exactly Hermitian: no projection
        for xz, d, k in zip(XZ, D, halves):
            d[:k] *= ap
            d[k:] *= ad
            xz += d
        y = y + ad * dy

        if min(ap, ad) < 1e-5:
            slow_steps += 1
            if slow_steps >= 3:
                raise NumericalFailure(
                    "step lengths collapsed (alpha_p=%.2e, alpha_d=%.2e)" % (ap, ad),
                    {"iteration": it, "rel_gap": rel_gap, "mu": mu})
        else:
            slow_steps = 0
