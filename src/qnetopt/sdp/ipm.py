"""Feasible-start primal-dual interior-point core for block-diagonal SDPs.

Solves   min <C, X>  s.t.  A(X) = b,  X >= 0 (block diagonal, complex Hermitian)
and its dual simultaneously, with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  The caller supplies strictly feasible primal and
dual starting points; with those, every iterate stays (numerically) feasible,
so primal and dual objectives bracket the optimum and the duality gap is an
honest error bound.

Constraints are supplied as a BlockConstraintMap in coordinates: x_a =
Re<B_a, X> in the orthonormal Hermitian basis B (basis_layout), and each
(row group, block) entry is a real coordinate map R, so its rows read R x.
The Schur complement then needs, per group of blocks with the same entries,
only S[a, c] = Re sum_k Tr(B_a W_k B_c W_k), which one GEMM and an index
gather give in closed form (basis_kernel); entry pairs add R_i S R_j^T.
This is the structure-exploiting assembly of Fujisawa, Kojima and Nakata
(Math. Program. 79, 1997), specialised to comb constraints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from ..errors import MaxIterations, NumericalFailure

_R2 = np.sqrt(0.5)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the interior-point loop."""

    tol: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98
    min_sigma: float = 1e-10
    feas_tol_factor: float = 100.0
    dimension_cap: int = 4096


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


def coords_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Re<B_a, h>: (..., n, n) -> (..., n^2); the Hermitian part's coordinates."""
    n = h.shape[-1]
    i, j, w, v = _float_positions(n)
    f = np.ascontiguousarray(h, dtype=complex).reshape(
        h.shape[:-2] + (n * n,)).view(float)
    return w * f[..., i] + v * f[..., j]


def hermitian_from_coords(coords: np.ndarray, n: int) -> np.ndarray:
    """sum_a coords[..., a] B_a, the transpose of coords_from_hermitian."""
    i, j, w, v = _float_positions(n)
    coords = np.asarray(coords, dtype=float)
    f = np.zeros(coords.shape[:-1] + (2 * n * n,))
    f[..., i] = w * coords
    f[..., j] += v * coords
    return f.view(complex).reshape(coords.shape[:-1] + (n, n))


def basis_kernel(stack: np.ndarray) -> np.ndarray:
    """S[a, c] = Re sum_k Tr(B_a L_k B_c L_k^H) for a (K, n, n) stack L.

    One GEMM gives G[(q, r), (p, s)] = sum_k L_k[q, r] conj(L_k[p, s]);
    transposed to T[(p, q), (r, s)] it turns each trace into
    vec(B_a)^T T vec(B_c).  Each B_a has at most two nonzero entries and
    T[(q, p), (s, r)] = conj T[(p, q), (r, s)], so S is a gather of the rows
    p <= q of T at the diagonal, upper and lower positions.
    """
    k, n, _ = stack.shape
    flat = stack.reshape(k, n * n)
    G = (flat.T @ flat.conj()).reshape(n, n, n, n)
    row, col, _ = basis_layout(n)
    h = (n * n + n) // 2  # coordinates: diagonal | symmetric | antisymmetric
    V = G[col[:h], :, row[:h], :].reshape(h, n * n)  # rows p <= q of T
    del G  # the gather copied all that S needs
    diag, up, lo = _flat_positions(n)
    Vd, Vu, Vl = V[:, diag], V[:, up], V[:, lo]
    plus, minus = Vu + Vl, Vl - Vu
    S = np.empty((n * n, n * n))
    S[:h, :n], S[h:, :n] = Vd.real, -Vd[n:].imag
    S[:h, n:h], S[:h, h:] = plus.real, minus.imag
    S[h:, n:h], S[h:, h:] = -plus[n:].imag, minus[n:].real
    S[n:, :n] *= np.sqrt(2.0)
    S[:n, n:] *= _R2
    return S


@dataclass
class ConstraintEntry:
    """Coordinate map R of one row group on one block: the rows read R x.

    R is scale times the tensor's map.  A float tensor is a (rows, n^2)
    matrix; an integer tensor (rows, k) lists the coordinates whose unit
    vectors sum to each row, with -1 padding short rows.  Blocks whose
    entries share ndarray objects share one Schur kernel.
    """

    row_start: int
    row_stop: int
    block: int
    tensor: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        t = self.tensor
        self.unit = t.dtype.kind in "iu"
        self.padded = self.unit and t.min(initial=0) < 0
        self.identity = self.unit and self.scale == 1.0 and \
            t.shape[1:] == (1,) and np.array_equal(t[:, 0], np.arange(len(t)))

    @property
    def rows(self) -> slice:
        return slice(self.row_start, self.row_stop)

    def left(self, M: np.ndarray) -> np.ndarray:
        """R @ M, for M with the block's coordinates along axis 0."""
        if self.identity:
            return M
        if not self.unit:
            return self.scale * (self.tensor @ M)
        if self.padded:  # index -1 reads an appended zero row
            M = np.concatenate([M, np.zeros((1,) + M.shape[1:])])
        t = self.tensor
        return self.scale * (M[t[:, 0]] if t.shape[1] == 1 else M[t].sum(axis=1))

    def adjoint(self, y: np.ndarray, size: int) -> np.ndarray:
        """R^T @ y, the block's size coordinates."""
        if self.identity:
            return y
        if not self.unit:
            return self.scale * (y @ self.tensor)
        weights = np.repeat(y, self.tensor.shape[1])
        return self.scale * np.bincount(self.tensor.ravel() + 1, weights,
                                        minlength=size + 1)[1:]


class BlockConstraintMap:
    """The linear map A and its adjoint, with a structured Schur assembler."""

    def __init__(self, m: int, block_dims: Sequence[int],
                 entries: Sequence[ConstraintEntry]):
        self.m = int(m)
        self.block_dims = tuple(int(n) for n in block_dims)
        self.entries = list(entries)
        for e in self.entries:
            if len(e.tensor) != e.row_stop - e.row_start:
                raise ValueError("entry map with %d rows for %d constraints"
                                 % (len(e.tensor), e.row_stop - e.row_start))
        # entries that share (rows, tensor object) act on the sum of their
        # blocks; each distinct block set needs one coordinate conversion
        shared = {}
        for e in self.entries:
            shared.setdefault((e.row_start, e.row_stop, id(e.tensor)), []).append(e)
        self._shared_groups = [(g[0], tuple(e.block for e in g))
                               for g in shared.values()]
        # group variable blocks by their full entry signature for the Schur pass
        by_block = {}
        for e in self.entries:
            by_block.setdefault(e.block, []).append(e)
        self._by_block = by_block
        sig_groups = {}
        for b, es in by_block.items():
            sig = tuple(sorted((e.row_start, e.row_stop, id(e.tensor)) for e in es))
            sig_groups.setdefault(sig, []).append(b)
        self._sig_groups = list(sig_groups.values())

    def apply_A(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        y = np.zeros(self.m)
        coords = {}
        for e0, block_set in self._shared_groups:
            if block_set not in coords:
                acc = np.asarray(blocks[block_set[0]])
                for b in block_set[1:]:
                    acc = acc + blocks[b]
                coords[block_set] = coords_from_hermitian(acc)
            y[e0.rows] += e0.left(coords[block_set])
        return y

    def apply_AT(self, y: np.ndarray) -> List[np.ndarray]:
        coords = {}
        for e0, block_set in self._shared_groups:
            c = e0.adjoint(y[e0.rows], self.block_dims[e0.block] ** 2)
            coords[block_set] = coords[block_set] + c if block_set in coords else c
        out = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        for block_set, c in coords.items():
            mat = hermitian_from_coords(c, self.block_dims[block_set[0]])
            for b in block_set:
                out[b] += mat
        return out

    def schur(self, scalings: Sequence[np.ndarray]) -> np.ndarray:
        """H[i, j] = sum_blocks Re Tr(A_i W A_j W) for the NT scaling matrices W."""
        H = np.zeros((self.m, self.m))
        for block_ids in self._sig_groups:
            entry_list = self._by_block[block_ids[0]]
            S = basis_kernel(np.stack([scalings[b] for b in block_ids]))
            for i, ei in enumerate(entry_list):
                left = ei.left(S)
                for ej in entry_list[i:]:
                    hij = ej.left(left.T).T  # R_i S R_j^T
                    H[ei.rows, ej.rows] += hij
                    if ej is not ei:
                        H[ej.rows, ei.rows] += hij.T
        return H


@dataclass
class IpmResult:
    X: List[np.ndarray]
    y: np.ndarray
    Z: List[np.ndarray]
    iterations: int
    status: str
    pobj: float
    dobj: float
    gap: float
    rel_gap: float
    feas_primal: float
    feas_dual: float


def _chol_jitter(M: np.ndarray, what: str):
    """Cholesky with escalating diagonal jitter; raises NumericalFailure."""
    n = M.shape[0]
    scale = max(1.0, float(np.trace(M).real) / max(n, 1))
    jitter = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(M + jitter * np.eye(n)) if jitter else \
                np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    raise NumericalFailure("Cholesky failed for %s" % what,
                           {"jitter": jitter, "dim": n})


def _herm(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2.0


def _max_step(L: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with  M + alpha*delta >= 0, where M = L L^H."""
    s = solve_triangular(L, delta, lower=True)
    s = solve_triangular(L, s.conj().T, lower=True)
    try:
        lam = float(np.linalg.eigvalsh(_herm(s))[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("step-length eigenvalues: %s" % exc, {}) from exc
    if lam >= -1e-13:
        return np.inf
    return -1.0 / lam


def solve_ipm(cmap: BlockConstraintMap, C: Sequence[np.ndarray], b: np.ndarray,
              X0: Sequence[np.ndarray], y0: np.ndarray,
              opts: SolverOptions = SolverOptions()) -> IpmResult:
    """Run the predictor-corrector loop from the given strictly feasible pair."""
    nu = float(sum(cmap.block_dims))
    X = [np.array(Xb, dtype=complex) for Xb in X0]
    y = np.array(y0, dtype=float)
    Z = [C[v] - ATy for v, ATy in enumerate(cmap.apply_AT(y))]
    b_scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    c_scale = 1.0 + max(float(np.max(np.abs(Cb))) if Cb.size else 0.0 for Cb in C)
    slow_steps = 0

    def gather(status, it, pobj, dobj, gap, fp, fd):
        return IpmResult(X, y, Z, it, status, pobj, dobj, gap,
                         gap / (1.0 + abs(pobj) + abs(dobj)), fp, fd)

    for it in range(opts.max_iter + 1):
        r_p = b - cmap.apply_A(X)
        ATy = cmap.apply_AT(y)
        R_d = [C[v] - Z[v] - ATy[v] for v in range(len(X))]
        pobj = float(sum(np.vdot(C[v], X[v]).real for v in range(len(X))))
        dobj = float(np.dot(b, y))
        gap = float(sum(np.vdot(X[v], Z[v]).real for v in range(len(X))))
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        feas_p = float(np.max(np.abs(r_p))) / b_scale if r_p.size else 0.0
        feas_d = max(float(np.max(np.abs(Rb))) for Rb in R_d) / c_scale
        mu = gap / nu
        feas_tol = opts.tol * opts.feas_tol_factor
        if rel_gap <= opts.tol and feas_p <= feas_tol and feas_d <= feas_tol:
            return gather("optimal", it, pobj, dobj, gap, feas_p, feas_d)
        if it == opts.max_iter:
            raise MaxIterations(
                "no convergence in %d iterations (relative gap %.3e)"
                % (opts.max_iter, rel_gap),
                {"iterations": it, "rel_gap": rel_gap, "gap": gap,
                 "pobj": pobj, "dobj": dobj})

        # Nesterov-Todd scaling per block
        Lx, Lz, Gs, Ginvs, Ws, svals = [], [], [], [], [], []
        for v in range(len(X)):
            lx = _chol_jitter(X[v], "primal block %d" % v)
            lz = _chol_jitter(Z[v], "dual block %d" % v)
            try:
                u, s, vh = np.linalg.svd(lz.conj().T @ lx)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure("NT scaling SVD: %s" % exc,
                                       {"iteration": it, "block": v}) from exc
            if s.min() <= 0:
                raise NumericalFailure("NT scaling broke down", {"block": v})
            g = (lx @ vh.conj().T) * (1.0 / np.sqrt(s))[None, :]
            lxinv = solve_triangular(lx, np.eye(lx.shape[0]), lower=True)
            ginv = (np.sqrt(s)[:, None]) * (vh @ lxinv)
            Lx.append(lx)
            Lz.append(lz)
            Gs.append(g)
            Ginvs.append(ginv)
            Ws.append(g @ g.conj().T)
            svals.append(s)

        H = cmap.schur(Ws)
        # factor a diagonally shifted copy in place (its transpose is the
        # Fortran-ordered view LAPACK overwrites); refinement uses H itself
        F = H.copy()
        F.flat[::cmap.m + 1] += 1e-14 * max(1.0, float(np.trace(H)) / cmap.m)
        try:
            Hf = cho_factor(F.T, overwrite_a=True)
        except np.linalg.LinAlgError:
            raise NumericalFailure("Schur complement not positive definite",
                                   {"iteration": it})

        def newton(Rc):
            E = [Rc[v] - Ws[v] @ R_d[v] @ Ws[v] for v in range(len(X))]
            rhs = r_p - cmap.apply_A(E)
            dy = cho_solve(Hf, rhs)
            resid = rhs - H @ dy
            dy = dy + cho_solve(Hf, resid)
            ATdy = cmap.apply_AT(dy)
            dZ = [_herm(R_d[v] - ATdy[v]) for v in range(len(X))]
            dX = [_herm(Rc[v] - Ws[v] @ dZ[v] @ Ws[v]) for v in range(len(X))]
            return dX, dy, dZ

        # predictor
        Rc_aff = [-X[v] for v in range(len(X))]
        dX_a, dy_a, dZ_a = newton(Rc_aff)
        ap = min([opts.step_fraction * _max_step(Lx[v], dX_a[v])
                  for v in range(len(X))] + [1.0])
        ad = min([opts.step_fraction * _max_step(Lz[v], dZ_a[v])
                  for v in range(len(X))] + [1.0])
        mu_aff = sum(np.vdot(X[v] + ap * dX_a[v], Z[v] + ad * dZ_a[v]).real
                     for v in range(len(X))) / nu
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, opts.min_sigma, 1.0))

        # corrector with Mehrotra second-order term in the scaled space
        Rc = []
        for v in range(len(X)):
            lz = Lz[v]
            lzinv = solve_triangular(lz, np.eye(lz.shape[0]), lower=True)
            Zinv = lzinv.conj().T @ lzinv
            dxt = Ginvs[v] @ dX_a[v] @ Ginvs[v].conj().T
            dzt = Gs[v].conj().T @ dZ_a[v] @ Gs[v]
            cross = _herm(dxt @ dzt)
            s = svals[v]
            cross = 2.0 * cross / (s[:, None] + s[None, :])
            Rc.append(sigma * mu * Zinv - X[v] - Gs[v] @ cross @ Gs[v].conj().T)
        dX, dy, dZ = newton(Rc)
        ap = min([opts.step_fraction * _max_step(Lx[v], dX[v])
                  for v in range(len(X))] + [1.0])
        ad = min([opts.step_fraction * _max_step(Lz[v], dZ[v])
                  for v in range(len(X))] + [1.0])

        X = [_herm(X[v] + ap * dX[v]) for v in range(len(X))]
        y = y + ad * dy
        Z = [_herm(Z[v] + ad * dZ[v]) for v in range(len(X))]

        if min(ap, ad) < 1e-5:
            slow_steps += 1
            if slow_steps >= 3:
                raise NumericalFailure(
                    "step lengths collapsed (alpha_p=%.2e, alpha_d=%.2e)" % (ap, ad),
                    {"iteration": it, "rel_gap": rel_gap, "mu": mu})
        else:
            slow_steps = 0

    raise NumericalFailure("interior-point loop exited abnormally", {})
