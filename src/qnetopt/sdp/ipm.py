"""Feasible-start primal-dual interior-point core for block-diagonal SDPs.

Solves   min <C, X>  s.t.  A(X) = b,  X >= 0 (block diagonal, complex Hermitian)
and its dual simultaneously, with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  The caller supplies strictly feasible primal and
dual starting points; with those, every iterate stays (numerically) feasible,
so primal and dual objectives bracket the optimum and the duality gap is an
honest error bound.

Constraints are supplied as a BlockConstraintMap: a list of dense Hermitian
coefficient tensors, one per (row-group, variable-block) pair.  Row i of A(X)
is Re<A_i, X>, taken as one real product over the interleaved (re, im) view
of the complex stacks.  Tensors shared between several blocks (identical
ndarray objects) are exploited when assembling the Schur complement, which
is what makes many-outcome testers affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from ..errors import MaxIterations, NumericalFailure


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the interior-point loop."""

    tol: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98
    min_sigma: float = 1e-10
    feas_tol_factor: float = 100.0
    dimension_cap: int = 4096


@dataclass
class ConstraintEntry:
    """Coefficient tensor of one row group acting on one variable block."""

    row_start: int
    row_stop: int
    block: int
    tensor: np.ndarray  # (rows, n, n) complex; shared ndarray => shared structure

    @property
    def rows(self) -> slice:
        return slice(self.row_start, self.row_stop)


class BlockConstraintMap:
    """The linear map A and its adjoint, with a structured Schur assembler."""

    def __init__(self, m: int, block_dims: Sequence[int],
                 entries: Sequence[ConstraintEntry]):
        self.m = int(m)
        self.block_dims = tuple(int(n) for n in block_dims)
        self.entries = list(entries)
        for e in self.entries:
            n = self.block_dims[e.block]
            r = e.row_stop - e.row_start
            if e.tensor.shape != (r, n, n) or e.tensor.dtype != complex:
                raise ValueError("entry tensor %s%r vs complex (%d, %d, %d)"
                                 % (e.tensor.dtype, e.tensor.shape, r, n, n))
        # group entries that share (rows, tensor object): their row values add
        shared = {}
        for e in self.entries:
            shared.setdefault((e.row_start, e.row_stop, id(e.tensor)), []).append(e)
        self._shared_groups = list(shared.values())
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
        for group in self._shared_groups:
            e0 = group[0]
            acc = np.ascontiguousarray(blocks[e0.block], dtype=complex)
            for e in group[1:]:
                acc = acc + blocks[e.block]
            y[e0.rows] += _real_rows(e0.tensor) @ acc.reshape(-1).view(float)
        return y

    def apply_AT(self, y: np.ndarray) -> List[np.ndarray]:
        out = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        for group in self._shared_groups:
            e0 = group[0]
            mat = (y[e0.rows] @ _real_rows(e0.tensor)).view(complex)
            mat = mat.reshape(out[e0.block].shape)
            for e in group:
                out[e.block] += mat
        return out

    def schur(self, scalings: Sequence[np.ndarray]) -> np.ndarray:
        """H[i, j] = sum_blocks Re Tr(A_i W A_j W) for the NT scaling matrices W."""
        H = np.zeros((self.m, self.m))
        for block_ids in self._sig_groups:
            entry_list = self._by_block[block_ids[0]]
            # one sandwich per entry, accumulated over the blocks of the group
            sandwiches = []
            for e in entry_list:
                acc = None
                for b in block_ids:
                    W = scalings[b]
                    s = W @ e.tensor @ W  # batched over the row index
                    acc = s if acc is None else acc + s
                sandwiches.append(_real_rows(acc))
            for i, ei in enumerate(entry_list):
                ti = _real_rows(ei.tensor)
                for j in range(i, len(entry_list)):
                    ej = entry_list[j]
                    hij = ti @ sandwiches[j].T
                    H[ei.rows, ej.rows] += hij
                    if j != i:
                        H[ej.rows, ei.rows] += hij.T
        return (H + H.T) / 2.0


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """(r, n, n) complex -> (r, 2 n^2) real; row dot products give Re<A, B>."""
    return stack.reshape(stack.shape[0], -1).view(float)


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
        try:
            Hf = cho_factor(H + 1e-14 * max(1.0, float(np.trace(H)) / cmap.m)
                            * np.eye(cmap.m))
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
