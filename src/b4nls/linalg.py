"""Matrix-free iterative kernels shared by the solvers.

Conjugate gradients for Hermitian positive (semi)definite operators on
complex coefficient vectors, and a Lanczos tridiagonalization with full
reorthogonalization for extreme eigenvalues of small spectral operators.
"""

from __future__ import annotations

import numpy as np


class IterationError(RuntimeError):
    """An inner iterative solve failed to reach its tolerance."""


def cg_hermitian(
    apply_op,
    b: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Solve A x = b for Hermitian positive definite A, matrix-free.

    Returns (x, iterations, relative_residual). The relative residual is
    the recursive estimate sqrt(r.r) / ||b|| that CG carries along, not a
    fresh ||b - A x||: a true residual would cost one more apply, so a
    caller that gates on one computes it itself. b = 0 returns x = 0
    immediately.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    it = 0
    while it < max_iter:
        if np.sqrt(rs) <= tol * bnorm:
            break
        ap = apply_op(p)
        denom = np.real(np.vdot(p, ap))
        if denom <= 0.0:
            raise IterationError("operator lost positive definiteness in CG")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, it, float(np.sqrt(rs) / bnorm)


def lanczos_extreme(apply_op, dim: int):
    """Extreme eigenvalues of a Hermitian operator on C^dim.

    Lanczos with full reorthogonalization from a seeded random start;
    iterates until the residual bounds of both extreme Ritz values fall
    below 1e-8 (absolute, scaled by the largest Ritz value) or the Krylov
    space is exhausted, which at these problem sizes amounts to an exact
    tridiagonalization.

    Returns (min_eig, max_eig, iterations).
    """
    if dim < 1:
        raise ValueError("empty space")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    Q = np.zeros((dim, dim), dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    Q[:, 0] = v
    for m in range(dim):
        w = apply_op(Q[:, m])
        a = float(np.real(np.vdot(Q[:, m], w)))
        alphas.append(a)
        w = w - a * Q[:, m]
        if m > 0:
            w = w - betas[-1] * Q[:, m - 1]
        # full reorthogonalization, twice for safety
        for _ in range(2):
            w = w - Q[:, : m + 1] @ (Q[:, : m + 1].conj().T @ w)
        bnorm = float(np.linalg.norm(w))
        betas.append(bnorm)
        T = _tridiag(alphas, betas[:m])
        evals, evecs = np.linalg.eigh(T)
        scale = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        res_lo = bnorm * abs(evecs[-1, 0])
        res_hi = bnorm * abs(evecs[-1, -1])
        if m + 1 == dim or bnorm < 1e-14 * scale:
            return float(evals[0]), float(evals[-1]), m + 1
        if m >= 1 and max(res_lo, res_hi) <= 1e-8 * scale:
            return float(evals[0]), float(evals[-1]), m + 1
        Q[:, m + 1] = w / bnorm


def _tridiag(alphas, betas) -> np.ndarray:
    m = len(alphas)
    T = np.diag(np.asarray(alphas, dtype=float))
    if m > 1:
        off = np.asarray(betas, dtype=float)
        T += np.diag(off, 1) + np.diag(off, -1)
    return T
