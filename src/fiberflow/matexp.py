"""Batched small-matrix exponentials for the holonomy integrator.

The generators are Hermitian (potentials conjugated by unitary transport),
so exp(-s W) is computed by eigendecomposition: exact up to the eigh
tolerance, and the resulting factor has operator norm exactly
exp(-s * lambda_min(W)), which is what makes the per-sample domination
inequality an identity for the product scheme.  Ranks 1 and 2 use closed
forms to keep the per-step cost off the LAPACK path.

`expm_neg_hermitian` returns lambda_min(W) next to the exponential, taken
from the same eigen-data.  W = T^* V T, with T the unitary transport, has
the spectrum of the potential V, so this is V's pointwise floor (exact up
to rounding), and the path engine uses it instead of solving for V's
spectrum a second time.

`small_matmul` is the engine's batched product: entry by entry for d <= 3,
where numpy's stacked complex `matmul` costs several times the arithmetic,
and `@` above, the same split by rank that the exponential makes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expm_neg_hermitian", "small_matmul"]


def expm_neg_hermitian(W, s):
    """(exp(-s * W), lambda_min(W)) for a batch of Hermitian matrices W,
    shape (..., d, d); s is a scalar or batch of nonnegative step sizes.
    The smallest eigenvalue has W's batch shape."""
    W = np.asarray(W)
    d = W.shape[-1]
    s = np.asarray(s, dtype=float)
    if d == 1:
        return np.exp(-s[..., None, None] * W.real) * np.ones_like(W), W[..., 0, 0].real
    if d == 2:
        return _expm2(W, s)
    lam, U = np.linalg.eigh(W)
    e = np.exp(-s[..., None] * lam)
    return small_matmul(U * e[..., None, :], U.conj().swapaxes(-1, -2)), lam[..., 0]


def small_matmul(A, C):
    """A @ C for batches of (..., d, d) matrices, entry by entry for d <= 3."""
    d = A.shape[-1]
    if d > 3:
        return A @ C
    out = np.empty(np.broadcast_shapes(A.shape, C.shape), dtype=np.result_type(A, C))
    for i in range(d):
        for j in range(d):
            acc = A[..., i, 0] * C[..., 0, j]
            for k in range(1, d):
                acc = acc + A[..., i, k] * C[..., k, j]
            out[..., i, j] = acc
    return out


def _expm2(W, s):
    # split W = mu*I + D with D traceless Hermitian, D^2 = rho^2 * I:
    # exp(-sW) = e^{-s mu} (cosh(s rho) I - sinh(s rho)/rho * D), and the
    # eigenvalues of W are mu -+ rho
    a = W[..., 0, 0].real
    c = W[..., 1, 1].real
    b = W[..., 0, 1]
    mu = 0.5 * (a + c)
    rho = np.sqrt(0.25 * (a - c) ** 2 + np.abs(b) ** 2)
    sr = s * rho
    ch = np.cosh(sr)
    # sinh(x)/x, stable at 0
    shr = np.where(sr < 1e-6, 1.0 + sr**2 / 6.0, np.sinh(np.maximum(sr, 1e-300)) / np.maximum(sr, 1e-300))
    out = np.empty(np.broadcast(W[..., 0, 0], s).shape + (2, 2), dtype=complex)
    f = -s * shr
    out[..., 0, 0] = ch + f * (a - mu)
    out[..., 1, 1] = ch + f * (c - mu)
    out[..., 0, 1] = f * b
    out[..., 1, 0] = f * np.conj(b)
    return np.exp(-s * mu)[..., None, None] * out, mu - rho
