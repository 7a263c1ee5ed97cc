"""Batched small-matrix exponentials for the holonomy integrator.

The generators are Hermitian: the path engine passes the potential V(x)
itself, in the fibre coordinates of the path's current point (the
transport enters the weight as a separate factor), and exp(-s W) has
operator norm exactly exp(-s * lambda_min(W)), which is what makes the
per-sample domination inequality an identity for the product scheme.
Ranks 1 to 3 use closed forms, to keep the per-step cost off the LAPACK
path; rank 4 and up use eigendecomposition.  Real (symmetric) input gives
real output at every rank, complex input complex output.

Rank 3 takes its eigenvalues from the trigonometric form of O. K. Smith
(Comm. ACM 4 (1961) 168) and builds the exponential in Newton form on
them, e^{-s l1} [I + g1 (W - l1) + g2 (W - l1)(W - l2)], whose divided
differences g1, g2 are evaluated through expm1 and, when the whole
spectrum is narrow, a series (McCurdy, Ng & Parlett, Math. Comp. 43
(1984) 501), so no quotient is taken across a small gap and every
exponent is <= 0.  Where two eigenvalues nearly coincide the arccosine
loses half the digits, so rows with 1 - |r| < _R_GUARD (r the cosine of
three times Smith's angle) go through eigh instead; rows are independent,
so the rest of the batch is unaffected, and a batch with no closed-form
row goes to eigh whole.

`expm_neg_hermitian` returns lambda_min(W) next to the exponential, taken
from the same eigen-data: with W = V(x) this is V's pointwise floor, and
the path engine uses it instead of solving for V's spectrum a second
time.

`small_matmul` is the engine's batched product: entry by entry for d <= 3,
where numpy's stacked complex `matmul` costs several times the arithmetic,
and `@` above, the same split by rank that the exponential makes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm_neg_hermitian", "small_matmul"]

# rows with 1 - |r| below this go through eigh: there the two closest of
# the three eigenvalues lie within ~1.6% of the spread p of the spectrum
_R_GUARD = 1e-4
# |s (l3 - l1)| below which g2 is summed as a series, and the series'
# 1/(n+2)!: six terms leave a relative truncation error below 4e-16 there
_SERIES_BELOW = 1e-2
_SERIES_COEFFS = tuple(1.0 / math.factorial(n + 2) for n in range(6))


def expm_neg_hermitian(W, s):
    """(exp(-s * W), lambda_min(W)) for a batch of Hermitian matrices W,
    shape (..., d, d); s is a scalar or an array of nonnegative step sizes
    that broadcasts to W's batch shape.  The smallest eigenvalue has W's
    batch shape."""
    W = np.asarray(W)
    d = W.shape[-1]
    s = np.asarray(s, dtype=float)
    if d == 1:
        return np.exp(-s[..., None, None] * W.real) * np.ones_like(W), W[..., 0, 0].real
    if d == 2:
        return _expm2(W, s)
    if d == 3:
        return _expm3(W, s)
    return _expm_eigh(W, s)


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


def _expm_eigh(W, s):
    lam, U = np.linalg.eigh(W)
    e = np.exp(-s[..., None] * lam)
    return small_matmul(U * e[..., None, :], U.conj().swapaxes(-1, -2)), lam[..., 0]


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
    out = np.empty(np.broadcast(W[..., 0, 0], s).shape + (2, 2), dtype=np.result_type(W, float))
    f = -s * shr
    out[..., 0, 0] = ch + f * (a - mu)
    out[..., 1, 1] = ch + f * (c - mu)
    out[..., 0, 1] = f * b
    out[..., 1, 0] = f * np.conj(b)
    return np.exp(-s * mu)[..., None, None] * out, mu - rho


def _eig3(W):
    """(l1, l2 - l1, l3 - l1, ok, moduli) for Hermitian 3x3 W, l1 <= l2 <= l3,
    moduli the squared moduli |W01|^2, |W02|^2, |W12|^2, by
    the trigonometric form: with q = tr W / 3, p^2 = tr (W - q)^2 / 6 and
    r = det((W - q) / p) / 2, the eigenvalues are q + 2p cos(phi + 2k pi/3),
    phi = acos(r) / 3.  The gaps come from sines of phi, not as differences
    of eigenvalues.  ok is False where 1 - |r| < _R_GUARD, or r is not
    finite; a multiple of I has p = 0 and gives l1 = q, zero gaps, ok."""
    a, b, c = W[..., 0, 0].real, W[..., 1, 1].real, W[..., 2, 2].real
    x, y, z = W[..., 0, 1], W[..., 0, 2], W[..., 1, 2]
    q = (a + b + c) / 3.0
    # the diagonal of W - q from differences, exactly 0 for a multiple of I
    da = ((a - b) + (a - c)) / 3.0
    db = ((b - a) + (b - c)) / 3.0
    dc = ((c - a) + (c - b)) / 3.0
    xx, yy, zz = x.real**2 + x.imag**2, y.real**2 + y.imag**2, z.real**2 + z.imag**2
    p = np.sqrt((da * da + db * db + dc * dc + 2.0 * (xx + yy + zz)) / 6.0)
    inv = 1.0 / np.where(p > 0.0, p, 1.0)
    da, db, dc = da * inv, db * inv, dc * inv
    inv2 = inv * inv
    # det of the Hermitian (W - q) / p: 2 Re(x z conj(y)) is its one cyclic term
    xzy = (x * z * np.conj(y)).real * (inv2 * inv)
    r = 0.5 * (da * db * dc + 2.0 * xzy - (da * zz + db * yy + dc * xx) * inv2)
    ok = 1.0 - np.abs(r) >= _R_GUARD
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    cs, sn = np.cos(phi), np.sin(phi)
    # cos(phi + 2pi/3), and sqrt(3) sin(phi + pi/3) for l3 - l1
    l1 = q - p * (cs + math.sqrt(3.0) * sn)
    return l1, 2.0 * math.sqrt(3.0) * p * sn, p * (3.0 * cs + math.sqrt(3.0) * sn), ok, (xx, yy, zz)


def _phi1(u):
    """(e^u - 1) / u, 1 at u = 0."""
    zero = u == 0.0
    return np.where(zero, 1.0, np.expm1(u) / np.where(zero, 1.0, u))


def _dd2(u, v):
    """Second divided difference of exp on the nodes 0 >= u >= v.  For
    |v| >= _SERIES_BELOW it is (e^u phi1(v - u) - phi1(u)) / v, a quotient
    by the widest gap whose terms are all <= 1; below, the series
    sum_n h_n(u, v) / (n + 2)!, h_n the complete symmetric polynomials."""
    small = np.abs(v) < _SERIES_BELOW
    vs = np.where(small, -1.0, v)
    return np.where(small, _dd2_series(u, v), (np.exp(u) * _phi1(vs - u) - _phi1(u)) / vs)


def _dd2_series(u, v):
    h = un = np.ones_like(v)  # h_0, u^0
    out = _SERIES_COEFFS[0] * h
    for coef in _SERIES_COEFFS[1:]:
        un = un * u
        h = v * h + un  # h_n(u, v) = v h_{n-1}(u, v) + u^n
        out = out + coef * h
    return out


def _expm3(W, s):
    batch = W.shape[:-2]
    W = W.reshape(-1, 3, 3)
    s = np.broadcast_to(s, batch).reshape(-1)
    l1, d2, d3, ok, (xx, yy, zz) = _eig3(W)
    if not np.any(ok):  # no closed-form row: skip its work
        out, l1 = _expm_eigh(W, s)
        return out.reshape(batch + (3, 3)), l1.reshape(batch)
    u, v = -s * d2, -s * d3
    g1 = -s * _phi1(u)
    g2 = s * s * _dd2(u, v)
    # I + g1 A + g2 A (A - d2), A = W - l1, entry by entry: A and the
    # product are Hermitian, and A's off-diagonal is W's
    e = np.exp(-s * l1)
    a = [W[:, i, i].real - l1 for i in range(3)]
    x, y, z = W[:, 0, 1], W[:, 0, 2], W[:, 1, 2]
    out = np.empty(W.shape, dtype=np.result_type(W, float))
    # (A (A - d2))_ii = a_i (a_i - d2) + sum over k != i of |W_ik|^2
    for i, rest in enumerate((xx + yy, xx + zz, yy + zz)):
        out[:, i, i] = e * (1.0 + g1 * a[i] + g2 * (a[i] * (a[i] - d2) + rest))
    # (A (A - d2))_ij = W_ij (a_i + a_j - d2) + W_ik W_kj, k the third index
    for i, j, w, cross in ((0, 1, x, y * np.conj(z)), (0, 2, y, x * z), (1, 2, z, np.conj(x) * y)):
        out[:, i, j] = wij = e * (g1 * w + g2 * (w * (a[i] + a[j] - d2) + cross))
        out[:, j, i] = np.conj(wij)
    bad = ~ok
    if np.any(bad):
        out[bad], l1[bad] = _expm_eigh(W[bad], s[bad])
    return out.reshape(batch + (3, 3)), l1.reshape(batch)
