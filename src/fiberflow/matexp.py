"""Batched small-matrix exponentials for the holonomy integrator.

The generators are Hermitian: the path engine passes the potential V(x)
itself, in the fibre coordinates of the path's current point (the
transport enters the weight as a separate factor), and exp(-s W) has
operator norm exactly exp(-s * lambda_min(W)), which is what makes the
per-sample domination inequality an identity for the product scheme.
It passes a sub-chunk's matrices in one batch, W of shape (C, rows, d, d)
for the C steps' left points, with s of shape (C, 1), each step's size
broadcast over the rows; every row's result is the one a batch of that
row alone would give, bit for bit.  The closed forms work in place on a
few row vectors at a time, so such a batch holds little besides W and
the result.
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

Layout: the closed forms (ranks 2 and 3, the eigh fallback rows included)
return their (..., d, d) results entry-major, as `entry_major` allocates
them: the transposed view of a (d, d, ...) array, so each entry
[..., i, j] is one contiguous row over the batch and every operation on
an entry runs over contiguous memory.  Shapes, dtypes and indexing are
those of a C-order array, and no result depends on its input's layout.

`small_matmul` is the engine's batched product: for d <= 3, where numpy's
stacked `matmul` costs several times the arithmetic, it builds the
product a row at a time, d (2d - 1) operations on rows of d entries, into
an entry-major result; `@` above, the same split by rank that the
exponential makes.  Each entry is A_i0 C_0j + A_i1 C_1j + ..., summed in
that order, whatever the operands' layout, so a product of entry-major
factors has the bits of one of C-order factors.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["entry_major", "expm_neg_hermitian", "small_matmul"]

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
    if W.ndim == 2:  # one matrix, as a batch of one: the closed forms work in place on arrays
        E, lam = expm_neg_hermitian(W[None], s)
        return E[0], lam[0]
    d = W.shape[-1]
    s = np.asarray(s, dtype=float)
    if d == 1:
        return np.exp(-s[..., None, None] * W.real) * np.ones_like(W), W[..., 0, 0].real
    if d == 2:
        return _expm2(W, s)
    if d == 3:
        return _expm3(W, s)
    return _expm_eigh(W, s)


def entry_major(batch, d, dtype):
    """An uninitialised (*batch, d, d) array laid out entry-major: the
    transposed view of a (d, d, *batch) array, so each entry [..., i, j]
    is one contiguous row over the batch."""
    out = np.empty((d, d) + tuple(batch), dtype=dtype)
    return out.transpose(*range(2, out.ndim), 0, 1)


def small_matmul(A, C):
    """A @ C for batches of (..., d, d) matrices.  For d <= 3 the product
    is entry-major (entry_major) and built a row at a time: row i is
    A[..., i, 0] C[..., 0, :] + A[..., i, 1] C[..., 1, :] + ..., its terms
    added in order of k, so each entry is the same sum of the same products
    as an entry-by-entry loop takes."""
    d = A.shape[-1]
    if d > 3:
        return A @ C
    shape = np.broadcast_shapes(A.shape, C.shape)
    out = entry_major(shape[:-2], d, np.result_type(A, C))
    for i in range(d):
        row = out[..., i, :]
        np.multiply(A[..., i, 0, None], C[..., 0, :], out=row)
        for k in range(1, d):
            row += A[..., i, k, None] * C[..., k, :]
    return out


def _expm_eigh(W, s):
    lam, U = np.linalg.eigh(W)
    e = np.exp(-s[..., None] * lam)
    return small_matmul(U * e[..., None, :], U.conj().swapaxes(-1, -2)), lam[..., 0]


def _expm2(W, s):
    # split W = mu*I + D with D traceless Hermitian, D^2 = rho^2 * I:
    # exp(-sW) = e^{-s mu} (cosh(s rho) I - sinh(s rho)/rho * D), and the
    # eigenvalues of W are mu -+ rho.  In place, as _eig3
    a = W[..., 0, 0].real
    c = W[..., 1, 1].real
    b = W[..., 0, 1]
    mu = a + c
    mu *= 0.5
    rho = a - c
    np.square(rho, out=rho)
    rho *= 0.25
    t = np.abs(b)
    np.square(t, out=t)
    rho += t
    np.sqrt(rho, out=rho)
    sr = s * rho
    ch = np.cosh(sr)
    # sinh(x)/x, with its series below 1e-6
    small = sr < 1e-6
    np.maximum(sr, 1e-300, out=t)
    f = np.sinh(t)
    f /= t
    f[small] = 1.0 + sr[small] ** 2 / 6.0
    ns = -s
    np.multiply(ns, f, out=f)
    out = entry_major(np.broadcast(W[..., 0, 0], s).shape, 2, np.result_type(W, float))
    for i, w in ((0, a), (1, c)):
        np.subtract(w, mu, out=t)
        t *= f
        np.add(ch, t, out=out[..., i, i])
    np.multiply(f, b, out=out[..., 0, 1])
    np.multiply(f, np.conj(b), out=out[..., 1, 0])
    np.multiply(ns, mu, out=t)
    np.exp(t, out=t)
    np.multiply(t[..., None, None], out, out=out)
    return out, np.subtract(mu, rho, out=mu)


def _abs2(w):
    """|w|^2 as re^2 + im^2, the imaginary part only for complex w."""
    out = np.square(w.real)
    if np.iscomplexobj(w):
        out += np.square(w.imag)
    return out


def _eig3(W):
    """(l1, l2 - l1, l3 - l1, ok, moduli) for Hermitian 3x3 W, l1 <= l2 <= l3,
    moduli the squared moduli |W01|^2, |W02|^2, |W12|^2, by
    the trigonometric form: with q = tr W / 3, p^2 = tr (W - q)^2 / 6 and
    r = det((W - q) / p) / 2, the eigenvalues are q + 2p cos(phi + 2k pi/3),
    phi = acos(r) / 3.  The gaps come from sines of phi, not as differences
    of eigenvalues.  ok is False where 1 - |r| < _R_GUARD, or r is not
    finite; a multiple of I has p = 0 and gives l1 = q, zero gaps, ok.
    The arithmetic runs in place, on a few row vectors at a time."""
    a, b, c = W[..., 0, 0].real, W[..., 1, 1].real, W[..., 2, 2].real
    x, y, z = W[..., 0, 1], W[..., 0, 2], W[..., 1, 2]
    # the diagonal of W - q from differences, exactly 0 for a multiple of I
    da, db, dc = a - b, b - a, c - a
    da += a - c
    db += b - c
    dc += c - b
    da /= 3.0
    db /= 3.0
    dc /= 3.0
    xx, yy, zz = _abs2(x), _abs2(y), _abs2(z)
    p = da * da
    p += db * db
    p += dc * dc
    t = xx + yy
    t += zz
    t *= 2.0
    p += t
    p /= 6.0
    np.sqrt(p, out=p)
    inv = np.where(p > 0.0, p, 1.0)
    np.divide(1.0, inv, out=inv)
    da *= inv
    db *= inv
    dc *= inv
    inv2 = inv * inv
    inv *= inv2
    # det of the Hermitian (W - q) / p: 2 Re(x z conj(y)) is its one cyclic term
    xzy = x * z
    xzy *= np.conj(y)
    r = da * db
    r *= dc
    inv *= xzy.real
    inv *= 2.0
    r += inv
    np.multiply(da, zz, out=t)
    db *= yy
    t += db
    dc *= xx
    t += dc
    t *= inv2
    r -= t
    r *= 0.5
    del da, db, dc, inv, inv2, xzy
    ok = 1.0 - np.abs(r) >= _R_GUARD
    phi = np.clip(r, -1.0, 1.0, out=r)
    np.arccos(phi, out=phi)
    phi /= 3.0
    cs = np.cos(phi)
    sn = np.sin(phi, out=phi)
    # cos(phi + 2pi/3), and sqrt(3) sin(phi + pi/3) for l3 - l1
    np.multiply(sn, math.sqrt(3.0), out=t)
    l1 = cs + t
    l1 *= p
    np.subtract((a + b + c) / 3.0, l1, out=l1)
    cs *= 3.0
    cs += t
    cs *= p
    p *= 2.0 * math.sqrt(3.0)
    p *= sn
    return l1, p, cs, ok, (xx, yy, zz)


def _phi1(u):
    """(e^u - 1) / u, 1 at u = 0."""
    zero = u == 0.0
    out = np.expm1(u)
    out /= np.where(zero, 1.0, u)
    out[zero] = 1.0
    return out


def _dd2(u, v, phi1_u):
    """Second divided difference of exp on the nodes 0 >= u >= v, phi1_u
    being _phi1(u).  For |v| >= _SERIES_BELOW it is
    (e^u phi1(v - u) - phi1(u)) / v, a quotient by the widest gap whose terms
    are all <= 1; below, the series sum_n h_n(u, v) / (n + 2)!, h_n the
    complete symmetric polynomials.  Each rule runs on its own rows only."""
    small = np.abs(v) < _SERIES_BELOW
    if small.all():
        return _dd2_series(u, v)
    out = np.empty_like(v)
    out[small] = _dd2_series(u[small], v[small])
    big = ~small
    u, v = u[big], v[big]
    q = np.exp(u)
    q *= _phi1(v - u)
    q -= phi1_u[big]
    q /= v
    out[big] = q
    return out


def _dd2_series(u, v):
    h, un = np.ones_like(v), np.ones_like(v)  # h_0, u^0
    out = np.full_like(v, _SERIES_COEFFS[0])
    t = np.empty_like(v)
    for coef in _SERIES_COEFFS[1:]:
        un *= u
        h *= v
        h += un  # h_n(u, v) = v h_{n-1}(u, v) + u^n
        np.multiply(h, coef, out=t)
        out += t
    return out


def _expm3(W, s):
    l1, d2, d3, ok, moduli = _eig3(W)
    if not np.any(ok):  # no closed-form row: skip its work
        return _expm_eigh(W, s)
    ns = -s
    u = ns * d2
    v = np.multiply(ns, d3, out=d3)
    g1 = _phi1(u)
    g2 = _dd2(u, v, g1)
    g2 *= s * s
    g1 *= ns
    e = np.multiply(ns, l1, out=u)
    np.exp(e, out=e)
    del v, d3
    # I + g1 A + g2 A (A - d2), A = W - l1, entry by entry: A and the
    # product are Hermitian, and A's off-diagonal is W's.  The real diagonal
    # of out holds A's until the off-diagonal entries have read it.  Each
    # entry is built in place, the operands in the order of the formula
    out = entry_major(W.shape[:-2], 3, np.result_type(W, float))
    a = [out.real[..., i, i] for i in range(3)]
    for i in range(3):
        np.subtract(W[..., i, i].real, l1, out=a[i])
    x, y, z = W[..., 0, 1], W[..., 0, 2], W[..., 1, 2]

    def off_diagonal():
        # (A (A - d2))_ij = W_ij (a_i + a_j - d2) + W_ik W_kj, k the third index
        yield 0, 1, x, y * np.conj(z)
        yield 0, 2, y, x * z
        yield 1, 2, z, np.conj(x) * y

    for i, j, w, cross in off_diagonal():
        t = a[i] + a[j]
        t -= d2
        t = w * t
        t += cross
        np.multiply(g2, t, out=t)
        np.add(g1 * w, t, out=t)
        np.multiply(e, t, out=out[..., i, j])
        np.conj(out[..., i, j], out=out[..., j, i])
    # (A (A - d2))_ii = a_i (a_i - d2) + sum over k != i of |W_ik|^2
    xx, yy, zz = moduli
    for i, (m1, m2) in enumerate(((xx, yy), (xx, zz), (yy, zz))):
        t = a[i] - d2
        t *= a[i]
        t += m1 + m2
        t *= g2
        t += 1.0 + g1 * a[i]
        np.multiply(e, t, out=out[..., i, i])
    bad = ~ok
    if np.any(bad):
        out[bad], l1[bad] = _expm_eigh(W[bad], np.broadcast_to(s, bad.shape)[bad])
    return out, l1
