"""Catalog of model Riemannian manifolds.

Five homogeneous models (Euclidean space, circle, flat torus, round
2-sphere, hyperbolic plane of curvature -1) plus open subdomains of them.
Each model supplies exactly what the samplers and analyzers need: an
orthonormal-frame exponential map (`exp`, the endpoint only) and `walk`,
which chains it over many steps (in place on Euclidean space), geodesic
distance, volume sampling, quadrature rules, and the closed-form heat
kernel where one exists.  `model.base` is
the complete model a model lies in (itself, or an open subdomain's parent)
and `model.complete` tells the two apart, so callers never unwrap a
subdomain by type.

On the sphere, exp, walk and transport_matrix share one kernel that walks
C steps at once in component-major form: each coordinate of the points,
the steps and the tangent frames is a contiguous row over the points, and
a step is a few dozen operations on those rows, with the bits of the
(..., 3)-vector forms (np.cross, np.linalg.norm, einsum, argmin).
transport_matrix adds each step's parallel transport, the rotation its
tangent bundle uses, and the frame at the last point.

Convention used everywhere in this package: kernels and semigroups belong
to the generator Delta/2, so a Brownian increment over time h has variance
h in each orthonormal frame direction and p_t is the transition density of
that walk's continuum limit.

Point representation per model:
  euclidean(m)   chart coords, shape (..., m)
  circle(r)      angle theta in [0, 2*pi), shape (..., 1)
  torus(l_1..l_m) chart coords mod l_i, shape (..., m)
  sphere2(r)     ambient unit*r vector, shape (..., 3)
  hyperbolic     Poincare disk coords, |z| < 1, shape (..., 2)

Tangent vectors are always given as coefficients in the model's
orthonormal frame at the base point (shape (..., dim)).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ManifoldModel",
    "Euclidean",
    "Circle",
    "FlatTorus",
    "Sphere2",
    "HyperbolicPlane",
    "OpenSubdomain",
    "ball",
    "NoClosedFormError",
]


class NoClosedFormError(Exception):
    """Raised when a closed-form heat kernel is requested but unavailable."""


def _as_points(x, coord_dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != coord_dim:
        raise ValueError(f"point has coordinate dimension {x.shape[-1]}, expected {coord_dim}")
    return x


def _cross(a, b):
    """np.cross of (..., 3) arrays: the same operations, minus its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _norm3(v):
    """np.linalg.norm(v, axis=-1) of (..., 3) arrays: its sum of squares, in its order."""
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)


def _gauge_frame(n, E):
    """Sphere2.frame in component-major form, with its operations.  n, of
    shape (5, N), holds N unit normals, one coordinate per row, in rows 0-2
    (rows 3-4 are set here to rows 0-1, so that rows i+1 and i+2 of a cross
    product's factors are the slices [1:4] and [2:5]); E, of shape
    (2, 5, N), receives e1 in E[0] (doubled the same way) and e2 in
    E[1, :3].  The reference axis is the coordinate axis least aligned with
    n, the first of equal ones as argmin picks it, chosen by <= comparisons;
    then e1 = axis x n, normalized, and e2 = n x e1."""
    n[3:] = n[:2]
    m = np.abs(n[:3])
    lo01, lo02, lo12 = m[0] <= m[1], m[0] <= m[2], m[1] <= m[2]
    a = np.empty(n.shape, dtype=bool)  # the axis, one-hot, doubled as n
    np.logical_and(lo01, lo02, out=a[0])
    np.greater(lo12, lo01, out=a[1])
    np.logical_or(lo02, lo12, out=a[2])
    np.logical_not(a[2], out=a[2])
    a[3:] = a[:2]
    e1, e2 = E[0], E[1, :3]
    np.multiply(a[1:4], n[2:5], out=e1[:3])
    e1[:3] -= a[2:5] * n[1:4]
    sq = e1[:3] * e1[:3]
    norm = sq[0] + sq[1]
    norm += sq[2]
    np.sqrt(norm, out=norm)
    e1[:3] /= norm
    e1[3:] = e1[:2]
    np.multiply(n[1:4], e1[2:5], out=e2)
    e2 -= n[2:5] * e1[1:4]


def _dots(E, u, W):
    """(u . e1, u . e2) for a component-major frame E as _gauge_frame
    fills it, summed as einsum sums (from +0); W is (2, 3, ...) scratch."""
    np.multiply(E[:, :3], u, out=W)
    d = W[:, 0] + W[:, 1]
    d += W[:, 2]
    d += 0.0
    return d


class ManifoldModel:
    """Base class; concrete models override the geometry primitives."""

    kind: str = "abstract"
    dim: int = 0
    coord_dim: int = 0
    complete: bool = True

    @property
    def base(self):
        """The complete model this one lies in: itself, or an open
        subdomain's parent."""
        return self

    # -- primitives ----------------------------------------------------

    def exp(self, x, xi):
        """Geodesic exponential: endpoint of the geodesic from x with
        initial frame coefficients xi (exact on all catalog models)."""
        raise NotImplementedError

    def walk(self, x, steps):
        """The points of a walk from x, one geodesic step per leading index
        of steps: point j is exp of point j-1 by steps[j], shape
        steps.shape[:-1] + (coord_dim,).  A model may write the points over
        steps."""
        pts = np.empty(np.shape(steps)[:-1] + (self.coord_dim,))
        for j, xi in enumerate(steps):
            x = pts[j] = self.exp(x, xi)
        return pts

    def distance(self, x, y):
        raise NotImplementedError

    def origin(self):
        raise NotImplementedError

    def heat_kernel(self, t, x, y):
        raise NotImplementedError

    def sup_heat_kernel(self, t):
        """C_t = sup_{x,y} p_t(x,y); equals p_t(o,o) on homogeneous models."""
        t = np.asarray(t, dtype=float)
        o = self.origin()
        return self.heat_kernel(t, o, o)

    def volume_sample(self, rng, n):
        raise NotImplementedError(f"{self.kind} has infinite volume; supply explicit start points")

    def quadrature(self, level=64):
        """(points, weights) integrating dvol exactly enough for smooth
        integrands; compact models only."""
        raise NotImplementedError(f"no global quadrature rule for {self.kind}")

    # -- generic helpers ------------------------------------------------

    def geodesic_segment(self, x0, x1, n):
        """n points from x0 to x1 along a minimizing geodesic (inclusive)."""
        raise NotImplementedError

    def contains(self, x):
        return np.ones(np.asarray(x).shape[:-1], dtype=bool)

    def __repr__(self):
        return self.spec_string()

    def spec_string(self):
        return self.kind


# ----------------------------------------------------------------------
# flat models


class Euclidean(ManifoldModel):
    kind = "euclidean"

    def __init__(self, m):
        if m < 1:
            raise ValueError("euclidean dimension must be >= 1")
        self.dim = int(m)
        self.coord_dim = int(m)

    def exp(self, x, xi):
        return _as_points(x, self.coord_dim) + np.asarray(xi, dtype=float)

    def walk(self, x, steps):
        # exp's additions, step after step, in place
        steps[0] += x
        for j in range(1, len(steps)):
            steps[j] += steps[j - 1]
        return steps

    def distance(self, x, y):
        # np.linalg.norm(d, axis=-1): its operations, minus its dispatch
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return np.sqrt(np.add.reduce(d * d, axis=-1))

    def origin(self):
        return np.zeros(self.coord_dim)

    def heat_kernel(self, t, x, y):
        t = np.asarray(t, dtype=float)
        d2 = np.sum((np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2, axis=-1)
        return (2.0 * np.pi * t) ** (-self.dim / 2.0) * np.exp(-d2 / (2.0 * t))

    def sup_heat_kernel(self, t):
        return (2.0 * np.pi * np.asarray(t, dtype=float)) ** (-self.dim / 2.0)

    def polar_jacobian(self, r):
        """j(r) with dvol = j(r) dr dsigma(omega) in polar coordinates, sigma
        the unit-sphere measure (the radial Kato rule's Jacobian)."""
        return np.asarray(r, dtype=float) ** (self.dim - 1)

    def geodesic_segment(self, x0, x1, n):
        tau = np.linspace(0.0, 1.0, n)[:, None]
        return (1.0 - tau) * np.asarray(x0, dtype=float) + tau * np.asarray(x1, dtype=float)

    def spec_string(self):
        return f"euclidean(m={self.dim})"


class Circle(ManifoldModel):
    kind = "circle"
    dim = 1
    coord_dim = 1

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        self.radius = float(radius)
        self.circumference = 2.0 * np.pi * self.radius

    def exp(self, x, xi):
        th = _as_points(x, 1) + np.asarray(xi, dtype=float) / self.radius
        return np.mod(th, 2.0 * np.pi)

    def chart_increment(self, x, xi):
        """Signed angle increment of the step (no wrapping)."""
        return np.asarray(xi, dtype=float) / self.radius

    def distance(self, x, y):
        d = np.abs(_as_points(x, 1)[..., 0] - _as_points(y, 1)[..., 0])
        d = np.minimum(d, 2.0 * np.pi - d)
        return self.radius * d

    def origin(self):
        return np.zeros(1)

    def heat_kernel(self, t, x, y):
        # image sum of the line Gaussian over all windings
        t = np.asarray(t, dtype=float)
        d = self.distance(x, y)
        return _wrapped_gaussian(d, t, self.circumference)

    def sup_heat_kernel(self, t):
        t = np.asarray(t, dtype=float)
        return _wrapped_gaussian(np.zeros(np.shape(t)), t, self.circumference)

    def volume_sample(self, rng, n):
        return rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))

    def quadrature(self, level=256):
        th = 2.0 * np.pi * (np.arange(level) + 0.5) / level
        return th[:, None], np.full(level, self.circumference / level)

    def geodesic_segment(self, x0, x1, n):
        d = np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)
        d = np.mod(d + np.pi, 2.0 * np.pi) - np.pi  # minimal image
        tau = np.linspace(0.0, 1.0, n)[:, None]
        return np.mod(np.asarray(x0, dtype=float) + tau * d, 2.0 * np.pi)

    def spec_string(self):
        return f"circle(r={self.radius:g})"


class FlatTorus(ManifoldModel):
    kind = "torus"

    def __init__(self, periods):
        periods = np.atleast_1d(np.asarray(periods, dtype=float))
        if np.any(periods <= 0):
            raise ValueError("torus periods must be positive")
        self.periods = periods
        self.dim = len(periods)
        self.coord_dim = self.dim

    def exp(self, x, xi):
        return np.mod(_as_points(x, self.coord_dim) + np.asarray(xi, dtype=float), self.periods)

    def distance(self, x, y):
        d = np.abs(_as_points(x, self.coord_dim) - _as_points(y, self.coord_dim))
        d = np.minimum(d, self.periods - d)
        return np.linalg.norm(d, axis=-1)

    def origin(self):
        return np.zeros(self.coord_dim)

    def heat_kernel(self, t, x, y):
        t = np.asarray(t, dtype=float)
        d = np.abs(_as_points(x, self.coord_dim) - _as_points(y, self.coord_dim))
        d = np.minimum(d, self.periods - d)
        vals = [_wrapped_gaussian(d[..., i], t, self.periods[i]) for i in range(self.dim)]
        return np.prod(np.stack(vals, axis=0), axis=0)

    def volume_sample(self, rng, n):
        return rng.uniform(0.0, 1.0, size=(n, self.dim)) * self.periods

    def quadrature(self, level=64):
        axes = [(np.arange(level) + 0.5) / level * L for L in self.periods]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.full(pts.shape[0], np.prod(self.periods) / level**self.dim)
        return pts, w

    def geodesic_segment(self, x0, x1, n):
        d = np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)
        d = np.mod(d + self.periods / 2.0, self.periods) - self.periods / 2.0
        tau = np.linspace(0.0, 1.0, n)[:, None]
        return np.mod(np.asarray(x0, dtype=float) + tau * d, self.periods)

    def spec_string(self):
        inner = ",".join(f"{p:g}" for p in self.periods)
        return f"torus(l={inner})"


def _wrapped_gaussian(d, t, period):
    """sum_n (2 pi t)^{-1/2} exp(-(d+n*period)^2 / (2t)), truncated when the
    next image pair contributes < 1e-15 of the running value."""
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    nmax = int(np.ceil(np.sqrt(80.0 * float(np.max(t))) / period)) + 2
    total = np.zeros(np.broadcast(d, t).shape)
    for n in range(-nmax, nmax + 1):
        total = total + np.exp(-((d + n * period) ** 2) / (2.0 * t))
    return total / np.sqrt(2.0 * np.pi * t)


# ----------------------------------------------------------------------
# round 2-sphere


class Sphere2(ManifoldModel):
    kind = "sphere2"
    dim = 2
    coord_dim = 3

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        self.radius = float(radius)

    def frame(self, p):
        """Orthonormal tangent frame at p, shape (..., 3, 2).  The gauge is
        fixed (hence reproducible) but necessarily discontinuous somewhere;
        Brownian sampling is insensitive to the choice because Gaussian
        increments are rotation invariant."""
        p = _as_points(p, 3)
        n = np.empty((5, math.prod(p.shape[:-1])))
        np.divide(p.reshape(-1, 3).T, self.radius, out=n[:3])
        E = np.empty((2,) + n.shape)
        _gauge_frame(n, E)
        return np.ascontiguousarray(E[:, :3].T).reshape(p.shape[:-1] + (3, 2))

    def exp(self, x, xi):
        return self._sweep(x, np.asarray(xi, dtype=float)[None], None, False)[0][0]

    def walk(self, x, steps):
        return self._sweep(x, steps, None, False)[0]

    def transport_matrix(self, x, xi, F=None):
        """(points, T, frame) of the walk from x by the steps xi, shape
        (C, ..., 2), one geodesic step per leading index: points (C, ..., 3)
        as `walk` gives them, T (C, ..., 2, 2) the real rotations carrying
        frame coefficients at each step's start to frame coefficients at
        its end by parallel transport along the geodesic, and the frame at
        the last point, (..., 3, 2).  F, if given, is frame(x), as a
        previous call returned it.

        Transport turns the step direction vhat into the geodesic's
        direction that_y at the endpoint y and keeps the binormal
        nhat x vhat, which is also the binormal at y; both frames are
        oriented by the outward normal, so T is the rotation taking
        src = F^T vhat to img = frame(y)^T that_y, [[c, -s], [s, c]] with
        (c, s) the unit vector along (src . img, src x img)."""
        return self._sweep(x, xi, F, True)

    def _sweep(self, x, xi, F, transport):
        """The one geodesic step kernel of exp, walk and transport_matrix:
        (points, T, frame) for steps xi of shape (C, ..., 2) from x, T and
        frame None unless `transport`.

        The walk runs component-major: each coordinate of the points, the
        step and both frame columns is a contiguous row over all the
        points, the steps are transposed once, and each step is a few
        dozen operations on those rows.  A step maps xi through the frame
        F at its start to the ambient vector v (F's first column is the
        direction of a null step), walks the angle |v|/r along the great
        circle, puts the endpoint back on the sphere, and takes the frame
        there, which is the next step's F.  The arithmetic is that of the
        (..., 3) forms (einsum's sums start from +0), so every output is
        what one step at a time gives, bit for bit."""
        x = _as_points(x, 3)
        xi = np.asarray(xi, dtype=float)
        C = xi.shape[0]
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[1:-1])
        N = math.prod(shape)
        r = self.radius
        XI = np.broadcast_to(xi, (C,) + shape + (2,)).reshape(C, N, 2).transpose(0, 2, 1).copy()
        P = np.empty((C + 1, 3, N))  # P[j + 1] is point j, P[0] the start
        P[0] = np.broadcast_to(x, shape + (3,)).reshape(N, 3).T
        n, n_y = np.empty((5, N)), np.empty((5, N))  # x / r and y / r, for _gauge_frame
        E, E_y = np.empty((2, 5, N)), np.empty((2, 5, N))  # the frames at x and y
        np.divide(P[0], r, out=n[:3])
        if F is None:
            _gauge_frame(n, E)
        else:
            E[:, :3] = np.broadcast_to(F, shape + (3, 2)).reshape(N, 3, 2).T
        W, U = np.empty((2, 3, N)), np.empty((3, N))
        CS = np.empty((C, 2, N)) if transport else None  # (c, s) of each step's rotation
        for j in range(C):
            x, y = P[j], P[j + 1]
            # the ambient step v = F xi, its length and direction vhat
            np.multiply(E[:, :3], XI[j][:, None], out=W)
            v = W[0] + W[1]
            v += 0.0
            np.multiply(v, v, out=U)
            norm = U[0] + U[1]
            norm += U[2]
            np.sqrt(norm, out=norm)
            small = norm < 1e-300
            if small.any():
                vhat = np.where(small, E[0, :3], v / np.where(small, 1.0, norm))
            else:
                vhat = np.divide(v, norm, out=v)
            # y = x cos(alpha) + r vhat sin(alpha), scaled back onto the sphere
            alpha = norm / r
            ca, sa = np.cos(alpha), np.sin(alpha)
            np.multiply(x, ca, out=y)
            np.multiply(r, vhat, out=U)
            U *= sa
            y += U
            np.multiply(y, y, out=U)
            q = U[0] + U[1]
            q += U[2]
            np.sqrt(q, out=q)
            np.divide(r, q, out=q)
            y *= q
            if not transport:
                if j < C - 1:
                    np.divide(y, r, out=n[:3])
                    _gauge_frame(n, E)
                continue
            # the frame at y, the next step's F, and the rotation taking
            # src = F^T vhat to img = frame(y)^T that_y
            np.divide(y, r, out=n_y[:3])
            _gauge_frame(n_y, E_y)
            that = vhat * ca
            np.multiply(n[:3], sa, out=U)
            that -= U
            img, src = _dots(E_y, that, W), _dots(E, vhat, W)
            cs = CS[j]
            np.multiply(src[0], img, out=cs)
            img *= src[1]
            cs[0] += img[1]
            cs[1] -= img[0]
            # |src| |img| = 1 up to a few ulps: scale it out, so T is a rotation
            # to rounding (c^2 + s^2 within 1e-15 of 1)
            q = cs[0] * cs[0]
            q += cs[1] * cs[1]
            np.sqrt(q, out=q)
            np.divide(1.0, q, out=q)
            cs *= q
            E, E_y, n, n_y = E_y, E, n_y, n
        pts = np.ascontiguousarray(P[1:].transpose(0, 2, 1)).reshape((C,) + shape + (3,))
        if not transport:
            return pts, None, None
        # entry-major, as matexp.entry_major lays out: each T[..., i, j] one row
        T = np.empty((2, 2, C, N)).transpose(2, 3, 0, 1)
        T[..., 0, 0] = T[..., 1, 1] = CS[:, 0]
        T[..., 1, 0] = CS[:, 1]
        np.negative(CS[:, 1], out=T[..., 0, 1])
        frame = np.ascontiguousarray(E[:, :3].T).reshape(shape + (3, 2))
        return pts, T.reshape((C,) + shape + (2, 2)), frame

    def distance(self, x, y):
        # atan2 form stays accurate for nearly coincident or antipodal points
        x = _as_points(x, 3)
        y = _as_points(y, 3)
        cross = _norm3(_cross(x, y))
        dot = np.sum(x * y, axis=-1)
        return self.radius * np.arctan2(cross / self.radius**2, dot / self.radius**2)

    def origin(self):
        return np.array([0.0, 0.0, self.radius])

    def contains(self, x):
        # on the sphere to rounding: the frame and the exponential map take |x| = r
        return np.abs(_norm3(_as_points(x, 3)) - self.radius) <= 1e-9 * self.radius

    def heat_kernel(self, t, x, y, tail_tol=1e-12):
        """Spectral series sum_l (2l+1) e^{-l(l+1)t/(2 r^2)} P_l(cos) / (4 pi r^2),
        truncated once the remaining tail is below tail_tol."""
        t = np.asarray(t, dtype=float)
        c = np.clip(np.sum(np.asarray(x) * np.asarray(y), axis=-1) / self.radius**2, -1.0, 1.0)
        return self._legendre_series(t, c, tail_tol)

    def _legendre_series(self, t, c, tail_tol):
        t = np.asarray(t, dtype=float)
        c = np.asarray(c, dtype=float)
        shape = np.broadcast(t, c).shape
        tmin = float(np.min(t))
        if tmin <= 0:
            raise ValueError("heat kernel requires t > 0")
        scale = 2.0 * self.radius**2
        total = np.zeros(shape)
        p_prev = np.zeros(shape)  # P_{l-1}
        p_curr = np.ones(shape)  # P_0
        l = 0
        while True:
            coeff = (2 * l + 1) * np.exp(-l * (l + 1) * t / scale)
            total = total + coeff * p_curr
            # remaining tail bounded by sum_{k>l} (2k+1) e^{-k(k+1) tmin/scale}
            tail = _sphere_tail_bound(l + 1, tmin / scale)
            if tail < tail_tol * 4.0 * np.pi * self.radius**2 and l >= 2:
                break
            if l > 100000:
                raise RuntimeError("sphere heat kernel series failed to converge; t too small")
            p_next = ((2 * l + 1) * c * p_curr - l * p_prev) / (l + 1)
            p_prev, p_curr = p_curr, p_next
            l += 1
        return total / (4.0 * np.pi * self.radius**2)

    def volume_sample(self, rng, n):
        g = rng.standard_normal((n, 3))
        return self.radius * g / np.linalg.norm(g, axis=-1, keepdims=True)

    def quadrature(self, level=64):
        z, wz = np.polynomial.legendre.leggauss(level)
        nphi = 2 * level
        phi = 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi
        zz, pp = np.meshgrid(z, phi, indexing="ij")
        s = np.sqrt(1.0 - zz**2)
        pts = self.radius * np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=-1).reshape(-1, 3)
        w = np.repeat(wz, nphi) * (2.0 * np.pi / nphi) * self.radius**2
        return pts, w

    def geodesic_segment(self, x0, x1, n):
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        ang = float(self.distance(x0, x1)) / self.radius
        tau = np.linspace(0.0, 1.0, n)
        if ang < 1e-12:
            return np.broadcast_to(x0, (n, 3)).copy()
        s = np.sin(ang)
        pts = (np.sin((1.0 - tau)[:, None] * ang) * x0 + np.sin(tau[:, None] * ang) * x1) / s
        return pts * (self.radius / np.linalg.norm(pts, axis=-1, keepdims=True))

    def spec_string(self):
        return f"sphere2(r={self.radius:g})"


def _sphere_tail_bound(l0, a):
    """Bound on sum_{l>=l0} (2l+1) e^{-l(l+1)a}: geometric-style majorant."""
    # term ratio e^{-2(l+1)a}(2l+3)/(2l+1) < 1 once 2(l+1)a > log((2l+3)/(2l+1))
    term = (2 * l0 + 1) * math.exp(-l0 * (l0 + 1) * a)
    ratio = math.exp(-2 * (l0 + 1) * a) * (2 * l0 + 3) / (2 * l0 + 1)
    if ratio >= 1.0:
        return np.inf
    return term / (1.0 - ratio)


# ----------------------------------------------------------------------
# hyperbolic plane (Poincare disk, curvature -1)


class HyperbolicPlane(ManifoldModel):
    kind = "hyperbolic"
    dim = 2
    coord_dim = 2

    def _z(self, x):
        x = _as_points(x, 2)
        return x[..., 0] + 1j * x[..., 1]

    @staticmethod
    def _xy(z):
        return np.stack([z.real, z.imag], axis=-1)

    def exp(self, x, xi):
        """Moebius-translate to the origin, walk a straight ray of length
        |xi|, translate back.  The conformal frame at the origin is half
        the coordinate frame, so a ray of length r ends at tanh(r/2)."""
        z0 = self._z(x)
        xi = np.asarray(xi, dtype=float)
        xc = xi[..., 0] + 1j * xi[..., 1]
        r = np.abs(xc)
        small = r < 1e-300
        direction = np.where(small, 1.0 + 0j, xc / np.where(small, 1.0, r))
        p = np.tanh(r / 2.0) * direction
        return self._xy((p + z0) / (1.0 + np.conj(z0) * p))

    def distance(self, x, y):
        z1 = self._z(x)
        z2 = self._z(y)
        num = np.abs(z1 - z2)
        den = np.abs(1.0 - np.conj(z1) * z2)
        return 2.0 * np.arctanh(np.clip(num / den, 0.0, 1.0 - 1e-15))

    def origin(self):
        return np.zeros(2)

    def contains(self, x):
        return np.abs(self._z(x)) < 1.0

    def heat_kernel(self, t, x, y):
        rho = self.distance(x, y)
        return self.kernel_at_distance(t, rho)

    def kernel_at_distance(self, t, rho, n_nodes=160):
        """McKean's integral for the curvature -1 plane, at generator
        Delta/2 (so evaluated at s = t/2):

          k_s(rho) = sqrt(2) e^{-s/4} (4 pi s)^{-3/2}
                     * int_rho^inf u e^{-u^2/(4s)} / sqrt(cosh u - cosh rho) du

        The substitution u = rho + w^2 removes the inverse-square-root
        endpoint singularity; Gauss-Legendre then converges essentially to
        machine precision for the t range of interest."""
        s = np.asarray(t, dtype=float) / 2.0
        rho = np.asarray(rho, dtype=float)
        s_b, rho_b = np.broadcast_arrays(s, rho)
        shape = s_b.shape
        s_f = s_b.reshape(-1)
        rho_f = rho_b.reshape(-1)
        # integration cutoff: (u - rho)(u + rho) / (4s) > 60
        delta = np.sqrt(rho_f**2 + 240.0 * s_f) - rho_f
        W = np.sqrt(delta)
        nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
        wq = 0.5 * W[:, None] * wts[None, :]
        w = 0.5 * W[:, None] * (nodes[None, :] + 1.0)
        u = rho_f[:, None] + w**2
        # cosh u - cosh rho = 2 sinh((u+rho)/2) sinh((u-rho)/2), exactly;
        # the product form stays accurate as u -> rho
        gap = 2.0 * np.sinh(0.5 * (u + rho_f[:, None])) * np.sinh(0.5 * w**2)
        gap = np.maximum(gap, 1e-300)
        integ = u * np.exp(-(u**2 - rho_f[:, None] ** 2) / (4.0 * s_f[:, None])) * 2.0 * w / np.sqrt(gap)
        val = np.sum(integ * wq, axis=1)
        pref = np.sqrt(2.0) * np.exp(-s_f / 4.0 - rho_f**2 / (4.0 * s_f)) / (4.0 * np.pi * s_f) ** 1.5
        return (pref * val).reshape(shape)

    def geodesic_segment(self, x0, x1, n):
        # Moebius-translate x0 to the origin, where geodesics are rays
        z0 = self._z(np.asarray(x0, dtype=float))
        z1 = self._z(np.asarray(x1, dtype=float))
        p = (z1 - z0) / (1.0 - np.conj(z0) * z1)
        r1 = 2.0 * np.arctanh(min(abs(p), 1.0 - 1e-15))
        direction = p / abs(p) if abs(p) > 0 else 1.0 + 0j
        tau = np.linspace(0.0, 1.0, n)
        q = np.tanh(tau * r1 / 2.0) * direction
        z = (q + z0) / (1.0 + np.conj(z0) * q)
        return self._xy(z)

    def spec_string(self):
        return "hyperbolic()"


# ----------------------------------------------------------------------
# open subdomains (finite lifetime)


class OpenSubdomain(ManifoldModel):
    """Open subset of a base model, cut out by a signed boundary function
    (positive inside, negative outside).  Brownian paths are killed at the
    first grid point outside; there is no closed-form heat kernel."""

    complete = False
    base = None  # the parent model, set per instance

    def __init__(self, base, boundary_fn, label="subdomain"):
        if isinstance(base, OpenSubdomain):
            raise ValueError("nested open subdomains are not supported")
        self.base = base
        self.boundary_fn = boundary_fn
        self.label = label
        self.kind = f"subdomain({base.kind})"
        self.dim = base.dim
        self.coord_dim = base.coord_dim

    def exp(self, x, xi):
        return self.base.exp(x, xi)

    def walk(self, x, steps):
        return self.base.walk(x, steps)

    def distance(self, x, y):
        return self.base.distance(x, y)

    def origin(self):
        o = self.base.origin()
        if not np.all(self.contains(o[None])[0]):
            raise ValueError("base origin lies outside the subdomain")
        return o

    def contains(self, x):
        b = np.asarray(self.boundary_fn(np.asarray(x, dtype=float)))
        if not np.isfinite(b).all():
            raise ValueError("boundary function returned non-finite values")
        return b > 0.0

    def heat_kernel(self, t, x, y):
        raise NoClosedFormError(
            "no closed-form heat kernel on an open subdomain; "
            "use Monte Carlo occupation estimates"
        )

    def sup_heat_kernel(self, t):
        # Dirichlet kernel is dominated by the base kernel
        return self.base.sup_heat_kernel(t)

    def geodesic_segment(self, x0, x1, n):
        return self.base.geodesic_segment(x0, x1, n)

    def spec_string(self):
        return self.label


def ball(base, r, center=None):
    """Open geodesic ball of radius r in the base model."""
    if r <= 0:
        raise ValueError("ball radius must be positive")
    c = base.origin() if center is None else np.asarray(center, dtype=float)
    label = f"ball({base.spec_string()}, r={r:g})"
    return OpenSubdomain(base, _BallBoundary(base, r, c), label)


class _BallBoundary:
    """r - d(x, center); an object rather than a closure, so that a ball
    pickles to the worker processes of run_ensemble."""

    def __init__(self, base, r, center):
        self.base, self.r, self.center = base, r, center

    def __call__(self, x):
        return self.r - self.base.distance(x, self.center)
