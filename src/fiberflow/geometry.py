"""Catalog of model Riemannian manifolds.

Five homogeneous models (Euclidean space, circle, flat torus, round
2-sphere, hyperbolic plane of curvature -1) plus open subdomains of them.
Each model supplies exactly what the samplers and analyzers need: an
orthonormal-frame exponential map, geodesic distance, volume sampling,
quadrature rules, and the closed-form heat kernel where one exists.

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


class ManifoldModel:
    """Base class; concrete models override the geometry primitives."""

    kind: str = "abstract"
    dim: int = 0
    coord_dim: int = 0
    complete: bool = True

    # 0.1 x injectivity radius (or 0.1 for infinite injectivity radius);
    # governs the public exp_step contract, see exp_step.
    max_step: float = 0.1

    # -- primitives ----------------------------------------------------

    def exp(self, x, xi):
        """Geodesic exponential: endpoint of the geodesic from x with
        initial frame coefficients xi (exact on all catalog models)."""
        raise NotImplementedError

    def geodesic_step(self, x, xi):
        """Like exp, but also returns xi parallel-transported to the
        endpoint (frame coefficients there)."""
        raise NotImplementedError

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

    def polar_jacobian(self, r):
        """Density j(r) with dvol = j(r) dr dsigma(omega) in geodesic polar
        coordinates around any point, sigma = unit-sphere measure."""
        raise NotImplementedError

    # -- generic helpers ------------------------------------------------

    def exp_step(self, x, xi):
        """Public single-step exponential with the spec's safety contract:
        rejects non-finite xi and |xi| beyond max_step (caller should
        shrink h).  The internal samplers use exp() directly, which is
        exact at any step length on the catalog models."""
        xi = np.asarray(xi, dtype=float)
        if not np.all(np.isfinite(xi)):
            raise ValueError("exp_step: xi has non-finite entries")
        norm = np.linalg.norm(xi, axis=-1)
        if np.any(norm > self.max_step * (1.0 + 1e-12)):
            raise ValueError(
                f"exp_step: |xi| = {float(np.max(norm)):.4g} exceeds max step "
                f"{self.max_step:.4g} for {self.kind}; shrink h"
            )
        return self.exp(x, xi)

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
    max_step = 0.1

    def __init__(self, m):
        if m < 1:
            raise ValueError("euclidean dimension must be >= 1")
        self.dim = int(m)
        self.coord_dim = int(m)

    def exp(self, x, xi):
        return _as_points(x, self.coord_dim) + np.asarray(xi, dtype=float)

    def geodesic_step(self, x, xi):
        xi = np.asarray(xi, dtype=float)
        return self.exp(x, xi), xi

    def distance(self, x, y):
        return np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)

    def origin(self):
        return np.zeros(self.coord_dim)

    def heat_kernel(self, t, x, y):
        t = np.asarray(t, dtype=float)
        d2 = np.sum((np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2, axis=-1)
        return (2.0 * np.pi * t) ** (-self.dim / 2.0) * np.exp(-d2 / (2.0 * t))

    def sup_heat_kernel(self, t):
        return (2.0 * np.pi * np.asarray(t, dtype=float)) ** (-self.dim / 2.0)

    def polar_jacobian(self, r):
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
        self.max_step = 0.1 * np.pi * self.radius  # injectivity radius pi*r

    def exp(self, x, xi):
        th = _as_points(x, 1) + np.asarray(xi, dtype=float) / self.radius
        return np.mod(th, 2.0 * np.pi)

    def geodesic_step(self, x, xi):
        xi = np.asarray(xi, dtype=float)
        return self.exp(x, xi), xi

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

    def polar_jacobian(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

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
        self.max_step = 0.1 * float(np.min(periods)) / 2.0

    def exp(self, x, xi):
        return np.mod(_as_points(x, self.coord_dim) + np.asarray(xi, dtype=float), self.periods)

    def geodesic_step(self, x, xi):
        xi = np.asarray(xi, dtype=float)
        return self.exp(x, xi), xi

    def chart_increment(self, x, xi):
        return np.asarray(xi, dtype=float)

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

    def sup_heat_kernel(self, t):
        o = self.origin()
        return self.heat_kernel(t, o, o)

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
        self.max_step = 0.1 * np.pi * self.radius

    def frame(self, p):
        """Orthonormal tangent frame at p, shape (..., 3, 2).  The gauge is
        fixed (hence reproducible) but necessarily discontinuous somewhere;
        Brownian sampling is insensitive to the choice because Gaussian
        increments are rotation invariant."""
        p = _as_points(p, 3)
        n = p / self.radius
        # reference axis: the coordinate axis least aligned with n
        a = (np.argmin(np.abs(n), axis=-1)[..., None] == np.arange(3)).astype(float)
        e1 = _cross(a, n)
        e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
        e2 = _cross(n, e1)
        return np.stack([e1, e2], axis=-1)

    def _head(self, x, xi):
        """The geodesic step exp and transport_matrix share: (x, F, vhat,
        alpha, y), F = frame(x), vhat the ambient step direction (F's first
        column for a null step), alpha the angle walked, y the endpoint."""
        x = _as_points(x, 3)
        xi = np.asarray(xi, dtype=float)
        F = self.frame(x)
        v = np.einsum("...ij,...j->...i", F, xi)  # ambient step vector
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        alpha = norm / self.radius
        small = norm < 1e-300
        vhat = np.where(small, F[..., :, 0], v / np.where(small, 1.0, norm))
        y = x * np.cos(alpha) + self.radius * vhat * np.sin(alpha)
        y = y * (self.radius / np.linalg.norm(y, axis=-1, keepdims=True))
        return x, F, vhat, alpha, y

    def exp(self, x, xi):
        return self._head(x, xi)[-1]

    def geodesic_step(self, x, xi):
        y, T = self.transport_matrix(x, xi)
        return y, np.einsum("...ij,...j->...i", T, np.asarray(xi, dtype=float))

    def transport_matrix(self, x, xi):
        """(exp_x(xi), T): T is the real 2x2 orthogonal matrix carrying
        frame coefficients at x to frame coefficients at exp_x(xi) by
        parallel transport along the geodesic."""
        x, F, vhat, alpha, y = self._head(x, xi)
        nhat = x / self.radius
        # transported geodesic direction; binormal component preserved
        that_y = vhat * np.cos(alpha) - nhat * np.sin(alpha)
        w = _cross(nhat, vhat)
        Fy = self.frame(y)
        # rotation sends vhat -> that_y, w -> w; build columns in target frame
        img1 = np.einsum("...i,...ij->...j", that_y, Fy)
        img2 = np.einsum("...i,...ij->...j", w, Fy)
        src1 = np.einsum("...i,...ij->...j", vhat, F)
        src2 = np.einsum("...i,...ij->...j", w, F)
        # T = [img1 img2] @ [src1 src2]^T  maps src basis coords to target
        T = img1[..., :, None] * src1[..., None, :] + img2[..., :, None] * src2[..., None, :]
        return y, T

    def distance(self, x, y):
        # atan2 form stays accurate for nearly coincident or antipodal points
        x = _as_points(x, 3)
        y = _as_points(y, 3)
        cross = np.linalg.norm(np.cross(x, y), axis=-1)
        dot = np.sum(x * y, axis=-1)
        return self.radius * np.arctan2(cross / self.radius**2, dot / self.radius**2)

    def origin(self):
        return np.array([0.0, 0.0, self.radius])

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

    def polar_jacobian(self, r):
        return self.radius * np.sin(np.asarray(r, dtype=float) / self.radius)

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
    max_step = 0.1  # infinite injectivity radius

    def _z(self, x):
        x = _as_points(x, 2)
        return x[..., 0] + 1j * x[..., 1]

    @staticmethod
    def _xy(z):
        return np.stack([z.real, z.imag], axis=-1)

    def exp(self, x, xi):
        y, _ = self.geodesic_step(x, xi)
        return y

    def geodesic_step(self, x, xi):
        """Moebius-translate to the origin, walk a straight ray of length
        |xi|, translate back.  The conformal frame at z is ((1-|z|^2)/2)
        times the coordinate frame, so frame coefficients map to chart
        velocities by that factor."""
        z0 = self._z(x)
        xi = np.asarray(xi, dtype=float)
        xc = xi[..., 0] + 1j * xi[..., 1]
        r = np.abs(xc)
        small = r < 1e-300
        direction = np.where(small, 1.0 + 0j, xc / np.where(small, 1.0, r))
        # at the origin the ray endpoint is tanh(r/2) * direction
        p = np.tanh(r / 2.0) * direction
        y = (p + z0) / (1.0 + np.conj(z0) * p)
        # transported tangent: phase of the geodesic velocity in the frame
        # at y, obtained from the Moebius differential
        dS = (1.0 - np.abs(z0) ** 2) / (1.0 + np.conj(z0) * p) ** 2
        vel_chart = direction * (1.0 - np.abs(p) ** 2) / 2.0 * dS
        lam_y = (1.0 - np.abs(y) ** 2) / 2.0
        tangent_frame = vel_chart / lam_y  # unit frame vector along geodesic at y
        xi_out = xc * tangent_frame / direction
        return self._xy(y), np.stack([xi_out.real, xi_out.imag], axis=-1)

    def distance(self, x, y):
        z1 = self._z(x)
        z2 = self._z(y)
        num = np.abs(z1 - z2)
        den = np.abs(1.0 - np.conj(z1) * z2)
        return 2.0 * np.arctanh(np.clip(num / den, 0.0, 1.0 - 1e-15))

    def origin(self):
        return np.zeros(2)

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

    def polar_jacobian(self, r):
        return np.sinh(np.asarray(r, dtype=float))

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

    def __init__(self, base, boundary_fn, label="subdomain"):
        if isinstance(base, OpenSubdomain):
            raise ValueError("nested open subdomains are not supported")
        self.base = base
        self.boundary_fn = boundary_fn
        self.label = label
        self.kind = f"subdomain({base.kind})"
        self.dim = base.dim
        self.coord_dim = base.coord_dim
        self.max_step = base.max_step

    def exp(self, x, xi):
        return self.base.exp(x, xi)

    def geodesic_step(self, x, xi):
        return self.base.geodesic_step(x, xi)

    def distance(self, x, y):
        return self.base.distance(x, y)

    def origin(self):
        o = self.base.origin()
        if not np.all(self.contains(o[None])[0]):
            raise ValueError("base origin lies outside the subdomain")
        return o

    def contains(self, x):
        b = np.asarray(self.boundary_fn(np.asarray(x, dtype=float)))
        if not np.all(np.isfinite(b)):
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

    def polar_jacobian(self, r):
        return self.base.polar_jacobian(r)

    def geodesic_segment(self, x0, x1, n):
        return self.base.geodesic_segment(x0, x1, n)

    def spec_string(self):
        return self.label


def ball(base, r, center=None):
    """Open geodesic ball of radius r in the base model."""
    if r <= 0:
        raise ValueError("ball radius must be positive")
    c = base.origin() if center is None else np.asarray(center, dtype=float)

    def boundary(x):
        return r - base.distance(x, c)

    label = f"ball({base.spec_string()}, r={r:g})"
    return OpenSubdomain(base, boundary, label)
