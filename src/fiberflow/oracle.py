"""Independent reference solvers used by the tests and acceptance suite.

Finite-difference realizations of -Delta/2 + v on an interval (Dirichlet)
and on the circle (periodic, with unitary phase links for a magnetic
potential, so the discrete diamagnetic inequality holds structurally),
plus the closed-form references: Mehler kernel, circle/torus spectral
kernels, reflection-series exit probabilities, the Levy area law, and the
smeared-Coulomb integrand used by the Kato quadrature checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh, expm_multiply
from scipy.special import erf

__all__ = [
    "GridOperator",
    "interval_operator",
    "circle_operator",
    "grid_ground_energy",
    "richardson_ground_energy",
    "grid_semigroup_apply",
    "grid_kernel",
    "mehler_kernel",
    "harmonic_energy",
    "circle_kernel_spectral",
    "circle_magnetic_ground",
    "circle_magnetic_semigroup_constant",
    "exit_survival_interval",
    "levy_area_charfn",
    "smeared_coulomb",
    "oracle_selfcheck",
]

MAX_GRID = 4096


@dataclass
class GridOperator:
    """Dense/sparse matrix realization of -(1/2) Delta_h + V_h."""

    kind: str            # "interval" | "circle"
    points: np.ndarray   # grid points (interval coordinate or arclength)
    dx: float
    matrix: np.ndarray   # dense Hermitian (n, n)
    flux: float = 0.0    # circle: magnetic coefficient a of a*dtheta

    @property
    def n(self):
        return len(self.points)


def interval_operator(a, b, n, v_fn=None) -> GridOperator:
    """Dirichlet discretization on (a, b) with n interior points."""
    if n > MAX_GRID:
        raise ValueError(f"grid size {n} exceeds {MAX_GRID}")
    dx = (b - a) / (n + 1)
    x = a + dx * np.arange(1, n + 1)
    v = np.zeros(n) if v_fn is None else np.asarray(v_fn(x), dtype=float)
    H = np.diag(1.0 / dx**2 + v)
    off = -0.5 / dx**2
    H += np.diag(np.full(n - 1, off), 1) + np.diag(np.full(n - 1, off), -1)
    return GridOperator(kind="interval", points=x, dx=dx, matrix=H)


def circle_operator(radius, n, v_fn=None, flux=0.0) -> GridOperator:
    """Periodic discretization with unitary phase links e^{i a dtheta}
    on the hops, the lattice-gauge form of d + i a dtheta."""
    if n > MAX_GRID:
        raise ValueError(f"grid size {n} exceeds {MAX_GRID}")
    L = 2.0 * np.pi * radius
    dx = L / n
    s = dx * np.arange(n)
    v = np.zeros(n) if v_fn is None else np.asarray(v_fn(s), dtype=float)
    phase = np.exp(1j * flux * dx / radius)  # int of a*dtheta over one link
    H = np.zeros((n, n), dtype=complex)
    H[np.arange(n), np.arange(n)] = 1.0 / dx**2 + v
    idx = np.arange(n)
    H[idx, (idx + 1) % n] = -0.5 * phase / dx**2
    H[(idx + 1) % n, idx] = -0.5 * np.conj(phase) / dx**2
    return GridOperator(kind="circle", points=s, dx=dx, matrix=H, flux=flux)


def grid_ground_energy(op: GridOperator, tol=0.0) -> float:
    """Smallest eigenvalue: tridiagonal solver on intervals, Lanczos on the
    (complex Hermitian) circle operator."""
    H = op.matrix
    if op.kind == "interval":
        d = np.real(np.diag(H))
        e = np.real(np.diag(H, 1))
        w = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
        return float(w[0])
    # a fixed generic start vector makes ARPACK reproducible; a constant one
    # would be an eigenvector of the circle operator
    v0 = np.random.default_rng(0).standard_normal(H.shape[0])
    w = eigsh(csr_matrix(H), k=1, which="SA", tol=tol, maxiter=20000, v0=v0,
              return_eigenvectors=False)
    return float(np.real(w[0]))


def richardson_ground_energy(build, n, factor=2):
    """Richardson extrapolation of the O(dx^2) finite-difference error from
    grids of n and factor*n points; build(n) -> GridOperator."""
    e1 = grid_ground_energy(build(n))
    e2 = grid_ground_energy(build(factor * n))
    f2 = float(factor) ** 2
    return (f2 * e2 - e1) / (f2 - 1.0)


def grid_semigroup_apply(op: GridOperator, f, t):
    """e^{-t H} f by eigendecomposition (n <= 1024) or Krylov stepping."""
    f = np.asarray(f, dtype=complex)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return f.copy()
    if op.n <= 1024:
        lam, U = np.linalg.eigh(op.matrix)
        return U @ (np.exp(-t * lam) * (U.conj().T @ f))
    return expm_multiply(csr_matrix(-t * op.matrix), f)


def grid_kernel(op: GridOperator, t, i, j):
    """Kernel value k_t(x_i, x_j) of e^{-tH} with respect to the grid
    measure dx (eigendecomposition route)."""
    lam, U = np.linalg.eigh(op.matrix)
    return complex(np.sum(U[i] * np.conj(U[j]) * np.exp(-t * lam))) / op.dx


# ----------------------------------------------------------------------
# closed forms


def mehler_kernel(t, x, y, omega=1.0):
    """Kernel of e^{-t(-d^2/2 + omega^2 x^2/2)}:
    sqrt(omega/(2 pi sinh(omega t))) *
    exp(-omega((x^2+y^2) cosh(omega t) - 2 x y)/(2 sinh(omega t)))."""
    w, s = omega, omega * np.asarray(t, dtype=float)
    sh, ch = np.sinh(s), np.cosh(s)
    return np.sqrt(w / (2.0 * np.pi * sh)) * np.exp(
        -w * ((np.asarray(x) ** 2 + np.asarray(y) ** 2) * ch - 2.0 * np.asarray(x) * np.asarray(y))
        / (2.0 * sh)
    )


def harmonic_energy(n=0, omega=1.0):
    return omega * (n + 0.5)


def circle_kernel_spectral(radius, t, dtheta, nmax=None):
    """Spectral series (independent of the image-sum kernel in geometry):
    p_t = (1/L) sum_n e^{-n^2 t/(2 r^2)} e^{i n dtheta}."""
    L = 2.0 * np.pi * radius
    if nmax is None:
        nmax = int(math.ceil(math.sqrt(2.0 * radius**2 * 80.0 / float(np.min(t))))) + 2
    n = np.arange(1, nmax + 1)
    dtheta = np.asarray(dtheta, dtype=float)[..., None]
    t = np.asarray(t, dtype=float)[..., None]
    series = 1.0 + 2.0 * np.sum(np.exp(-(n**2) * t / (2.0 * radius**2)) * np.cos(n * dtheta), axis=-1)
    return series / L


def circle_magnetic_ground(a, radius=1.0):
    """min_n (n + a)^2 / (2 r^2) over integer n."""
    n = np.round(-a)
    cands = [(n + k + a) ** 2 / (2.0 * radius**2) for k in (-1, 0, 1)]
    return float(min(cands))


def circle_magnetic_semigroup_constant(a, t, radius=1.0):
    """e^{-t H_beta(0)} applied to f == 1 on the circle: only the n = 0
    mode contributes, giving e^{-a^2 t/(2 r^2)}."""
    return math.exp(-(a**2) * t / (2.0 * radius**2))


def exit_survival_interval(r, t):
    """P{ sup_{s<=t} |W_s| < r } for standard Brownian motion via the image
    (reflection) sum, absolutely convergent for all t."""
    from scipy.stats import norm

    total = 0.0
    for k in range(-40, 41):
        total += (-1) ** k * (norm.cdf((2 * k + 1) * r / math.sqrt(t))
                              - norm.cdf((2 * k - 1) * r / math.sqrt(t)))
    return float(total)


def levy_area_charfn(lam, t):
    """E[exp(i lam A_t)] = 1/cosh(lam t / 2) for Levy's stochastic area of
    planar Brownian motion started at the origin."""
    return 1.0 / math.cosh(lam * t / 2.0)


def smeared_coulomb(dist, s):
    """int p_s(x, y) / |y - c| dy in R^3 at |x - c| = dist: the Newtonian
    potential of a variance-s Gaussian, erf(d/sqrt(2s))/d."""
    dist = np.asarray(dist, dtype=float)
    s = np.asarray(s, dtype=float)
    small = dist < 1e-12
    safe = np.where(small, 1.0, dist)
    out = erf(safe / np.sqrt(2.0 * s)) / safe
    return np.where(small, np.sqrt(2.0 / (np.pi * s)), out)


# ----------------------------------------------------------------------
# self-consistency suite (exposed as `validate oracle` in the CLI)


def oracle_selfcheck():
    """Oracle-vs-oracle agreement checks; returns a report dict with the
    achieved discrepancies (all must sit below their stated tolerances)."""
    checks = {}

    # finite-difference harmonic oscillator vs ladder value 1/2
    build = lambda n: interval_operator(-10.0, 10.0, n, lambda x: 0.5 * x**2)
    e_fd = richardson_ground_energy(build, 1024)
    checks["harmonic_ground_vs_half"] = abs(e_fd - 0.5)

    # magnetic circle via phase links vs analytic (n + a)^2 / 2
    builda = lambda n: circle_operator(1.0, n, flux=0.5)
    e_mag = richardson_ground_energy(builda, 1024)
    checks["circle_magnetic_vs_eighth"] = abs(e_mag - circle_magnetic_ground(0.5))

    # spectral vs finite-difference free circle kernel (Richardson in dx)
    t = 0.3
    dtheta = 2.0 * np.pi * 7 / 512

    def circle_k(n):
        opn = circle_operator(1.0, n)
        j = int(round(dtheta / (2.0 * np.pi / n)))
        return np.real(grid_kernel(opn, t, 0, j))

    ker_fd = (4.0 * circle_k(1024) - circle_k(512)) / 3.0
    ker_sp = float(circle_kernel_spectral(1.0, t, np.array(dtheta)))
    checks["circle_kernel_fd_vs_spectral"] = abs(ker_fd - ker_sp)

    # Mehler kernel vs FD kernel at (0, 0, t=1), Richardson over two grids
    def kernel00(n):
        opn = interval_operator(-10.0, 10.0, n, lambda x: 0.5 * x**2)
        i = int(np.argmin(np.abs(opn.points)))
        return np.real(grid_kernel(opn, 1.0, i, i)), opn.points[i]

    k1, x1 = kernel00(511)  # odd n puts a grid point exactly at 0
    k2, x2 = kernel00(1023)
    k_fd = (4.0 * k2 - k1) / 3.0
    checks["mehler_vs_fd_kernel"] = abs(k_fd - float(mehler_kernel(1.0, 0.0, 0.0)))

    # discrete diamagnetic inequality: |e^{-tH_a} f| <= e^{-tH_0}|f| entrywise
    rng = np.random.default_rng(0)
    f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    op0 = circle_operator(1.0, 256)
    opa = circle_operator(1.0, 256, flux=0.7)
    lhs = np.abs(grid_semigroup_apply(opa, f, 0.4))
    rhs = np.real(grid_semigroup_apply(op0, np.abs(f), 0.4))
    checks["discrete_diamagnetic_violation"] = float(np.max(lhs - rhs))

    # mass conservation on the free circle
    ones = np.ones(256)
    drift = grid_semigroup_apply(op0, ones, 1.7)
    checks["free_mass_conservation"] = float(np.max(np.abs(drift - 1.0)))

    tolerances = {
        "harmonic_ground_vs_half": 1e-4,
        "circle_magnetic_vs_eighth": 1e-4,
        "circle_kernel_fd_vs_spectral": 1e-6,
        "mehler_vs_fd_kernel": 1e-6,
        "discrete_diamagnetic_violation": 1e-10,
        "free_mass_conservation": 1e-10,
    }
    passed = all(checks[k] <= tolerances[k] for k in tolerances)
    return {"checks": checks, "tolerances": tolerances, "passed": passed}
