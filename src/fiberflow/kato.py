"""Kato-class diagnostics and Khas'minskii exponential-moment constants.

The central quantity is the heat-smoothed sup integral

    C(v, t) = sup_x  int_0^t int p_s(x, y) |v(y)| dvol(dy) ds,

approximated with the sup taken over a finite x-grid (placed, by model
homogeneity, at and around the declared singular point where the true sup
is attained).  The time rule is a fixed 32-node log-spaced trapezoid with
a power-law stub on the uncovered initial interval; the spatial rule is a
singularity-adapted radial quadrature that uses the closed-form angular
average of the Euclidean kernel over geodesic spheres, or spectral (FFT)
smoothing on the circle and flat torus.

Membership cannot be proven numerically: the verdicts are a decay test on
a decreasing t-grid (katoConsistent / failsDecay / inconclusive) with the
|y|^-2 control expected to fail, guarding against a vacuous checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.special import i0e

from .geometry import Circle, Euclidean, FlatTorus, OpenSubdomain
from .paths import _grid_reduce, run_ensemble, time_grid
from .potentials import ScalarField
from .rng import RngKey

__all__ = [
    "KatoReport",
    "KhasminskiiConstants",
    "kato_sup_integral",
    "kato_report",
    "lp_inclusion_check",
    "khasminskii_constants",
    "khasminskii_check",
    "AbsField",
]

N_TIME_NODES = 32
STUB_RATIO = 1e-5  # first time node at STUB_RATIO * t
DECAY_THRESHOLD = 0.05


class AbsField(ScalarField):
    """|v| of a scalar field, inheriting its metadata."""

    def __init__(self, base: ScalarField):
        super().__init__(fn=base.fn, class_tag=base.class_tag,
                         singular_points=base.singular_points,
                         name=f"abs({base.name})",
                         radial_center=base.radial_center,
                         radial_profile=base.radial_profile)

    def __call__(self, pts, cap=None):
        return np.abs(super().__call__(pts, cap=cap))


@dataclass
class KatoReport:
    t_grid: np.ndarray
    sup_integral: np.ndarray
    fitted_decay_exponent: float
    verdict: str  # katoConsistent | inconclusive | failsDecay
    per_x: Optional[np.ndarray] = None
    notes: list = dc_field(default_factory=list)


@dataclass
class KhasminskiiConstants:
    """Prop-style bound sup_x E[exp(int_0^t |v|) 1_alive] <= 2 exp(t * cv),
    with cv = log(1/(1 - C(v, t0)))/t0 for a t0 with C(v, t0) < 1/2."""

    t0: float
    c_at_t0: float
    cv: float
    prefactor: float = 2.0

    def bound(self, t):
        return self.prefactor * np.exp(np.asarray(t, dtype=float) * self.cv)


# ----------------------------------------------------------------------
# spatial rule: int p_s(x, y) |v(y)| dvol(dy)


def _angular_kernel_integral(m, s, D, r):
    """int_{S^{m-1}} p_s(x, c + r*omega) dsigma(omega) for the Euclidean
    kernel, D = |x - c|; stable scaled forms, m in {1, 2, 3}."""
    s = np.asarray(s, dtype=float)
    D = np.asarray(D, dtype=float)
    r = np.asarray(r, dtype=float)
    gauss = np.exp(-((D - r) ** 2) / (2.0 * s))
    z = D * r / s
    if m == 1:
        far = np.exp(-((D + r) ** 2) / (2.0 * s))
        return (gauss + far) / np.sqrt(2.0 * np.pi * s)
    if m == 2:
        return gauss * i0e(z) / s
    if m == 3:
        ratio = np.where(z < 1e-8, 1.0 - z, -np.expm1(-2.0 * z) / (2.0 * np.maximum(z, 1e-300)))
        return 4.0 * np.pi * (2.0 * np.pi * s) ** -1.5 * gauss * ratio
    raise NotImplementedError("angular kernel average implemented for m <= 3")


def _radial_segments(s, D, r_hi, breaks=()):
    """Quadrature segment boundaries: geometric ladder resolving the origin,
    a bump ladder of width sqrt(s) resolving the kernel peak at D, and any
    declared profile discontinuities."""
    sq = math.sqrt(s)
    bounds = {0.0, r_hi}
    lo = min(1e-9, 1e-4 * sq)
    x = lo
    while x < r_hi:
        bounds.add(x)
        x *= 2.0
    if D > 0:
        for k in range(-8, 9):
            b = D + k * sq
            if 0.0 < b < r_hi:
                bounds.add(b)
    for b in breaks:
        if 0.0 < b < r_hi:
            bounds.add(float(b))
    return np.array(sorted(bounds))


def _euclidean_radial_smoothed(model, f: ScalarField, s, x, gl_order=12):
    """Radial-reduction value of int p_s(x,y)|v(y)| dvol for radial fields
    on Euclidean space; one scalar s, one point x."""
    m = model.dim
    c = f.radial_center if f.radial_center is not None else model.origin()
    D = float(model.distance(np.asarray(x, dtype=float), c))
    r_hi = D + math.sqrt(2.0 * s * 80.0)
    bounds = _radial_segments(s, D, r_hi, breaks=f.radial_breaks)
    nodes, wts = np.polynomial.legendre.leggauss(gl_order)
    a = bounds[:-1][:, None]
    b = bounds[1:][:, None]
    r = 0.5 * (b - a) * (nodes[None, :] + 1.0) + a
    w = 0.5 * (b - a) * wts[None, :]
    prof = np.abs(f.radial_profile(r))
    prof = np.nan_to_num(prof, posinf=0.0)  # the r=0 endpoint never appears (GL interior)
    jac = model.polar_jacobian(r)
    ker = _angular_kernel_integral(m, s, D, r)
    return float(np.sum(w * jac * ker * prof))


def _fft_smoothed(model, f: ScalarField, s, x, level=512):
    """P_s |v| (x) on the circle / flat torus by Fourier multiplier."""
    if isinstance(model, Circle):
        n = level
        th = 2.0 * np.pi * np.arange(n) / n
        vals = np.abs(f(th[:, None]))
        coef = np.fft.fft(vals) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        mult = np.exp(-(k / model.radius) ** 2 * s / 2.0)
        x0 = float(np.asarray(x).reshape(-1)[0])
        return float(np.real(np.sum(coef * mult * np.exp(1j * k * x0))))
    if isinstance(model, FlatTorus) and model.dim <= 2:
        n = 128
        axes = [np.arange(n) / n * L for L in model.periods]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        vals = np.abs(f(pts)).reshape((n,) * model.dim)
        coef = np.fft.fftn(vals) / vals.size
        x0 = np.asarray(x, dtype=float)
        ks = [2.0 * np.pi * np.fft.fftfreq(n, d=L / n) for L in model.periods]
        mults = [np.exp(-(k**2) * s / 2.0) for k in ks]
        if model.dim == 1:
            mult, phase = mults[0], np.exp(1j * ks[0] * x0[0])
        else:
            mult = np.multiply.outer(mults[0], mults[1])
            phase = np.multiply.outer(np.exp(1j * ks[0] * x0[0]), np.exp(1j * ks[1] * x0[1]))
        return float(np.real(np.sum(coef * mult * phase)))
    raise NotImplementedError(f"no spectral smoothing rule for {model.kind}")


def smoothed_abs_field(model, f: ScalarField, s, x, gl_order=12):
    """int p_s(x, y) |v(y)| dvol(dy): dispatches to the radial Euclidean
    rule or FFT smoothing on compact flat models.  On open subdomains the
    base-model kernel is used, an upper bound (Dirichlet domination)."""
    base = model.base if isinstance(model, OpenSubdomain) else model
    if isinstance(base, Euclidean):
        if f.radial_profile is None:
            raise NotImplementedError(
                "Euclidean Kato quadrature needs a radial field (declared profile)")
        return _euclidean_radial_smoothed(base, f, s, x, gl_order=gl_order)
    if isinstance(base, (Circle, FlatTorus)):
        return _fft_smoothed(base, f, s, x)
    raise NotImplementedError(f"no Kato quadrature rule for {base.kind}")


# ----------------------------------------------------------------------
# time rule and reports


def _time_integral(model, f, t, x, n_nodes=N_TIME_NODES, gl_order=12):
    """int_0^t smoothed(s) ds: log-spaced trapezoid plus power-law stub on
    [0, s_min].  Returns (value, notes)."""
    notes = []
    s_nodes = t * np.exp(np.linspace(math.log(STUB_RATIO), 0.0, n_nodes))
    vals = np.array([smoothed_abs_field(model, f, s, x, gl_order=gl_order)
                     for s in s_nodes])
    core = float(np.sum(np.diff(s_nodes) * 0.5 * (vals[:-1] + vals[1:])))
    if vals[0] <= 0 or vals[1] <= 0:
        stub = 0.0
    else:
        p = math.log(vals[1] / vals[0]) / math.log(s_nodes[1] / s_nodes[0])
        if p <= -0.98:
            stub = vals[0] * s_nodes[0] * 50.0
            notes.append("divergent_stub")
        else:
            stub = vals[0] * s_nodes[0] / (p + 1.0)
    return core + stub, notes


def kato_sup_integral(model, f: ScalarField, t, x_grid, refine_check=True):
    """max over the x-grid of int_0^t int p_s(x,y)|v(y)| dvol ds, plus a
    non-convergence flag from doubling the spatial order at the arg-max."""
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    vals = []
    notes = []
    for x in x_grid:
        v, nt = _time_integral(model, f, t, x)
        vals.append(v)
        notes.extend(nt)
    vals = np.asarray(vals)
    converged = True
    if refine_check and "divergent_stub" not in notes and vals.max() > 0:
        xs = x_grid[int(np.argmax(vals))]
        fine, _ = _time_integral(model, f, t, xs, gl_order=24)
        converged = abs(fine - vals.max()) / vals.max() < 1e-4
    return {"value": float(vals.max()), "per_x": vals, "converged": converged,
            "notes": sorted(set(notes))}


def kato_report(model, f: ScalarField, t_grid, x_grid,
                threshold=DECAY_THRESHOLD) -> KatoReport:
    """Decay test of the sup integral on a decreasing t-grid (Def-2.1-style
    limit proxy); fits the exponent of sup_integral ~ t^q."""
    t_grid = np.sort(np.asarray(t_grid, dtype=float))[::-1]
    sup_vals = []
    notes = []
    converged = True
    for t in t_grid:
        out = kato_sup_integral(model, f, t, x_grid, refine_check=(t == t_grid[0]))
        sup_vals.append(out["value"])
        notes.extend(out["notes"])
        converged = converged and out["converged"]
    sup_vals = np.asarray(sup_vals)
    mono = bool(np.all(np.diff(sup_vals) <= 1e-8))
    with np.errstate(divide="ignore"):
        lt, lv = np.log(t_grid), np.log(np.maximum(sup_vals, 1e-300))
    slope = float(np.polyfit(lt, lv, 1)[0])
    if not converged:
        verdict = "inconclusive"
    elif mono and sup_vals[-1] < threshold * sup_vals[0]:
        verdict = "katoConsistent"
    elif sup_vals[-1] >= threshold * sup_vals[0]:
        verdict = "failsDecay"
    else:
        verdict = "inconclusive"
    return KatoReport(t_grid=t_grid, sup_integral=sup_vals,
                      fitted_decay_exponent=slope, verdict=verdict,
                      per_x=None, notes=sorted(set(notes)))


def lp_inclusion_check(model, f: ScalarField, p, t_grid=None, x_grid=None):
    """Thm-style L^p + L^inf inclusion probe: checks the decay verdict and
    whether p sits above the dimensional threshold (p >= 1 if m = 1,
    p > m/2 otherwise).  Below-threshold fields are allowed and expected
    to be able to fail."""
    m = model.dim
    admissible = p >= 1 if m == 1 else p > m / 2.0
    if t_grid is None:
        t_grid = np.geomspace(1e-4, 0.25, 8)
    if x_grid is None:
        c = f.radial_center if f.radial_center is not None else model.origin()
        x_grid = _default_x_grid(model, c)
    rep = kato_report(model, f, t_grid, x_grid)
    return {"p": p, "admissible_p": admissible, "verdict": rep.verdict,
            "report": rep, "consistent": rep.verdict == "katoConsistent"}


def _default_x_grid(model, center, n=5, spread=0.5):
    """Singular point plus nearby neighbors where homogeneity puts the sup."""
    center = np.asarray(center, dtype=float)
    pts = [center]
    for k in range(1, n):
        xi = np.zeros(model.dim)
        xi[(k - 1) % model.dim] = spread * k / n
        pts.append(model.exp(center, xi))
    return np.asarray(pts)


# ----------------------------------------------------------------------
# Khas'minskii constants


def khasminskii_constants(model, f: ScalarField, x_grid=None, target=0.45,
                          strategy="quadrature", sup_bound=None,
                          s_min=1e-6) -> KhasminskiiConstants:
    """Find t0 with C(|v|, t0) < target < 1/2 by bisection on the quadrature
    value (or the sup-norm bound C <= ||v||_inf * s for bounded fields) and
    return the exponent log(1/(1 - C))/t0 with prefactor exactly 2."""
    if strategy == "sup_norm":
        if sup_bound is None:
            raise ValueError("sup_norm strategy needs the field's sup bound")
        t0 = target / float(sup_bound)
        c0 = float(sup_bound) * t0
        return KhasminskiiConstants(t0=t0, c_at_t0=c0, cv=math.log(1.0 / (1.0 - c0)) / t0)
    if x_grid is None:
        c = f.radial_center if f.radial_center is not None else model.origin()
        x_grid = _default_x_grid(model, c)

    def C(s):
        return kato_sup_integral(model, f, s, x_grid, refine_check=False)["value"]

    s = 1.0
    while (c0 := C(s)) >= target:
        s *= 0.5
        if s < s_min:
            raise ValueError("no t0 with small sup integral found above s_min; "
                             "potential not Kato-tractable at this resolution")
    return KhasminskiiConstants(t0=s, c_at_t0=c0, cv=math.log(1.0 / (1.0 - c0)) / s)


def khasminskii_check(model, f: ScalarField, constants: KhasminskiiConstants,
                      t_grid, x_grid, n_paths, h, key: RngKey, workers=1):
    """Empirical verification: mean exp(int |v|) 1_alive <= 2 e^{t cv} + 3 se
    at every grid point and time; grid point j owns paths [j n_paths,
    (j+1) n_paths) of one grid run.  The singular integrand is capped at
    1/h along paths (cap only lowers the left side)."""
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    ts = np.take(*time_grid(float(t_grid[-1]), h, t_grid[:-1]))  # snapshot times

    def moments(res):
        w = (np.exp(res.integrals[(0, 1)]) * res.alive).reshape(len(ts), -1, n_paths)
        return w.mean(axis=2), w.std(axis=2, ddof=1) / math.sqrt(n_paths)

    mean, se = _grid_reduce(
        lambda x0, k: run_ensemble(model, x0, float(t_grid[-1]), h, k, len(x0),
                                   scalar_fields=(AbsField(f),), checkpoints=t_grid[:-1],
                                   workers=workers), moments, x_grid, n_paths, key)
    bound = constants.bound(ts)
    passed = mean <= bound[:, None] + 3.0 * se
    rows = [{"x_index": j, "t": ts.tolist(), "mean": mean[:, j].tolist(),
             "stderr": se[:, j].tolist(), "bound": bound.tolist(), "passed": passed[:, j].tolist()}
            for j in range(len(x_grid))]
    return {"passed": bool(np.all(passed)), "rows": rows, "constants": constants}
