"""Feynman-Kac estimators and the semigroup theorem checkers.

Estimators produce a Monte Carlo `Estimate` (value, standard error, sample
count, discretization echo).  Scalar weights use the trapezoid/sub-step
time integral of the potential; vector weights use the exponential-product
holonomy and the accumulated transport.  Every vector run is built by one
helper, which also carries the left-point integral of the scalar floor and
turns an overflowing potential into NonFiniteFieldError (any other
non-finite sample is a RuntimeError); every vector estimator asserts the
per-sample domination inequality

    || holonomy * transport^{-1} f ||  <=  exp(-int floor) * ||f(B_t)||

on every sample, up to DOMINATION_TOL * (1 + exp(-int floor) ||f(B_t)||):
for the product integrator this is an identity up to matrix exponential
tolerance, so a violation is a bug, not noise.  domination_check counts
the samples that break the same rule.

A supremum over a start grid is one grid run (paths._grid_reduce) on the
grid's points, each repeated n times: point j owns paths [j n, (j+1) n),
which draw the streams a run of n paths keyed key.child(j n) would draw.
The run goes in groups of whole points, reduced per point as each group
ends, so its memory does not grow with the grid.

Comparisons (semigroup identity, perturbation formula, h-refinement,
domination) share paths wherever the two sides admit common randomness,
turning inequality checks into low-variance paired tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .bundles import BundleSpec, trivial_bundle
from .geometry import OpenSubdomain
from .kato import KhasminskiiConstants
from .paths import _grid_reduce, run_ensemble
from .potentials import NonFiniteFieldError, OneForm, PotentialSpec, ScalarField, SectionSpec
from .rng import RngKey, stream

__all__ = [
    "Estimate",
    "fk_scalar",
    "fk_vector",
    "fk_magnetic",
    "fk_estimate",
    "ground_energy",
    "resolvent_apply",
    "domination_check",
    "smoothing_norm_bound",
    "semigroup_identity_check",
    "perturbation_formula_check",
    "continuity_scan",
]

DOMINATION_TOL = 1e-9
INNER_STREAM_GAP = 1 << 40  # stream namespace for auxiliary randomness


@dataclass
class Estimate:
    value: object            # scalar / vector / matrix mean
    stderr: object           # same shape, real
    n_samples: int
    h: float
    seed: int
    alive_fraction: float
    extras: dict = dc_field(default_factory=dict)


def _reduce(samples):
    """Mean and componentwise standard error; complex variance adds the
    real and imaginary parts."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n < 2:
        return mean, np.zeros_like(np.abs(mean), dtype=float)
    var = np.var(samples.real, axis=0, ddof=1)
    if np.iscomplexobj(samples):
        var = var + np.var(samples.imag, axis=0, ddof=1)
    return mean, np.sqrt(var / n)


def _as_potential(v):
    if isinstance(v, PotentialSpec):
        return v
    if isinstance(v, ScalarField):
        return PotentialSpec.scalar(v)
    raise TypeError("potential must be a PotentialSpec or ScalarField")


def _scalar_field_of(v: PotentialSpec) -> ScalarField:
    if not v.is_scalar or len(v.terms) != 1 or np.real(v.const[0, 0]) != 0.0:
        raise ValueError("estimator needs a single-field scalar potential")
    f, P = v.terms[0]
    if abs(P[0, 0] - 1.0) > 1e-14:
        raise ValueError("scalar potential term must have unit coefficient matrix")
    return f


# ----------------------------------------------------------------------
# the three Feynman-Kac estimators


def _scalar_weights(model, v, x, t, h, n, key: RngKey, beta: Optional[OneForm],
                    checkpoints, workers):
    """(run, per-path weights e^{-int v [+ i int beta(dB)]} 1_{t<zeta}) for
    a single-field scalar potential v: trapezoid rule for v, midpoint rule
    for the Stratonovich phase."""
    vf = _scalar_field_of(_as_potential(v))
    res = run_ensemble(model, x, t, h, key, n, scalar_fields=(vf,), one_form=beta,
                       checkpoints=checkpoints, workers=workers)
    exponent = -res.integrals[(0, 1)]
    if beta is not None:
        exponent = exponent + 1j * res.line_integral
    return res, np.exp(exponent) * res.alive


def fk_scalar(model, v, f: SectionSpec, x, t, h, n, key: RngKey,
              checkpoints=(), workers=1) -> Estimate:
    """E[e^{-int v} f(B_t) 1_{t<zeta}] with the trapezoid weight rule."""
    return fk_magnetic(model, None, v, f, x, t, h, n, key, checkpoints, workers)


def fk_vector(model, bundle: Optional[BundleSpec], V, f: SectionSpec, x, t, h, n,
              key: RngKey, checkpoints=(), workers=1) -> Estimate:
    """E[V_t transport_t^{-1} f(B_t) 1_{t<zeta}] with the holonomy weight;
    also records the scalar comparison weight e^{-int floor} per sample and
    asserts the per-sample domination inequality."""
    res = _vector_run(model, bundle, V, x, t, h, n, key, checkpoints, workers)
    samples, lhs, rhs = _vector_samples(res, f(res.points))
    _assert_domination(lhs, rhs)
    floor_w = np.exp(-res.floor_integral[-1]) * res.alive[-1]
    return _estimate(samples, res, h, key, floor_weight_mean=float(floor_w.mean()))


def fk_magnetic(model, beta: Optional[OneForm], v, f: SectionSpec, x, t, h, n, key: RngKey,
                checkpoints=(), workers=1) -> Estimate:
    """E[e^{-int v + i int beta(dB)} f(B_t) 1_{t<zeta}], midpoint rule for
    the Stratonovich phase; beta = None is fk_scalar."""
    res, weights = _scalar_weights(model, v, x, t, h, n, key, beta, checkpoints, workers)
    return _estimate(weights * f(res.points), res, h, key)


def _estimate(samples, res, h, key: RngKey, **extras) -> Estimate:
    """Estimate of the last checkpoint's samples, plus a per_time record of
    every checkpoint when the run has more than one."""
    mean, se = _reduce(samples[-1])
    out = Estimate(mean, se, res.n_paths, h, key.seed, res.alive_fraction(), extras=extras)
    if len(res.snap_times) > 1:
        means, ses = zip(*(_reduce(s) for s in samples))
        out.extras["per_time"] = {"times": res.snap_times.tolist(),
                                  "value": [np.asarray(mv).tolist() for mv in means],
                                  "stderr": [np.asarray(sv).tolist() for sv in ses]}
    return out


def _vector_run(model, bundle, V, x, t, h, n, key: RngKey, checkpoints=(), workers=1):
    """run_ensemble for a vector estimator: V coerced (None is the free
    flow), a trivial bundle of V's rank when none is given.  A potential
    whose matrices or exponentials overflow raises NonFiniteFieldError."""
    if V is not None:
        V = _as_potential(V)
    if bundle is None:
        bundle = trivial_bundle(V.rank)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res = run_ensemble(model, x, t, h, key, n, bundle=bundle, potential=V,
                           checkpoints=checkpoints, workers=workers)
    if V is not None and not (np.all(np.isfinite(res.holonomy))
                              and np.all(np.isfinite(res.floor_integral))):
        raise NonFiniteFieldError(f"{V.name!r} overflowed: the holonomy or the floor "
                                  "integral is not finite")
    return res


def _weighted(holonomy, transport, fe, alive):
    """holonomy transport^H fe on live paths, 0 on dead ones, over any
    leading (checkpoint, path) axes."""
    pulled = np.einsum("...ji,...j->...i", transport.conj(), fe)
    return np.einsum("...ij,...j->...i", holonomy, pulled) * alive[..., None]


def _squeeze(samples):
    """Rank-1 samples as scalars."""
    return samples[..., 0] if samples.shape[-1] == 1 else samples


def _vector_samples(res, fe):
    """(samples, lhs, rhs) per checkpoint and path from the section values
    fe = f(res.points): samples V_t acc^H f(B_t) (zeroed on dead paths),
    their fibre norms lhs and the floor side rhs = e^{-int floor} ||f(B_t)||
    of the domination inequality."""
    fe = fe.reshape(*res.alive.shape, -1)
    samples = _weighted(res.holonomy, res.transport, fe, res.alive)
    lhs = np.abs(samples[..., 0]) if samples.shape[-1] == 1 else np.linalg.norm(samples, axis=-1)
    rhs = np.exp(-res.floor_integral) * np.linalg.norm(fe, axis=-1) * res.alive
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(rhs))):
        raise RuntimeError("non-finite vector samples: the transport, a path or the section "
                           "overflowed")
    return _squeeze(samples), lhs, rhs


def _domination_margin(lhs, rhs):
    """Per-sample margins lhs - rhs, and which of them break domination:
    margin > DOMINATION_TOL * (1 + |rhs|)."""
    margin = lhs - rhs
    return margin, margin > DOMINATION_TOL * (1.0 + np.abs(rhs))


def _assert_domination(lhs, rhs, bound="per-sample domination"):
    margin, bad = _domination_margin(lhs, rhs)
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(np.where(bad, margin, -np.inf))), margin.shape)
        where = f"checkpoint {idx[0]}, path {idx[1]}" if margin.ndim == 2 else f"path {idx[0]}"
        raise RuntimeError(f"{bound} violated by {margin[idx]:.3e} at {where}: integrator bug")


def _per_start(res, f: SectionSpec, n):
    """(||mean||, max stderr) per start point of the last-checkpoint samples
    of f on a grid run, domination asserted; point j owns paths
    [j n, (j+1) n)."""
    samples, lhs, rhs = _vector_samples(res, f(res.points))
    _assert_domination(lhs, rhs)
    s = samples[-1].reshape(samples.shape[1] // n, n, -1)  # (points, n, fibre)
    mean, se = _reduce(np.moveaxis(s, 1, 0))
    return np.linalg.norm(mean, axis=-1), se.max(axis=-1)


def _scalar_weighted(V: PotentialSpec, bundle, beta) -> bool:
    """Whether a scalar weight carries the run: a magnetic 1-form, or a
    scalar potential on a bundle without transport."""
    return beta is not None or (V.is_scalar and (bundle is None or bundle.trivial_transport))


def fk_estimate(model, bundle: Optional[BundleSpec], beta: Optional[OneForm], V,
                f: SectionSpec, x, t, h, n, key: RngKey, workers=1):
    """("magnetic" | "scalar" | "vector", Estimate): the Feynman-Kac
    estimator the inputs call for, by the rule ground_energy applies."""
    V = _as_potential(V)
    if not _scalar_weighted(V, bundle, beta):
        return "vector", fk_vector(model, bundle, V, f, x, t, h, n, key, workers=workers)
    est = fk_magnetic(model, beta, V, f, x, t, h, n, key, workers=workers)
    return ("scalar" if beta is None else "magnetic"), est


# ----------------------------------------------------------------------
# ground-state energy from the long-time log decay


def _rejection_starts(model, f1: SectionSpec, n, key: RngKey, radius=None):
    """Start points distributed as |f1| dvol / Z, by rejection from the
    uniform measure on the model (compact) or on a ball of the given
    radius (noncompact); returns (points, Z estimate)."""
    rng = stream(key.child(INNER_STREAM_GAP))
    if f1.norm_bound is None:
        raise ValueError("rejection sampling needs f1.norm_bound")
    bound = f1.norm_bound
    try:
        model.quadrature(8)
        is_compact = True
    except NotImplementedError:
        is_compact = False
        if radius is None:
            raise ValueError("noncompact model: supply a sampling radius for f1") from None

    def fiber_norm(pts_):
        vals = np.asarray(f1(pts_))
        return np.abs(vals) if vals.ndim == pts_.ndim - 1 else np.linalg.norm(vals, axis=-1)

    m = max(1024, n)
    kept, count = [], 0
    while count < n:
        if len(kept) == 4000:
            raise RuntimeError("rejection sampling failed; f1 too peaked for the box")
        if is_compact:
            cand = model.volume_sample(rng, m)
        else:
            cand = rng.uniform(-radius, radius, size=(m, model.coord_dim))
        dens = fiber_norm(cand)
        if np.any(dens > bound * (1 + 1e-9)):
            raise ValueError("f1 exceeds its declared norm bound")
        kept.append(cand[rng.uniform(0.0, bound, size=m) < dens])
        count += len(kept[-1])
    pts = np.concatenate(kept)[:n]
    if is_compact:
        qpts, qw = model.quadrature(64)
        Z = float(np.sum(qw * fiber_norm(qpts)))
    else:
        # plain Monte Carlo normalization over the box
        cand = rng.uniform(-radius, radius, size=(200000, model.coord_dim))
        Z = float(np.mean(fiber_norm(cand)) * (2.0 * radius) ** model.dim)
    return pts, Z


def ground_energy(model, v_or_V, f1: SectionSpec, f2: SectionSpec, t_grid, h, n,
                  key: RngKey, bundle=None, beta: Optional[OneForm] = None,
                  radius=None, workers=1):
    """Spectral-bottom estimate from -d/dt log <f1, e^{-tH} f2>: the
    log-functional is computed at every grid time on shared paths started
    from |f1| dvol, and the energy is minus the least-squares slope over
    the last half of the grid.  Per-time values are reported so the
    asymptotic regime can be judged."""
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if len(t_grid) < 4:
        raise ValueError("t_grid needs at least 4 points")
    V = _as_potential(v_or_V)
    starts, Z = _rejection_starts(model, f1, n, key, radius=radius)
    tmax = float(t_grid[-1])
    cps = t_grid[:-1]
    if _scalar_weighted(V, bundle, beta):
        res, wts = _scalar_weights(model, V, starts, tmax, h, n, key, beta, cps, workers)
        f1e = f1(starts)
        phase1 = np.where(np.abs(f1e) > 0, np.conj(f1e) / np.abs(f1e), 1.0)
        samples = Z * phase1[None, :] * wts * f2(res.points)
    else:
        res = _vector_run(model, bundle, V, starts, tmax, h, n, key, cps, workers)
        vec, lhs, rhs = _vector_samples(res, f2(res.points))
        _assert_domination(lhs, rhs)
        f1e = f1(starts).reshape(n, -1)
        norm1 = np.linalg.norm(f1e, axis=-1)
        dirn = np.where(norm1[:, None] > 0, f1e / np.maximum(norm1, 1e-300)[:, None], 0.0)
        samples = Z * np.einsum("nj,tnj->tn", dirn.conj(), vec.reshape(len(vec), n, -1))
    means, ses = map(np.asarray, zip(*(_reduce(s) for s in samples)))
    vals = means.real
    if np.any(vals <= 0):
        raise RuntimeError("log-functional non-positive; shrink t_max or raise n")
    if np.any(np.abs(means) < 1e-300):
        raise RuntimeError("functional underflow: all weights below 1e-300; reduce t_max")
    L = np.log(vals)
    sigma_L = ses / np.abs(vals)
    half = len(t_grid) // 2
    ts = t_grid[half:]
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    coef, *_ = np.linalg.lstsq(A, L[half:], rcond=None)
    # propagate per-time noise through the normal equations
    G = np.linalg.inv(A.T @ A) @ A.T
    slope_se = float(np.sqrt(np.sum((G[0] * sigma_L[half:]) ** 2)))
    energy = -float(coef[0])
    return {
        "energy": energy,
        "stderr": slope_se,
        "per_time": {"t": t_grid.tolist(), "log_functional": L.tolist(),
                     "stderr": sigma_L.tolist()},
        "n": n, "h": h, "seed": key.seed,
        "alive_fraction": res.alive_fraction(),
    }


# ----------------------------------------------------------------------
# resolvent powers via Laplace transform


def resolvent_apply(model, bundle, V, f: SectionSpec, x, k, lam, h, n, key: RngKey,
                    n_quad=24, workers=1) -> Estimate:
    """(H(V) + lam)^{-k} f(x) by Gauss-Laguerre quadrature of the Laplace
    transform, t^{k-1} e^{-t lam} e^{-tH} / (k-1)!, with all quadrature
    nodes sharing one path set."""
    from scipy.special import roots_genlaguerre

    if k < 1:
        raise ValueError("resolvent power k must be >= 1")
    lam = float(lam)
    if lam <= 0:
        raise ValueError("need Re(lambda) > 0 for the quadrature as scaled")
    u, w = roots_genlaguerre(n_quad, k - 1)
    keep = w >= 1e-14 * w.max()  # far nodes carry no weight but dominate cost
    u, w = u[keep], w[keep]
    t_nodes = np.sort(u / lam)
    res = _vector_run(model, bundle, V, x, float(t_nodes[-1]), h, n, key, t_nodes[:-1], workers)
    samples, lhs, rhs = _vector_samples(res, f(res.points))
    _assert_domination(lhs, rhs)
    order = np.argsort(np.argsort(u / lam))  # map node -> checkpoint row
    gam = math.gamma(k)
    coeffs = w / (lam**k * gam)
    per_path = np.tensordot(coeffs, samples[order], axes=(0, 0))
    mean, se = _reduce(per_path)
    # tail diagnostic: the largest node should contribute a negligible share
    tail_share = float(np.abs(coeffs[-1] * samples[order][-1].mean(axis=0)).max()
                       / max(np.abs(mean).max(), 1e-300))
    extras = {"t_nodes": t_nodes.tolist(), "tail_share": tail_share}
    if tail_share > 0.05:
        extras["diverging_tail"] = True
    scalar_ref = np.tensordot(coeffs, rhs[order], axes=(0, 0))
    extras["floor_resolvent_mean"] = float(scalar_ref.mean(axis=0))
    snorm = np.abs(per_path) if per_path.ndim == 1 else np.linalg.norm(per_path, axis=-1)
    extras["per_sample_resolvent_domination_margin"] = float((snorm - scalar_ref).max())
    return Estimate(mean, se, n, h, key.seed, res.alive_fraction(), extras=extras)


# ----------------------------------------------------------------------
# domination report


def domination_check(model, bundle, V, f: SectionSpec, x, t, h, n, key: RngKey,
                     workers=1):
    """Per-sample and averaged semigroup domination against the scalar
    floor, on shared paths.  The per-sample inequality is exact for the
    product integrator; the averaged inequality is reported with errors."""
    res = _vector_run(model, bundle, V, x, t, h, n, key, workers=workers)
    _, lhs, rhs = _vector_samples(res, f(res.points))
    margins, bad = _domination_margin(lhs[-1], rhs[-1])
    viol = int(np.sum(bad))
    lhs_mean, lhs_se = _reduce(lhs[-1])
    rhs_mean, rhs_se = _reduce(rhs[-1])
    return {
        "passed": viol == 0,
        "violations": viol,
        "worst_margin": float(margins.max()),
        "mean_lhs": float(lhs_mean), "mean_rhs": float(rhs_mean),
        "mean_margin_stderr": float(math.hypot(lhs_se, rhs_se)),
        "n": n, "h": h, "seed": key.seed,
    }


# ----------------------------------------------------------------------
# L2 -> Lq smoothing bounds


def heat_pq_norm_check(model, t, probes, pairs=((1, 2), (2, 2), (2, np.inf), (1, np.inf)),
                       level=32, tol=1e-6):
    """||P_t f||_q <= C_t^{1/p - 1/q} ||f||_p for probe functions on a
    compact model, all norms by quadrature; P_t acts through the kernel
    spectral series.  Each probe gives a lower bound on the operator norm,
    so every probe must satisfy every pair's inequality."""
    pts, w = model.quadrature(level)
    Ct = float(model.sup_heat_kernel(t))
    # kernel matrix via the model's closed form (homogeneous: distance only)
    gram = model.heat_kernel(t, pts[:, None, :], pts[None, :, :])
    results = []
    for probe in probes:
        fv = np.asarray(probe(pts))
        Ptf = gram @ (w * fv)
        for (p, q) in pairs:
            np_ = _lp_norm(fv, w, p)
            nq = _lp_norm(Ptf, w, q)
            bound = Ct ** ((1.0 / p) - (1.0 / q if np.isfinite(q) else 0.0))
            passed = nq <= bound * np_ + tol * max(1.0, bound * np_)
            results.append({"p": p, "q": (None if not np.isfinite(q) else q),
                            "ratio": float(nq / np_), "bound": float(bound),
                            "passed": bool(passed)})
    return {"passed": all(r["passed"] for r in results), "C_t": Ct, "pairs": results}


def _lp_norm(vals, w, p):
    a = np.abs(vals)
    if not np.isfinite(p):
        return float(a.max())
    return float(np.sum(w * a**p) ** (1.0 / p))


def smoothing_norm_bound(model, V, t, probes, x_grid, h, n, key: RngKey,
                         constants: KhasminskiiConstants, workers=1):
    """Eq-u1-style bound check: for L2-normalized probes f,
    ||e^{-tH(V)} f||_inf <= sqrt(2) C_t^{1/2} e^{t D} + 3 se with
    D = C(2|V^(2)|)/2 realized through the Khas'minskii exponent of the
    doubled negative part; the sup norm is the maximum over x_grid."""
    for f in probes:
        if f.l2_norm is None or abs(f.l2_norm - 1.0) > 1e-6:
            raise ValueError("probes must be L2-normalized (l2_norm == 1)")
    Ct = float(model.sup_heat_kernel(t))
    D = constants.cv / 2.0
    bound = math.sqrt(2.0) * Ct ** 0.5 * math.exp(t * D)
    # one path set per grid point, shared by every probe
    vals, ses = _grid_reduce(
        lambda x0, k: _vector_run(model, None, V, x0, t, h, len(x0), k, workers=workers),
        lambda res: np.stack([_per_start(res, f, n) for f in probes], axis=1),
        np.asarray(x_grid, dtype=float), n, key)
    rows = [{"probe": pi, "norm_q": float(vals[pi, j]), "stderr": float(ses[pi, j]),
             "passed": bool(vals[pi, j] <= bound + 3.0 * ses[pi, j])}
            for pi, j in enumerate(np.argmax(vals, axis=1))]
    return {"passed": all(r["passed"] for r in rows), "bound": bound, "C_t": Ct, "D": D,
            "rows": rows, "q": None}


# ----------------------------------------------------------------------
# pointwise semigroup identity and the perturbation formula


def _nested_samples(model, bundle, V_outer, V_inner, s, t, x, n_out, n_in, h,
                    key: RngKey, f: SectionSpec, workers=1):
    """Outer flow to time s (potential V_outer), then from every outer
    endpoint an independent inner flow to time t (potential V_inner); the
    composite weight follows the multiplicative transport property.
    Returns per-outer-path samples (n_out, d) complex."""
    V_inner = _as_potential(V_inner)
    d = V_inner.rank
    if bundle is None:
        bundle = trivial_bundle(d)
    outer = _vector_run(model, bundle, V_outer, x, s, h, n_out, key, workers=workers)
    y = np.repeat(outer.points[-1], n_in, axis=0)
    inner = _vector_run(model, bundle, V_inner, y, t, h, n_out * n_in,
                        key.child(INNER_STREAM_GAP), workers=workers)
    vec, lhs, rhs = _vector_samples(inner, f(inner.points))
    _assert_domination(lhs, rhs)
    u = vec[-1].reshape(n_out, n_in, -1).mean(axis=1)  # inner estimates at each y_i
    W = (np.broadcast_to(np.eye(d, dtype=complex), (n_out, d, d)) if outer.holonomy is None
         else outer.holonomy[-1])
    return _squeeze(_weighted(W, outer.transport[-1], u, outer.alive[-1]))


def semigroup_identity_check(model, bundle, V, f: SectionSpec, s, t, x, h, n,
                             key: RngKey, workers=1):
    """Q_{s+t} f(x) against the nested two-stage estimate Q_s Q_t f(x),
    within 3 combined standard errors (sqrt-split budget).  s = 0 reduces
    to the one-shot estimator with identical streams (exact match)."""
    V = _as_potential(V)
    _require_kato_decomposable(model, V)
    one = fk_vector(model, bundle, V, f, x, s + t, h, n, key, workers=workers)
    exact = bool(s == 0.0)
    two_value, two_se = (one.value, one.stderr) if exact else _reduce(_nested_samples(
        model, bundle, V, V, s, t, x, *_split_budget(n), h, key, f, workers=workers))
    return _three_se_report(("one_shot", one.value, one.stderr), ("nested", two_value, two_se),
                            exact, key, h, n)


def perturbation_formula_check(model, bundle, V, f: SectionSpec, s, t, x, h, n,
                               key: RngKey, workers=1):
    """Free flow composed with the interacting flow, Q^0_s Q^V_{t-s} f(x),
    against the single-path form E[V_s^{-1} V_t transport^{-1} f(B_t)];
    also asserts the per-sample norm bound e^{int ||V2||} ||f||_inf."""
    if not (0.0 <= s <= t):
        raise ValueError("need 0 <= s <= t")
    V = _as_potential(V)
    _require_kato_decomposable(model, V)
    # right side: single paths, holonomy window weight
    res = _vector_run(model, bundle, V, x, t, h, n, key, [s] if 0.0 < s < t else [], workers)
    fe = f(res.points)
    _assert_domination(*_vector_samples(res, fe)[1:])
    Vt = res.holonomy[-1]
    si = int(np.argmin(np.abs(res.snap_times - s)))
    window = np.linalg.solve(res.holonomy[si], Vt) if s > 0 else Vt
    rhs_samples = _weighted(window, res.transport[-1], fe[-1].reshape(n, -1), res.alive[-1])
    if f.norm_bound is not None:
        cap = np.exp(res.v2_integral[-1]) * f.norm_bound * res.alive[-1]
        _assert_domination(np.linalg.norm(rhs_samples, axis=-1), cap,
                           "perturbation integrand bound")
    rhs_value, rhs_se = _reduce(_squeeze(rhs_samples))
    # degenerate windows collapse to a one-shot estimator on the same
    # streams: V_0^{-1} V_t = V_t, and V_t^{-1} V_t = 1
    exact = bool(s == 0.0 or s == t)
    lhs_value, lhs_se = (rhs_value, rhs_se) if exact else _reduce(_nested_samples(
        model, bundle, None, V, s, t - s, x, *_split_budget(n), h, key, f, workers=workers))
    return _three_se_report(("left", lhs_value, lhs_se), ("right", rhs_value, rhs_se),
                            exact, key, h, n)


def _three_se_report(a, b, exact, key: RngKey, h, n):
    """Whether the estimates a = (name, value, stderr) and b agree within 3
    combined standard errors; exact marks two sides on identical streams."""
    (name_a, value_a, se_a), (name_b, value_b, se_b) = a, b
    diff = float(np.max(np.abs(np.atleast_1d(value_a - value_b))))
    tol = 3.0 * math.hypot(float(np.max(np.atleast_1d(se_a))), float(np.max(np.atleast_1d(se_b))))
    return {"passed": bool(diff <= tol or exact), "difference": diff, "tolerance_3se": tol,
            name_a: _to_jsonable(value_a), name_b: _to_jsonable(value_b),
            "exact_degenerate": exact, "seed": key.seed, "h": h, "n": n}


def _split_budget(n):
    """sqrt(n) outer x sqrt(n) inner paths; balanced variance for the
    nested comparisons."""
    n_out = int(math.sqrt(n))
    n_in = n // max(n_out, 1)
    if n_out < 2 or n_in < 2:
        raise ValueError(f"nested estimator budget n={n} starves the inner stage")
    return n_out, n_in


def _require_kato_decomposable(model, V: PotentialSpec):
    if isinstance(model, OpenSubdomain):
        raise ValueError("pointwise identity checks need a complete model")
    if V.class_tag == "locallyIntegrable":
        raise ValueError("potential negative part is not tagged Kato; refused")


def _to_jsonable(v):
    a = np.asarray(v)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


# ----------------------------------------------------------------------
# continuity scan


def continuity_scan(model, bundle, V, f: SectionSpec, t, grid, h, n, key: RngKey,
                    s_grid=(1e-1, 1e-2, 1e-3), constants: Optional[KhasminskiiConstants] = None,
                    decay_target=0.05, workers=1):
    """Three-part continuity report over a compact grid:
    (i) sup_x E||1 - V_s||^2 decreasing over the s-grid and small at the
    finest s; (ii) the discrete modulus of continuity of Q_t f shrinks
    proportionally under grid refinement (common random numbers);
    (iii) the global bound sup ||Q_t f|| <= sqrt(2 e^{Ct} sup p_t) ||f||."""
    V = _as_potential(V)
    _require_kato_continuity(V)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if len(grid) < 32:
        raise ValueError("continuity scan needs a grid of at least 32 points")
    s_grid = np.sort(np.asarray(s_grid, dtype=float))

    def deviation(res):  # E||1 - V_s||^2 per s and grid point
        dev = res.holonomy - np.eye(V.rank)
        dn = np.abs(dev[..., 0, 0]) if V.rank == 1 else np.linalg.norm(dev, ord=2, axis=(-2, -1))
        return ((dn**2 * res.alive).reshape(len(s_grid), -1, n).mean(axis=2),)

    # (i) holonomy deviation sup over grid; point j owns paths [j n, (j+1) n)
    sup_dev = _grid_reduce(lambda x0, k: _vector_run(model, bundle, V, x0, float(s_grid[-1]), h,
                                                     len(x0), k, s_grid[:-1], workers),
                           deviation, grid, n, key)[0].max(axis=1)
    mono = bool(np.all(np.diff(sup_dev) >= -1e-12))
    small = bool(sup_dev[0] < decay_target)
    # (ii) modulus of continuity under refinement: a geodesic segment
    # between the grid extremes, sampled at spacing delta and, every other
    # point, 2 delta, with common random numbers (the same key at every point)
    dists = model.distance(grid, grid[0])
    x_far = grid[int(np.argmax(dists))]
    seg = model.geodesic_segment(grid[0], x_far, 17)
    fine = np.asarray([np.atleast_1d(fk_vector(model, bundle, V, f, x, t, h, max(200, n // 4),
                                               key, workers=workers).value) for x in seg])
    mod = {label: float(np.max(np.linalg.norm(np.diff(vals, axis=0), axis=-1)))
           for label, vals in (("fine", fine), ("coarse", fine[::2]))}
    ratio = mod["coarse"] / max(mod["fine"], 1e-300)
    ratio_ok = 1.0 <= ratio <= 4.0
    # (iii) global bound, on streams past part (i)'s, never before its 64th point's
    bound = None
    bound_ok = True
    if constants is not None and f.l2_norm is not None:
        Ct = float(model.sup_heat_kernel(t))
        bound = math.sqrt(2.0 * math.exp(constants.cv * t) * Ct) * f.l2_norm
        mags, ses = _grid_reduce(
            lambda x0, k: _vector_run(model, bundle, V, x0, t, h, len(x0), k, workers=workers),
            lambda res: _per_start(res, f, n), grid, n, key.child(max(64, len(grid)) * n))
        bound_ok = max(0.0, float(np.max(mags - 3.0 * ses))) <= bound
    return {
        "passed": bool(mono and small and ratio_ok and bound_ok),
        "holonomy_deviation": {"s": s_grid.tolist(), "sup_E_norm_sq": sup_dev.tolist(),
                               "monotone": mono, "small_at_finest": small},
        "modulus": {"max_adjacent_fine": mod["fine"], "max_adjacent_coarse": mod["coarse"],
                    "ratio": ratio, "within_factor_2": ratio_ok},
        "global_bound": {"bound": bound, "passed": bound_ok},
        "seed": key.seed, "h": h, "n": n,
    }


def _require_kato_continuity(V: PotentialSpec):
    if V.class_tag == "locallyIntegrable":
        raise ValueError("continuity scan requires a Kato-decomposable potential; refused")
