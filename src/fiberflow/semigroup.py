"""Feynman-Kac estimators and the semigroup theorem checkers.

Estimators produce a Monte Carlo `Estimate` (value, standard error, sample
count, discretization echo).  Scalar weights use the trapezoid/sub-step
time integral of the potential; vector weights use the exponential-product
holonomy and the accumulated transport.  Every vector estimator also
carries the left-point integral of the scalar floor, and asserts the
per-sample domination inequality

    || holonomy * transport^{-1} f ||  <=  exp(-int floor) * ||f(B_t)||

on every run: for the product integrator this is an identity up to matrix
exponential tolerance, so a violation is a bug, not noise.

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
from .paths import run_ensemble
from .potentials import OneForm, PotentialSpec, ScalarField, SectionSpec
from .rng import RngKey

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
              key: RngKey, checkpoints=(), workers=1,
              assert_domination=True) -> Estimate:
    """E[V_t transport_t^{-1} f(B_t) 1_{t<zeta}] with the holonomy weight;
    also records the scalar comparison weight e^{-int floor} per sample and
    asserts the per-sample domination inequality."""
    V = _as_potential(V)
    d = V.rank
    if bundle is None:
        bundle = trivial_bundle(d)
    res = run_ensemble(model, x, t, h, key, n, bundle=bundle, potential=V,
                       checkpoints=checkpoints, workers=workers)
    samples, floor_w, fnorm = _vector_samples(res, f, d)
    if assert_domination:
        _assert_domination(samples, floor_w, fnorm, res.alive)
    mean, se = _reduce(samples[-1])
    out = Estimate(mean, se, n, h, key.seed, res.alive_fraction(),
                   extras={"floor_weight_mean": float((floor_w[-1] * res.alive[-1]).mean())})
    if checkpoints:
        means, ses = zip(*(_reduce(samples[i]) for i in range(samples.shape[0])))
        out.extras["per_time"] = {"times": res.snap_times.tolist(),
                                  "value": [np.asarray(mv).tolist() for mv in means],
                                  "stderr": [np.asarray(sv).tolist() for sv in ses]}
    return out


def _vector_samples(res, f: SectionSpec, d):
    """Per-checkpoint samples V_t acc^H f(B_t) (zeroed on dead paths),
    plus the floor weights e^{-int floor} and ||f(B_t)||."""
    fe = f(res.points)  # (T, N) or (T, N, d)
    if d == 1 and fe.ndim == 2:
        fe = fe[..., None]
    if res.transport is not None:
        pulled = np.einsum("tnji,tnj->tni", res.transport.conj(), fe)
    else:
        pulled = fe
    samples = np.einsum("tnij,tnj->tni", res.holonomy, pulled)
    samples = samples * res.alive[..., None]
    floor_w = np.exp(-res.floor_integral)
    fnorm = np.linalg.norm(fe, axis=-1)
    if d == 1:
        samples = samples[..., 0]
    return samples, floor_w, fnorm


def _assert_domination(samples, floor_w, fnorm, alive):
    snorm = np.abs(samples) if samples.ndim == 2 else np.linalg.norm(samples, axis=-1)
    rhs = floor_w * fnorm * alive
    margin = snorm - rhs
    worst = float(margin.max(initial=0.0))
    if worst > DOMINATION_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0))):
        idx = np.unravel_index(int(np.argmax(margin)), margin.shape)
        raise RuntimeError(
            f"per-sample domination violated by {worst:.3e} at checkpoint {idx[0]}, "
            f"path {idx[1]}: integrator bug")


def fk_magnetic(model, beta: Optional[OneForm], v, f: SectionSpec, x, t, h, n, key: RngKey,
                checkpoints=(), workers=1) -> Estimate:
    """E[e^{-int v + i int beta(dB)} f(B_t) 1_{t<zeta}], midpoint rule for
    the Stratonovich phase; beta = None is fk_scalar."""
    res, weights = _scalar_weights(model, v, x, t, h, n, key, beta, checkpoints, workers)
    samples = weights * f(res.points)
    mean, se = _reduce(samples[-1])
    out = Estimate(mean, se, n, h, key.seed, res.alive_fraction(), extras={})
    if checkpoints:
        means, ses = zip(*(_reduce(samples[i]) for i in range(samples.shape[0])))
        out.extras["per_time"] = {"times": res.snap_times.tolist(),
                                  "value": list(means), "stderr": list(ses)}
    return out


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
    rng_stream = key.child(INNER_STREAM_GAP)
    from .rng import stream as _stream

    rng = _stream(rng_stream)
    if f1.norm_bound is None:
        raise ValueError("rejection sampling needs f1.norm_bound")
    bound = f1.norm_bound
    pts = []
    target = n
    tries = 0
    vol = None
    is_compact = True
    try:
        model.quadrature(8)
    except NotImplementedError:
        is_compact = False
    if not is_compact:
        if radius is None:
            raise ValueError("noncompact model: supply a sampling radius for f1")
        vol = (2.0 * radius) ** model.dim
    def fiber_norm(pts_):
        vals = np.asarray(f1(pts_))
        return np.abs(vals) if vals.ndim == pts_.ndim - 1 else np.linalg.norm(vals, axis=-1)

    while len(pts) < target:
        tries += 1
        if tries > 4000:
            raise RuntimeError("rejection sampling failed; f1 too peaked for the box")
        m = max(1024, target)
        if is_compact:
            cand = model.volume_sample(rng, m)
        else:
            cand = rng.uniform(-radius, radius, size=(m, model.coord_dim))
        dens = fiber_norm(cand)
        if np.any(dens > bound * (1 + 1e-9)):
            raise ValueError("f1 exceeds its declared norm bound")
        keep = cand[rng.uniform(0.0, bound, size=m) < dens]
        pts.append(keep)
        pts_flat = np.concatenate(pts)
        if len(pts_flat) >= target:
            pts = [pts_flat[:target]]
            break
    pts = pts[0]
    if is_compact:
        qpts, qw = model.quadrature(64)
        Z = float(np.sum(qw * fiber_norm(qpts)))
    else:
        # plain Monte Carlo normalization over the box
        m = 200000
        cand = rng.uniform(-radius, radius, size=(m, model.coord_dim))
        Z = float(np.mean(fiber_norm(cand)) * vol)
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
        d = V.rank
        res = run_ensemble(model, starts, tmax, h, key, n, bundle=bundle,
                           potential=V, checkpoints=cps, workers=workers)
        vec, _, _ = _vector_samples(res, f2, d)
        f1e = f1(starts)
        if f1e.ndim == 1:
            f1e = f1e[:, None]
        norm1 = np.linalg.norm(f1e, axis=-1)
        dirn = np.where(norm1[:, None] > 0, f1e / np.maximum(norm1, 1e-300)[:, None], 0.0)
        samples = Z * np.einsum("nj,tnj->tn", dirn.conj(), vec)
    means, ses = zip(*(_reduce(samples[i]) for i in range(samples.shape[0])))
    means = np.asarray(means)
    ses = np.asarray(ses)
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
    V = _as_potential(V)
    d = V.rank
    if bundle is None:
        bundle = trivial_bundle(d)
    res = run_ensemble(model, x, float(t_nodes[-1]), h, key, n, bundle=bundle,
                       potential=V, checkpoints=t_nodes[:-1], workers=workers)
    samples, floor_w, fnorm = _vector_samples(res, f, d)
    _assert_domination(samples, floor_w, fnorm, res.alive)
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
    scalar_ref = np.tensordot(coeffs, (floor_w * res.alive * fnorm)[order], axes=(0, 0))
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
    V = _as_potential(V)
    d = V.rank
    if bundle is None:
        bundle = trivial_bundle(d)
    res = run_ensemble(model, x, t, h, key, n, bundle=bundle, potential=V,
                       workers=workers)
    samples, floor_w, fnorm = _vector_samples(res, f, d)
    snorm = np.abs(samples[-1]) if samples.ndim == 2 else np.linalg.norm(samples[-1], axis=-1)
    rhs = (floor_w * fnorm * res.alive)[-1]
    margins = snorm - rhs
    viol = int(np.sum(margins > DOMINATION_TOL * (1.0 + np.abs(rhs))))
    lhs_mean, lhs_se = _reduce(snorm)
    rhs_mean, rhs_se = _reduce(rhs)
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
    ok = True
    for probe in probes:
        fv = np.asarray(probe(pts))
        Ptf = gram @ (w * fv)
        for (p, q) in pairs:
            np_ = _lp_norm(fv, w, p)
            nq = _lp_norm(Ptf, w, q)
            bound = Ct ** ((1.0 / p) - (1.0 / q if np.isfinite(q) else 0.0))
            passed = nq <= bound * np_ + tol * max(1.0, bound * np_)
            ok = ok and passed
            results.append({"p": p, "q": (None if not np.isfinite(q) else q),
                            "ratio": float(nq / np_), "bound": float(bound),
                            "passed": bool(passed)})
    return {"passed": ok, "C_t": Ct, "pairs": results}


def _lp_norm(vals, w, p):
    a = np.abs(vals)
    if not np.isfinite(p):
        return float(a.max())
    return float(np.sum(w * a**p) ** (1.0 / p))


def smoothing_norm_bound(model, V, t, q, probes, x_grid, h, n, key: RngKey,
                         constants: KhasminskiiConstants, workers=1):
    """Eq-u1-style bound check: for L2-normalized probes f,
    ||e^{-tH(V)} f||_q <= sqrt(2) C_t^{1/2 - 1/q} e^{t D} + 3 se with
    D = C(2|V^(2)|)/2 realized through the Khas'minskii exponent of the
    doubled negative part.  q = inf maximizes over the x-grid; q = 2 uses
    the grid quadrature weights."""
    V = _as_potential(V)
    d = V.rank
    for f in probes:
        if f.l2_norm is None or abs(f.l2_norm - 1.0) > 1e-6:
            raise ValueError("probes must be L2-normalized (l2_norm == 1)")
    Ct = float(model.sup_heat_kernel(t))
    D = constants.cv / 2.0
    bound = math.sqrt(2.0) * Ct ** (0.5 - (1.0 / q if np.isfinite(q) else 0.0)) * math.exp(t * D)
    pts, w = x_grid
    # one path set per grid point, shared by every probe
    vals = np.zeros((len(probes), len(pts)))
    ses = np.zeros((len(probes), len(pts)))
    for j, x in enumerate(pts):
        res = run_ensemble(model, x, t, h, key.child(j * n), n,
                           bundle=trivial_bundle(d) if d > 1 else None,
                           potential=V, workers=workers)
        for pi, f in enumerate(probes):
            samples, floor_w, fnorm = _vector_samples(res, f, d)
            _assert_domination(samples, floor_w, fnorm, res.alive)
            mean, se = _reduce(samples[-1])
            vals[pi, j] = float(np.linalg.norm(np.atleast_1d(mean)))
            ses[pi, j] = float(np.max(np.atleast_1d(se)))
    rows = []
    ok = True
    for pi in range(len(probes)):
        if np.isfinite(q):
            norm_q = float(np.sum(w * vals[pi] ** q) ** (1.0 / q))
            se_q = float(np.max(ses[pi]))
        else:
            jmax = int(np.argmax(vals[pi]))
            norm_q = float(vals[pi, jmax])
            se_q = float(ses[pi, jmax])
        passed = norm_q <= bound + 3.0 * se_q
        ok = ok and passed
        rows.append({"probe": pi, "norm_q": norm_q, "stderr": se_q, "passed": bool(passed)})
    return {"passed": ok, "bound": bound, "C_t": Ct, "D": D, "rows": rows,
            "q": (None if not np.isfinite(q) else q)}


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
    outer = run_ensemble(model, x, s, h, key, n_out, bundle=bundle,
                         potential=_as_potential(V_outer) if V_outer is not None else None,
                         workers=workers)
    y = np.repeat(outer.points[-1], n_in, axis=0)
    inner = run_ensemble(model, y, t, h, key.child(INNER_STREAM_GAP), n_out * n_in,
                         bundle=bundle, potential=V_inner, workers=workers)
    vec, _, _ = _vector_samples(inner, f, d)
    u = vec[-1].reshape(n_out, n_in, -1).mean(axis=1)  # inner estimates at each y_i
    if outer.holonomy is not None:
        W = outer.holonomy[-1]
    else:
        W = np.broadcast_to(np.eye(d, dtype=complex), (n_out, d, d))
    if outer.transport is not None:
        pulled = np.einsum("nji,nj->ni", outer.transport[-1].conj(), u)
    else:
        pulled = u
    samples = np.einsum("nij,nj->ni", W, pulled)
    samples = samples * outer.alive[-1][:, None]
    if d == 1:
        samples = samples[..., 0]
    return samples


def semigroup_identity_check(model, bundle, V, f: SectionSpec, s, t, x, h, n,
                             key: RngKey, workers=1):
    """Q_{s+t} f(x) against the nested two-stage estimate Q_s Q_t f(x),
    within 3 combined standard errors (sqrt-split budget).  s = 0 reduces
    to the one-shot estimator with identical streams (exact match)."""
    V = _as_potential(V)
    _require_kato_decomposable(model, V)
    one = fk_vector(model, bundle, V, f, x, s + t, h, n, key, workers=workers)
    if s == 0.0:
        two_value, two_se = one.value, one.stderr
        exact = True
    else:
        n_out, n_in = _split_budget(n)
        samples = _nested_samples(model, bundle, V, V, s, t, x, n_out, n_in, h, key,
                                  f, workers=workers)
        two_value, two_se = _reduce(samples)
        exact = False
    diff = np.max(np.abs(np.atleast_1d(one.value - two_value)))
    tol = 3.0 * math.hypot(float(np.max(np.atleast_1d(one.stderr))),
                           float(np.max(np.atleast_1d(two_se))))
    return {"passed": bool(diff <= tol or exact), "difference": float(diff),
            "tolerance_3se": float(tol), "one_shot": _to_jsonable(one.value),
            "nested": _to_jsonable(two_value), "exact_degenerate": exact,
            "seed": key.seed, "h": h, "n": n}


def perturbation_formula_check(model, bundle, V, f: SectionSpec, s, t, x, h, n,
                               key: RngKey, workers=1):
    """Free flow composed with the interacting flow, Q^0_s Q^V_{t-s} f(x),
    against the single-path form E[V_s^{-1} V_t transport^{-1} f(B_t)];
    also asserts the per-sample norm bound e^{int ||V2||} ||f||_inf."""
    if not (0.0 <= s <= t):
        raise ValueError("need 0 <= s <= t")
    V = _as_potential(V)
    _require_kato_decomposable(model, V)
    d = V.rank
    if bundle is None:
        bundle = trivial_bundle(d)
    # right side: single paths, holonomy window weight
    res = run_ensemble(model, x, t, h, key, n, bundle=bundle, potential=V,
                       checkpoints=[s] if 0.0 < s < t else [], workers=workers)
    snaps = res.snap_times
    si = int(np.argmin(np.abs(snaps - s)))
    fe = f(res.points[-1])
    if d == 1 and fe.ndim == 1:
        fe = fe[:, None]
    if res.transport is not None:
        pulled = np.einsum("nji,nj->ni", res.transport[-1].conj(), fe)
    else:
        pulled = fe
    Vt = res.holonomy[-1]
    Vs = res.holonomy[si] if s > 0 else np.broadcast_to(np.eye(d, dtype=complex), Vt.shape)
    window = np.linalg.solve(Vs, Vt) if s > 0 else Vt
    rhs_samples = np.einsum("nij,nj->ni", window, pulled) * res.alive[-1][:, None]
    if f.norm_bound is not None:
        cap_rhs = np.exp(res.v2_integral[-1]) * f.norm_bound * res.alive[-1]
        worst = float((np.linalg.norm(rhs_samples, axis=-1) - cap_rhs).max())
        if worst > DOMINATION_TOL * (1.0 + float(cap_rhs.max(initial=0.0))):
            raise RuntimeError(f"perturbation integrand bound violated by {worst:.3e}")
    rhs_samples = rhs_samples[..., 0] if d == 1 else rhs_samples
    rhs_value, rhs_se = _reduce(rhs_samples)
    exact = False
    if s == 0.0 or s == t:
        # degenerate windows collapse to a one-shot estimator on the same
        # streams: V_0^{-1} V_t = V_t, and V_t^{-1} V_t = 1
        lhs_value, lhs_se = rhs_value, rhs_se
        exact = True
    else:
        n_out, n_in = _split_budget(n)
        samples = _nested_samples(model, bundle, None, V, s, t - s, x, n_out, n_in,
                                  h, key, f, workers=workers)
        lhs_value, lhs_se = _reduce(samples)
    diff = np.max(np.abs(np.atleast_1d(lhs_value - rhs_value)))
    tol = 3.0 * math.hypot(float(np.max(np.atleast_1d(lhs_se))),
                           float(np.max(np.atleast_1d(rhs_se))))
    return {"passed": bool(diff <= tol or exact), "difference": float(diff),
            "tolerance_3se": float(tol), "left": _to_jsonable(lhs_value),
            "right": _to_jsonable(rhs_value), "exact_degenerate": exact,
            "seed": key.seed, "h": h, "n": n}


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
    d = V.rank
    s_grid = np.sort(np.asarray(s_grid, dtype=float))
    # (i) holonomy deviation sup over grid, shared paths per x
    sup_dev = np.zeros(len(s_grid))
    for j, x in enumerate(grid):
        res = run_ensemble(model, x, float(s_grid[-1]), h, key.child(j * n), n,
                           bundle=bundle, potential=V,
                           checkpoints=s_grid[:-1], workers=workers)
        eye = np.eye(d)
        dev = res.holonomy - eye
        if d == 1:
            dn = np.abs(dev[..., 0, 0])
        else:
            dn = np.linalg.norm(dev, ord=2, axis=(-2, -1))
        sup_dev = np.maximum(sup_dev, np.mean(dn**2 * res.alive, axis=1))
    mono = bool(np.all(np.diff(sup_dev) >= -1e-12))
    small = bool(sup_dev[0] < decay_target)
    # (ii) modulus of continuity under refinement: a geodesic segment
    # between the grid extremes, sampled at spacing delta and delta/2 with
    # common random numbers (same streams at every start point)
    dists = model.distance(grid, grid[0])
    x_far = grid[int(np.argmax(dists))]
    seg = model.geodesic_segment(grid[0], x_far, 17)
    mod = {}
    for label, pts_seg in (("fine", seg), ("coarse", seg[::2])):
        vals = []
        for x in pts_seg:
            est = fk_vector(model, bundle, V, f, x, t, h, max(200, n // 4),
                            key, workers=workers)  # same key: common random numbers
            vals.append(np.atleast_1d(est.value))
        vals = np.asarray(vals)
        mod[label] = float(np.max(np.linalg.norm(np.diff(vals, axis=0), axis=-1)))
    ratio = mod["coarse"] / max(mod["fine"], 1e-300)
    ratio_ok = 1.0 <= ratio <= 4.0
    # (iii) global bound
    bound = None
    bound_ok = True
    if constants is not None and f.l2_norm is not None:
        Ct = float(model.sup_heat_kernel(t))
        bound = math.sqrt(2.0 * math.exp(constants.cv * t) * Ct) * f.l2_norm
        worst = 0.0
        for j, x in enumerate(grid):
            est = fk_vector(model, bundle, V, f, x, t, h, n, key.child((j + 64) * n),
                            workers=workers)
            mag = float(np.linalg.norm(np.atleast_1d(est.value)))
            se = float(np.max(np.atleast_1d(est.stderr)))
            worst = max(worst, mag - 3.0 * se)
        bound_ok = worst <= bound
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
