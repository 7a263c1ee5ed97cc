"""Brownian path sampling with lifetime, parallel transport and weights.

The sampler realizes the geodesic random walk x_{k+1} = exp_{x_k}(sqrt(h) xi_k)
with standard Gaussian frame coefficients xi_k; on the catalog models the
exponential map is exact, so the chain restricted to the grid is exactly the
time-h skeleton of Brownian motion (generator Delta/2).  Paths on open
subdomains are killed at the first grid point outside (bias O(sqrt(h)),
resolved by h-refinement in the estimator tests).

This module is the package's one path engine: everything an estimator
consumes is produced in one vectorized pass over a block of paths:
endpoints, alive indicators, trapezoid time-integrals of scalar fields
(with 4-point sub-step sampling and the 1/h cap at declared singular
points), Stratonovich line integrals of 1-forms (geodesic midpoint rule),
the potential holonomy (exponential-product integrator, left-point rule),
the accumulated transport, and left-point integrals of the scalar floor,
all snapshotted at requested checkpoint times.  A checkpoint at every grid
time gives a whole path, which is how `--dump-paths` and the tests read
single paths.  Each step evaluates V(x) once: the matrix exponential also
returns the smallest eigenvalue of the transported generator, which is the
floor (and gives ||V^(2)||) unless the potential declares its own
floor_fn.  Every non-trivial bundle is transported through
BundleSpec.step_transport into one (B, d, d) accumulator, real while the
step matrices are (the tangent bundle) and complex only in its snapshots.

Determinism contract: path i draws from the Philox stream (seed, i), so
estimates depend only on (seed, n_paths); blocks and process workers only
regroup the computation.  A block draws its increments with rng.normals,
row for row the same numbers as stream(key.child(i)).standard_normal((K, m)).
Reductions happen in path-index order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bundles import BundleSpec, stratonovich_increment
from .geometry import ManifoldModel, OpenSubdomain
from .matexp import expm_neg_hermitian, small_matmul
from .potentials import OneForm, PotentialSpec, ScalarField
from .rng import RngKey, normals
from .rng import stream  # noqa: F401  (bench/layers.py wraps paths.stream by name)

__all__ = [
    "EnsembleResult",
    "run_ensemble",
    "exit_probability",
    "time_grid",
]

_SUBSTEP_FRACS = (0.125, 0.375, 0.625, 0.875)
_BLOCK_BUDGET = 16_000_000  # floats of Gaussian increments held per block


def time_grid(t, h, checkpoints=()):
    """Uniform grid of step h on [0, t] merged with checkpoint times.

    Returns (times, snap_indices) where snap_indices locates each
    checkpoint (and t itself as the last entry) in the grid."""
    t = float(t)
    h = float(h)
    if t < 0 or (t > 0 and h <= 0):
        raise ValueError("need t >= 0 and h > 0")
    checkpoints = sorted(float(c) for c in checkpoints)
    if any(c < 0 or c > t + 1e-12 for c in checkpoints):
        raise ValueError("checkpoints must lie in [0, t]")
    tol = 1e-9 * max(1.0, t)
    if t == 0.0:
        return np.array([0.0]), [0 for _ in checkpoints] + [0]
    n_whole = int(math.floor(t / h + 1e-9))
    base = np.arange(n_whole + 1) * h
    pts = np.concatenate([base, np.asarray(checkpoints, dtype=float), [t]])
    pts = np.sort(pts[(pts >= -tol) & (pts <= t + tol)])
    keep = [0.0]
    for p in pts[1:]:
        if p - keep[-1] > tol:
            keep.append(p)
    times = np.asarray(keep)
    times[-1] = t
    snap_idx = []
    for c in list(checkpoints) + [t]:
        i = int(np.argmin(np.abs(times - c)))
        if abs(times[i] - c) > tol:
            raise ValueError(f"checkpoint {c} not representable on the grid")
        snap_idx.append(i)
    return times, snap_idx


# ----------------------------------------------------------------------
# vectorized ensembles


@dataclass
class EnsembleResult:
    """Per-path outputs at each checkpoint time (axis 0 = checkpoints,
    axis 1 = path index).  Dead paths are frozen at their last inside
    point and excluded from further accumulation."""

    snap_times: np.ndarray
    alive: np.ndarray
    points: np.ndarray
    integrals: dict = field(default_factory=dict)  # (field_idx, stride) -> (T, N)
    line_integral: Optional[np.ndarray] = None
    holonomy: Optional[np.ndarray] = None     # (T, N, d, d)
    transport: Optional[np.ndarray] = None    # (T, N, d, d) accumulated
    floor_integral: Optional[np.ndarray] = None  # left-point sum of scalar floor
    v2_integral: Optional[np.ndarray] = None     # left-point sum of ||V^(2)||
    death_step: Optional[np.ndarray] = None

    @property
    def n_paths(self):
        return self.alive.shape[1]

    def alive_fraction(self, snap=-1):
        return float(np.mean(self.alive[snap]))


def run_ensemble(
    model: ManifoldModel,
    x0,
    t,
    h,
    key: RngKey,
    n_paths: int,
    *,
    bundle: Optional[BundleSpec] = None,
    scalar_fields: Sequence[ScalarField] = (),
    strides: Sequence[int] = (1,),
    one_form: Optional[OneForm] = None,
    potential: Optional[PotentialSpec] = None,
    track_floor: bool = False,
    track_v2norm: bool = False,
    checkpoints: Sequence[float] = (),
    workers: int = 1,
) -> EnsembleResult:
    """Run n_paths killed Brownian paths and accumulate the requested
    weights.  x0 is a single start point or an (n_paths, cdim) array of
    per-path starts.  Results depend only on (key.seed, stream offsets,
    n_paths), never on block size or worker count."""
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    if bundle is not None:
        bundle.validate_model(model)
    if potential is not None and bundle is not None and potential.rank != bundle.rank:
        raise ValueError("potential rank does not match bundle rank")
    if (track_floor or track_v2norm) and potential is None:
        raise ValueError("floor tracking requires a potential")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (n_paths, x0.shape[0]))
    if x0.shape[0] != n_paths:
        raise ValueError("per-path starts must have length n_paths")
    if not np.all(model.contains(x0)):
        raise ValueError("some start points lie outside the domain")
    times, snap_idx = time_grid(t, h, checkpoints)
    strides = tuple(int(s) for s in strides)
    if strides != (1,):
        K = len(times) - 1
        uniform = K > 0 and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-9, atol=0)
        if not uniform or any(K % s for s in strides):
            raise ValueError("integration strides require a uniform grid that each stride divides")
        if any(f.singular for f in scalar_fields) and max(strides) > 1:
            raise ValueError("strides > 1 are not supported for singular fields")

    K = len(times) - 1
    m = model.dim
    per_path = max(K * m, 1)
    block = int(max(16, min(8192, _BLOCK_BUDGET // per_path)))
    ranges = [(i, min(i + block, n_paths)) for i in range(0, n_paths, block)]
    cap = (1.0 / h) if h > 0 else None
    task = dict(
        model=model, times=times, snap_idx=snap_idx, key=key, bundle=bundle,
        scalar_fields=tuple(scalar_fields), strides=strides, one_form=one_form,
        potential=potential, track_floor=track_floor, track_v2norm=track_v2norm,
        cap=cap,
    )
    args = [(task, x0[i0:i1], i0) for (i0, i1) in ranges]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_block_worker, args))
    else:
        parts = [_block_worker(a) for a in args]
    return _concat_results(parts, times, snap_idx)


def _block_worker(arg):
    task, x0blk, i0 = arg
    return _run_block(x0blk, i0, **task)


def _concat_results(parts, times, snap_idx):
    out = parts[0]
    if len(parts) > 1:
        join = lambda name: (
            None if getattr(parts[0], name) is None
            else np.concatenate([getattr(p, name) for p in parts], axis=1)
        )
        out = EnsembleResult(
            snap_times=parts[0].snap_times,
            alive=join("alive"),
            points=join("points"),
            integrals={k: np.concatenate([p.integrals[k] for p in parts], axis=1)
                       for k in parts[0].integrals},
            line_integral=join("line_integral"),
            holonomy=join("holonomy"),
            transport=join("transport"),
            floor_integral=join("floor_integral"),
            v2_integral=join("v2_integral"),
            death_step=None if parts[0].death_step is None
            else np.concatenate([p.death_step for p in parts]),
        )
    return out


def _run_block(
    x0, i0, *, model, times, snap_idx, key, bundle, scalar_fields, strides,
    one_form, potential, track_floor, track_v2norm, cap,
):
    B = x0.shape[0]
    K = len(times) - 1
    m = model.dim
    dts = np.diff(times)
    snap_set = {}
    for pos, idx in enumerate(snap_idx):
        snap_set.setdefault(idx, []).append(pos)
    T = len(snap_idx)

    incs = normals(key.child(i0), B, (K, m))

    d = bundle.rank if bundle is not None else (potential.rank if potential is not None else 1)
    track_transport = bundle is not None
    track_holonomy = potential is not None

    x = x0.copy()
    alive = np.ones(B, dtype=bool)
    death = np.full(B, -1, dtype=np.int64)
    is_domain = isinstance(model, OpenSubdomain)

    n_f = len(scalar_fields)
    accs = np.zeros((n_f, len(strides), B))
    v_prev = np.zeros((n_f, len(strides), B))
    for i, f in enumerate(scalar_fields):
        if not f.singular:
            v_prev[i, :, :] = f(x, cap=cap)
    line = np.zeros(B) if one_form is not None else None
    if track_holonomy:
        # scalar potentials commute with the (unitary) transport, so the
        # holonomy reduces to exp of the left-point integral of v
        if potential.is_scalar:
            hol_log = np.zeros(B)
            hol = None
        else:
            hol_log = None
            hol = np.broadcast_to(np.eye(d, dtype=complex), (B, d, d)).copy()
    acc = None
    if track_transport and not bundle.trivial_transport:
        acc = np.broadcast_to(np.eye(d), (B, d, d)).copy()  # a complex step promotes it
    floor_acc = np.zeros(B) if track_floor else None
    v2_acc = np.zeros(B) if track_v2norm else None

    # snapshot storage
    snap_alive = np.zeros((T, B), dtype=bool)
    snap_points = np.zeros((T, B, x.shape[1]))
    snap_ints = np.zeros((n_f, len(strides), T, B))
    snap_line = np.zeros((T, B)) if one_form is not None else None
    snap_hol = np.zeros((T, B, d, d), dtype=complex) if track_holonomy else None
    snap_acc = np.zeros((T, B, d, d), dtype=complex) if track_transport else None
    snap_floor = np.zeros((T, B)) if track_floor else None
    snap_v2 = np.zeros((T, B)) if track_v2norm else None

    def take_snapshot(idx):
        for pos in snap_set.get(idx, ()):
            snap_alive[pos] = alive
            snap_points[pos] = x
            snap_ints[:, :, pos, :] = accs
            if snap_line is not None:
                snap_line[pos] = line
            if snap_hol is not None:
                snap_hol[pos] = (np.exp(-hol_log)[:, None, None] * np.eye(1)
                                 if hol is None else hol)
            if snap_acc is not None:
                snap_acc[pos] = np.eye(d, dtype=complex) if acc is None else acc
            if snap_floor is not None:
                snap_floor[pos] = floor_acc
            if snap_v2 is not None:
                snap_v2[pos] = v2_acc

    take_snapshot(0)
    for k in range(K):
        dt = dts[k]
        sqdt = math.sqrt(dt)
        step = sqdt * incs[:, k, :]

        # potential holonomy and left-point integrals use the step start;
        # V(x) is evaluated once, and its floor is the smallest eigenvalue
        # the exponential already solved for (W is a unitary conjugate of
        # V) unless the potential supplies its own floor_fn
        if track_holonomy:
            if hol is None:
                vx = potential.scalar_values(x, cap=cap)
                hol_log_new = hol_log + dt * vx
                lam_min = vx
            else:
                V = potential.matrix(x, cap=cap)
                W = V if acc is None else small_matmul(acc.conj().swapaxes(1, 2),
                                                       small_matmul(V, acc))
                step_exp, lam_min = expm_neg_hermitian(W, dt)
                hol_new = small_matmul(hol, step_exp)
            if track_floor or track_v2norm:
                fl = lam_min if potential.floor_fn is None else potential.scalar_floor(x, cap=cap)
            if track_floor:
                floor_new = floor_acc + dt * fl
            if track_v2norm:
                v2_new = v2_acc + dt * np.maximum(0.0, -fl)

        # transport along the step; at rank 1 the step is a phase, taken
        # elementwise as acc * Tk (with FMA, complex products are not
        # bitwise commutative, so the operand order is part of the result)
        if acc is not None:
            Tk = bundle.step_transport(model, x, step)
            acc_new = acc * Tk if d == 1 else small_matmul(Tk, acc)

        y = model.exp(x, step)
        if is_domain:
            inside = model.contains(y)
            stepped = alive & inside
            died = alive & ~inside
            if np.any(died):
                death[died] = k + 1
            all_alive = False
        else:
            stepped = alive
            all_alive = True

        def merge(new, old, matrix=False):
            if all_alive:
                return new
            mask = stepped[:, None, None] if matrix else stepped
            return np.where(mask, new, old)

        # scalar field integrals (trapezoid; singular via capped substeps)
        for i, f in enumerate(scalar_fields):
            if f.singular:
                sub = 0.0
                for fr in _SUBSTEP_FRACS:
                    sub = sub + f(model.exp(x, fr * step), cap=cap)
                contrib = dt * sub / len(_SUBSTEP_FRACS)
                accs[i, 0] = merge(accs[i, 0] + contrib, accs[i, 0])
            else:
                vy = f(y, cap=cap)
                for si, s in enumerate(strides):
                    if (k + 1) % s == 0:
                        contrib = (s * dt) * 0.5 * (v_prev[i, si] + vy)
                        accs[i, si] = merge(accs[i, si] + contrib, accs[i, si])
                        v_prev[i, si] = merge(vy, v_prev[i, si])

        if one_form is not None:
            inc = stratonovich_increment(model, one_form, x, step)
            line = merge(line + inc, line)

        if track_holonomy:
            if hol is None:
                hol_log = merge(hol_log_new, hol_log)
            else:
                hol = merge(hol_new, hol, matrix=True)
        if track_floor:
            floor_acc = merge(floor_new, floor_acc)
        if track_v2norm:
            v2_acc = merge(v2_new, v2_acc)
        if acc is not None:
            acc = merge(acc_new, acc, matrix=True)

        if all_alive:
            x = y
        else:
            x = np.where(stepped[:, None], y, x)
            alive = stepped
        take_snapshot(k + 1)

    return EnsembleResult(
        snap_times=np.asarray([times[i] for i in snap_idx]),
        alive=snap_alive,
        points=snap_points,
        integrals={(i, s): snap_ints[i, si] for i in range(n_f)
                   for si, s in enumerate(strides)},
        line_integral=snap_line,
        holonomy=snap_hol,
        transport=snap_acc,
        floor_integral=snap_floor,
        v2_integral=snap_v2,
        death_step=death,
    )


# ----------------------------------------------------------------------
# exit times


def exit_probability(model, starts, r, t, h, n_paths, key: RngKey,
                     center=None, checkpoints=(), workers=1):
    """P{t < first exit time from the geodesic ball K_r(center)} for each
    start point; also reports the infimum over the start set.

    Returns (per_start, stderr, inf_over_starts) where per_start has shape
    (n_checkpoints_or_1, n_starts)."""
    from .geometry import ball as make_ball

    base = model.base if isinstance(model, OpenSubdomain) else model
    c = base.origin() if center is None else np.asarray(center, dtype=float)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    dmax = float(np.max(base.distance(starts, c)))
    if r <= dmax:
        raise ValueError(f"ball radius r={r:g} must exceed max start distance {dmax:g}")
    domain = make_ball(base, r, center=c)
    fracs = []
    errs = []
    for j, x in enumerate(starts):
        res = run_ensemble(domain, x, t, h, key.child(j * n_paths), n_paths,
                           checkpoints=checkpoints, workers=workers)
        a = res.alive.astype(float)
        fracs.append(a.mean(axis=1))
        errs.append(np.sqrt(np.maximum(a.mean(axis=1) * (1 - a.mean(axis=1)), 0.0) / n_paths))
    per_start = np.stack(fracs, axis=1)
    stderr = np.stack(errs, axis=1)
    return per_start, stderr, per_start.min(axis=1)
