"""Brownian path sampling with lifetime, parallel transport and weights.

The sampler realizes the geodesic random walk x_{k+1} = exp_{x_k}(sqrt(h) xi_k)
with standard Gaussian frame coefficients xi_k; on the catalog models the
exponential map is exact, so the chain restricted to the grid is exactly the
time-h skeleton of Brownian motion (generator Delta/2).  Paths on open
subdomains are killed at the first grid point outside (bias O(sqrt(h)),
resolved by h-refinement in the estimator tests).

This module is the package's one path engine: everything an estimator
consumes is produced in one vectorized pass over a block of paths, kept in
one table of per-path state keyed by EnsembleResult field: endpoints,
alive indicators, trapezoid time-integrals of scalar fields (with 4-point
sub-step sampling and the 1/h cap at declared singular points), Stratonovich
line integrals of 1-forms (geodesic midpoint rule), the potential holonomy
(exponential-product integrator, left-point rule), the accumulated
transport, and left-point integrals of the scalar floor and of ||V^(2)||.
Each step builds its updates out of place, merges them in one loop on the
paths that stayed inside an open subdomain, and copies the table into the
snapshot arrays at requested checkpoint times.  A checkpoint at every grid
time gives a whole path, which is how `--dump-paths` and the tests read
single paths.  Each step evaluates V(x) once: the matrix exponential also
returns the smallest eigenvalue of the transported generator, which is the
floor (and gives ||V^(2)||, its negative part) unless the potential declares
its own floor_fn; both integrals exist whenever there is a potential.
Every non-trivial bundle is transported through BundleSpec.step_transport
into one (B, d, d) accumulator, real while the step matrices are (the
tangent bundle) and complex only in its snapshots.

Determinism contract: path i draws from the Philox stream (seed, i), so
estimates depend only on (seed, n_paths); blocks and process workers only
regroup the computation.  A block draws its increments with rng.normals,
row for row the same numbers as stream(key.child(i)).standard_normal((K, m)).
Reductions happen in path-index order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
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
_GRID_PATHS = 1 << 15  # paths per run of a start grid, so its memory does not grow with the grid


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
    point and excluded from further accumulation.  A field is None when
    the run does not ask for it (no one-form, potential or bundle)."""

    snap_times: np.ndarray                    # (T,)
    alive: np.ndarray                         # (T, N) bool
    points: np.ndarray                        # (T, N, coord_dim)
    integrals: dict = field(default_factory=dict)  # (field_idx, stride) -> (T, N)
    line_integral: Optional[np.ndarray] = None   # (T, N), with a one_form
    holonomy: Optional[np.ndarray] = None     # (T, N, d, d), with a potential
    transport: Optional[np.ndarray] = None    # (T, N, d, d) accumulated, with a bundle
    floor_integral: Optional[np.ndarray] = None  # left-point sum of the scalar floor,
    v2_integral: Optional[np.ndarray] = None     # and of ||V^(2)||, with a potential
    death_step: Optional[np.ndarray] = None   # (N,) grid index of exit, -1 if none

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
        potential=potential, cap=cap,
    )
    args = [(task, x0[i0:i1], i0, np.geterr()) for (i0, i1) in ranges]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_block_worker, args))
    else:
        parts = [_block_worker(a) for a in args]
    return _concat_results(parts)


def _block_worker(arg):
    task, x0blk, i0, errstate = arg
    with np.errstate(**errstate):  # the caller's, whatever process runs the block
        return _run_block(x0blk, i0, **task)


def _grid_reduce(run, reduce, grid, n, key: RngKey):
    """reduce(run(starts, key)), one path per row of starts, over a start
    grid whose point j owns paths [j n, (j+1) n): groups of whole points,
    of at most _GRID_PATHS paths (one point at least), run keyed at their
    first path, so they draw the streams of one run on np.repeat(grid, n,
    axis=0).  reduce returns arrays whose last axis is its group's points;
    they join along it."""
    per = max(1, _GRID_PATHS // n)
    parts = [reduce(run(np.repeat(grid[j0:j0 + per], n, axis=0), key.child(j0 * n)))
             for j0 in range(0, len(grid), per)]
    return [np.concatenate(a, axis=-1) for a in zip(*parts)]


def _concat_results(parts):
    """One result from consecutive blocks: every per-path field joins along
    its path axis (axis 1, axis 0 for death_step); snap_times is shared."""
    if len(parts) == 1:
        return parts[0]

    def join(name, vals):
        if name == "snap_times" or vals[0] is None:
            return vals[0]
        if isinstance(vals[0], dict):
            return {k: join(k, [v[k] for v in vals]) for k in vals[0]}
        return np.concatenate(vals, axis=0 if name == "death_step" else 1)

    return EnsembleResult(**{f.name: join(f.name, [getattr(p, f.name) for p in parts])
                             for f in fields(EnsembleResult)})


def _run_block(
    x0, i0, *, model, times, snap_idx, key, bundle, scalar_fields, strides,
    one_form, potential, cap,
):
    B = x0.shape[0]
    K = len(times) - 1
    dts = np.diff(times)
    snap_at = {}
    for pos, idx in enumerate(snap_idx):
        snap_at.setdefault(idx, []).append(pos)

    incs = normals(key.child(i0), B, (K, model.dim))

    d = bundle.rank if bundle is not None else (potential.rank if potential is not None else 1)
    moving = bundle is not None and not bundle.trivial_transport
    is_domain = isinstance(model, OpenSubdomain)
    death = np.full(B, -1, dtype=np.int64)

    # per-path state, keyed by EnsembleResult field (scalar integrals by
    # (field_idx, stride)); a scalar potential's holonomy is the left-point
    # integral of v until the result is built (it commutes with transport)
    state = {"alive": np.ones(B, dtype=bool), "points": x0.copy()}
    v_prev = {}  # trapezoid left values; stale on dead paths, never read there
    for i, f in enumerate(scalar_fields):
        v0 = None if f.singular else f(x0, cap=cap)
        for s in strides:
            state[(i, s)] = np.zeros(B)
            v_prev[(i, s)] = v0
    if one_form is not None:
        state["line_integral"] = np.zeros(B)
    if potential is not None:
        state["holonomy"] = (np.zeros(B) if potential.is_scalar
                             else np.broadcast_to(np.eye(d, dtype=complex), (B, d, d)).copy())
        state["floor_integral"] = np.zeros(B)
        state["v2_integral"] = np.zeros(B)
    if bundle is not None:
        # a complex step promotes the real identity; trivial bundles keep it
        state["transport"] = np.broadcast_to(np.eye(d), (B, d, d)).copy()
    snaps = {name: np.zeros((len(snap_idx),) + v.shape,
                            dtype=complex if name == "transport" else v.dtype)
             for name, v in state.items()}

    def snapshot(idx):
        for pos in snap_at.get(idx, ()):
            for name, arr in snaps.items():
                arr[pos] = state[name]

    snapshot(0)
    for k in range(K):
        dt = dts[k]
        x = state["points"]
        step = math.sqrt(dt) * incs[:, k, :]
        new = {}

        # potential holonomy and left-point integrals use the step start;
        # V(x) is evaluated once, and its floor is the smallest eigenvalue
        # the exponential already solved for (W is a unitary conjugate of
        # V) unless the potential supplies its own floor_fn
        if potential is not None:
            if potential.is_scalar:
                lam_min = potential.scalar_values(x, cap=cap)
                new["holonomy"] = state["holonomy"] + dt * lam_min
            else:
                W = potential.matrix(x, cap=cap)
                if moving:  # V in the start fibre's frame: acc^H V acc
                    acc = state["transport"]
                    W = small_matmul(acc.conj().swapaxes(1, 2), small_matmul(W, acc))
                step_exp, lam_min = expm_neg_hermitian(W, dt)
                new["holonomy"] = small_matmul(state["holonomy"], step_exp)
            fl = lam_min if potential.floor_fn is None else potential.scalar_floor(x, cap=cap)
            new["floor_integral"] = state["floor_integral"] + dt * fl
            new["v2_integral"] = state["v2_integral"] + dt * np.maximum(0.0, -fl)

        # transport along the step; at rank 1 the step is a phase, taken
        # elementwise as acc * Tk (with FMA, complex products are not
        # bitwise commutative, so the operand order is part of the result)
        if moving:
            acc = state["transport"]
            Tk = bundle.step_transport(model, x, step)
            new["transport"] = acc * Tk if d == 1 else small_matmul(Tk, acc)

        y = new["points"] = model.exp(x, step)

        # scalar field integrals (trapezoid; singular via capped substeps)
        for i, f in enumerate(scalar_fields):
            if f.singular:
                sub = sum(f(model.exp(x, fr * step), cap=cap) for fr in _SUBSTEP_FRACS)
                new[(i, 1)] = state[(i, 1)] + dt * sub / len(_SUBSTEP_FRACS)
                continue
            vy = f(y, cap=cap)
            for s in strides:
                if (k + 1) % s == 0:
                    new[(i, s)] = state[(i, s)] + (s * dt) * 0.5 * (v_prev[(i, s)] + vy)
                    v_prev[(i, s)] = vy

        if one_form is not None:
            new["line_integral"] = (state["line_integral"]
                                    + stratonovich_increment(model, one_form, x, step))

        # paths that leave the domain keep their last inside values
        if is_domain:
            alive = state["alive"]
            stepped = alive & model.contains(y)
            death[alive & ~stepped] = k + 1
            for name, v in new.items():
                new[name] = np.where(stepped.reshape((B,) + (1,) * (v.ndim - 1)), v, state[name])
            new["alive"] = stepped
        state.update(new)
        snapshot(k + 1)

    if potential is not None and potential.is_scalar:
        snaps["holonomy"] = np.exp(-snaps["holonomy"])[..., None, None].astype(complex)
    return EnsembleResult(
        snap_times=np.asarray([times[i] for i in snap_idx]),
        integrals={name: arr for name, arr in snaps.items() if isinstance(name, tuple)},
        death_step=death,
        **{name: arr for name, arr in snaps.items() if isinstance(name, str)},
    )


# ----------------------------------------------------------------------
# exit times


def exit_probability(model, starts, r, t, h, n_paths, key: RngKey,
                     center=None, checkpoints=(), workers=1):
    """P{t < first exit time from the geodesic ball K_r(center)} for each
    start point; also reports the infimum over the start set.  Start j owns
    paths [j n_paths, (j+1) n_paths) of one grid run (_grid_reduce).

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
    per_start, = _grid_reduce(
        lambda x0, k: run_ensemble(domain, x0, t, h, k, len(x0), checkpoints=checkpoints,
                                   workers=workers),
        lambda res: (res.alive.astype(float).reshape(len(res.snap_times), -1, n_paths)
                     .mean(axis=2),), starts, n_paths, key)
    stderr = np.sqrt(np.maximum(per_start * (1 - per_start), 0.0) / n_paths)
    return per_start, stderr, per_start.min(axis=1)
