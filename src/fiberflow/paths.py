"""Brownian path sampling with lifetime, parallel transport and weights.

The sampler realizes the geodesic random walk x_{k+1} = exp_{x_k}(sqrt(h) xi_k)
with standard Gaussian frame coefficients xi_k and each catalog model's
exact exponential map.  On the flat models (euclidean, circle, torus) the
chain restricted to the grid is exactly the time-h skeleton of Brownian
motion (generator Delta/2).  On sphere2 and hyperbolic() it is not: a
geodesic step of Gaussian length does not have the law of the Brownian
distance walked in time h, and the weak error is O(h) (E[cos theta_1] on
the unit sphere reads 0.0051 low at h = 0.1).  Paths on open subdomains
are killed at the first grid point outside (bias O(sqrt(h)), resolved by
h-refinement in the estimator tests).

This module is the package's one path engine: everything an estimator
consumes is produced in one vectorized pass over a block of paths, kept in
one table of per-path state: endpoints and, with a potential or a bundle,
the accumulators that the EnsembleResult fields floor_integral, holonomy
and transport are read from.  The table holds the live paths only, with `rows`, their
indices in the block.  The steps are taken in sub-chunks of C consecutive
steps, C being _SUB_FLOATS over the live paths' coordinates, or over d
floats per point for a rank-d weight when d is the larger (fewer at a
chunk's end or a checkpoint, where a sub-chunk always ends).  A sub-chunk
walks every live path C steps in one call (model.walk; with a bundle,
BundleSpec.step_transport, which returns the C steps' transports with the
points), tests all C endpoints of every path against the
domain at once, evaluates the potential's scalar part once over them and
its matrix part and that part's exponential once over the C left points,
then runs the recurrences of the floor, the matrix weight and the
transport in step order, keeping each step's values; so C = 1 is the same code.  Before any
field or potential sees them, a leaving path's points from its first
outside step on are replaced by its last inside point (a bundle's
transport, being the walk, runs to the sub-chunk's end and its steps past
the exit are dropped).  At requested checkpoint times a snapshot scatters
the live rows.  On an open subdomain, the paths whose step k -> k+1 leaves
it write their last inside values (those after step k) into every snapshot
at grid index k+1 or later (a suffix, the snapshots being sorted), get
their death step, and drop out of every state entry, so no later sub-chunk
moves or draws them; `alive` is read off the death steps at the end.  A
checkpoint at every grid time gives a whole path, which is how
`--dump-paths` and the tests read single paths.

A potential is split as V(x) = s(x) I + W(x) (PotentialSpec.split): s
gathers its identity part, W is the rest, and at rank 1 s is the whole
potential.  Since I commutes with everything, e^{-dt V} = e^{-dt s}
e^{-dt W} exactly, so the scalar part needs no matrix work: its integral
S = int s is taken by the trapezoid rule, or by 4-point sub-steps with the
1/h cap for a field with declared singular points.  W is integrated by the
exponential-product rule (left point): each sub-chunk evaluates W(x) once
over the left points of its C steps and exponentiates the C x rows
matrices as PotentialSpec.matrix returns them, in one call whose per-step
sizes dt broadcast over the rows; the matrix exponential also returns the
smallest eigenvalue of each W(x).  floor_integral is S + sum dt
lambda_min(W), and the holonomy e^{-S} times W's product (and the
transport); without W it is e^{-S} I, real.  A constant W (the spin part
of an atomic-type potential) with no bundle weighs every path alike: its
product and floor are one row of state, a (1, d, d) G and a 0-d floor,
stepped by the same loop and read by the same snapshots and exits as a
per-path one, where they broadcast over the rows; its exponentials are
taken once per block, one for each distinct step size, so a step
multiplies single (d, d) matrices.  A trivial bundle is no bundle in the
engine; every other one, the magnetic phase among them, is transported
through BundleSpec.step_transport into one (B, d, d) accumulator: one call
per sub-chunk walks its C steps and returns their (C, rows, d, d) step
matrices with the points, so a bundle step takes no separate model.exp,
and the per-step loop only multiplies them in.  On the tangent bundle of
the sphere that call is Sphere2.transport_matrix's component-major walk,
which builds one frame per step and returns the frame at the sub-chunk's
last point; the table carries it (never snapshotted), and the next
sub-chunk passes it back as the frame at its start.

W's weight state is G = e^{S} holonomy acc^H, acc the transport so far,
or e^{S} holonomy without a bundle (G is never snapshotted): one per path
for an x-dependent W or any W on a bundle, one row for every path for a
constant W with no bundle.  With a transport the weight of a step is
e^{-dt s} holonomy acc^H e^{-dt W(x)} acc, so a step sets G <- G
e^{-dt W(x)}, then G <- G T^H and acc <- T acc, with no conjugation of W;
a snapshot or a path's exit reads the holonomy as e^{-S} G acc (e^{-S} G
without a bundle).  Since ||e^{-dt W}|| = e^{-dt lambda_min(W)},
||holonomy|| <= e^{-floor_integral} holds per sample.  G starts in W's
dtype and the transport real, and each stays real until a complex step
promotes it, so a real potential on the tangent bundle runs in real
arithmetic; their snapshots are complex.

Layout: every d x d batch of the matrix layers is entry-major
(matexp.entry_major), each entry [..., i, j] one contiguous row over the
batch: G and the transport as they start, as each small_matmul returns
them and as the rows of leaving paths are dropped (for d <= 3; above,
matmul's C order), the sub-chunk's step matrices, W(x) over the left
points, its exponential and the sphere's transports, as (C, rows, d, d)
views of (d, d, C, rows) arrays (a constant W's, (C, 1, d, d) rows of its
table, are C-order); the snapshots are C-order.  No value depends on the
layout.

Determinism contract: path i draws from the Philox stream (seed, i), so
estimates depend only on (seed, n_paths); blocks, sub-chunks, process
workers and draw threads only regroup the computation.  A block draws its
increments with rng.RowStreams, _CHUNK_STEPS steps of its live paths at a
time, on every usable CPU (on one thread in a worker process): row for
row, the chunks concatenate to
stream(key.child(i)).standard_normal((K, m)), cut short at the path's
death.  The block width is set by one chunk, so a long grid does not
narrow it.  Reductions happen in path-index order.

The increments of a block live in one step-major buffer on its own
anonymous memory map.  A process keeps at most one such buffer between
blocks and calls, the largest mapped so far, and lends it to one block at
a time as a view of its first floats, so a block does not fault in fresh
pages: a block that finds none kept, or one too small, maps its own (a
concurrent block on another thread never shares one), and a forked worker
process starts with none.  No value depends on what a buffer held before,
since every chunk is drawn into it before any step reads it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import mmap
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .bundles import BundleSpec, stratonovich_increment  # noqa: F401
from .geometry import ManifoldModel
from .matexp import entry_major, expm_neg_hermitian, small_matmul
from .potentials import PotentialSpec
from .rng import MAX_STEPS, RngKey, RowStreams
# bench/layers.py wraps paths.stream and paths.stratonovich_increment by name
from .rng import stream  # noqa: F401

__all__ = [
    "EnsembleResult",
    "run_ensemble",
    "exit_probability",
    "time_grid",
]

_SUBSTEP_FRACS = (0.125, 0.375, 0.625, 0.875)
_BLOCK_BUDGET = 16_000_000  # floats of Gaussian increments held per block
_CHUNK_STEPS = 2048  # steps of increments a block draws per path at a time
_SUB_FLOATS = 1 << 14  # floats of points a sub-chunk holds: its steps are this over the live rows
_GRID_PATHS = 1 << 15  # paths per run of a start grid, so its memory does not grow with the grid


def _mapped_empty(shape):
    """An uninitialised float array on its own anonymous memory map.  The
    pages go back to the system when the array is freed, so an increment
    buffer never enters the malloc heap: one kept between calls
    (_lent_increments) holds no heap memory, and one let go leaves no holes
    there that make the next allocation land in new pages."""
    nbytes = max(math.prod(shape), 1) * 8
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=np.float64, count=math.prod(shape)).reshape(shape)


# the increment buffer kept between blocks and calls, flat: at most one, the
# largest mapped so far, out of the list while a block holds it
_KEPT = []
_KEPT_LOCK = threading.Lock()


def _forget_kept():
    """Start a forked child with no kept buffer, so that a worker maps its
    own instead of writing into copies of the parent's pages, and with a
    lock no thread of the child holds."""
    global _KEPT_LOCK
    _KEPT.clear()
    _KEPT_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_kept)


@contextlib.contextmanager
def _lent_increments(shape):
    """A float array of `shape` for one block's increments: a view of the
    kept buffer's first floats when it holds enough, else a newly mapped
    array that replaces it.  On exit the buffer is kept again, the larger
    one when a concurrent block has given one back meanwhile."""
    n = math.prod(shape)
    with _KEPT_LOCK:
        flat = _KEPT.pop() if _KEPT else None
    if flat is None or len(flat) < n:
        del flat  # a buffer too small is unmapped before the new one is mapped
        flat = _mapped_empty(shape).reshape(-1)
    try:
        yield flat[:n].reshape(shape)
    finally:
        with _KEPT_LOCK:
            if _KEPT:
                flat = max(_KEPT.pop(), flat, key=len)
            _KEPT.append(flat)


def time_grid(t, h, checkpoints=()):
    """Uniform grid of step h on [0, t] merged with checkpoint times.

    Returns (times, snap_indices) where snap_indices locates each
    checkpoint (and t itself as the last entry) in the grid."""
    t = float(t)
    h = float(h)
    if t < 0 or (t > 0 and h <= 0):
        raise ValueError("need t >= 0 and h > 0")
    if t > MAX_STEPS * h:
        raise ValueError(f"need at most {MAX_STEPS} steps of h = {h:g} up to t = {t:g}")
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
    # the nearest grid time to each checkpoint, the earlier one on a tie
    cs = np.asarray(checkpoints + [t])
    hi = np.minimum(np.searchsorted(times, cs), len(times) - 1)
    lo = np.maximum(hi - 1, 0)
    idx = np.where(cs - times[lo] <= times[hi] - cs, lo, hi)
    off = np.abs(times[idx] - cs) > tol
    if off.any():
        raise ValueError(f"checkpoint {cs[off][0]} not representable on the grid")
    return times, idx.tolist()


# ----------------------------------------------------------------------
# vectorized ensembles


@dataclass
class EnsembleResult:
    """Per-path outputs at each checkpoint time (axis 0 = checkpoints,
    axis 1 = path index).  A path that has left the domain is not alive at
    the checkpoints from its death_step on, where it holds its last inside
    values.  A field is None when the run does not ask for it:
    floor_integral and holonomy come with a potential, transport with a
    non-trivial bundle."""

    snap_times: np.ndarray                    # (T,)
    alive: np.ndarray                         # (T, N) bool
    points: np.ndarray                        # (T, N, coord_dim)
    holonomy: Optional[np.ndarray] = None     # (T, N, d, d), with a potential; real at rank 1
    transport: Optional[np.ndarray] = None    # (T, N, d, d) accumulated, with a bundle
    floor_integral: Optional[np.ndarray] = None  # (T, N) integral of the floor, with a potential
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
    potential: Optional[PotentialSpec] = None,
    checkpoints: Sequence[float] = (),
    workers: int = 1,
) -> EnsembleResult:
    """Run n_paths killed Brownian paths and accumulate the requested
    weights.  x0 is a single start point or an (n_paths, cdim) array of
    per-path starts.  Results depend only on (key.seed, stream offsets,
    n_paths), never on block size or worker count.  A trivial bundle
    transports by the identity, so the run takes none."""
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    if bundle is not None:
        bundle.validate_model(model)
    if potential is not None and bundle is not None and potential.rank != bundle.rank:
        raise ValueError("potential rank does not match bundle rank")
    if bundle is not None and bundle.kind == "trivial":
        bundle = None
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (n_paths, x0.shape[0]))
    if x0.shape[0] != n_paths:
        raise ValueError("per-path starts must have length n_paths")
    if not (np.all(model.base.contains(x0)) and np.all(model.contains(x0))):
        raise ValueError("some start points lie outside the domain")
    times, snap_idx = time_grid(t, h, checkpoints)
    K = len(times) - 1
    m = model.dim
    per_path = max(min(K, _CHUNK_STEPS) * m, 1)
    block = int(max(16, min(8192, _BLOCK_BUDGET // per_path)))
    ranges = [(i, min(i + block, n_paths)) for i in range(0, n_paths, block)]
    cap = (1.0 / h) if h > 0 else None
    pool = workers > 1 and len(ranges) > 1
    # worker processes each draw on one thread, so they do not share cores
    task = dict(model=model, times=times, snap_idx=snap_idx, key=key, bundle=bundle,
                potential=potential, cap=cap, chunk=_CHUNK_STEPS, threads=1 if pool else None)
    args = [(task, x0[i0:i1], i0, np.geterr()) for (i0, i1) in ranges]
    if pool:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_block_worker, args))
    else:
        parts = [_block_worker(a) for a in args]
    return _concat_results(parts)


def _block_worker(arg):
    task, x0blk, i0, errstate = arg
    # one step-major buffer for every chunk of the block, so that a sub-chunk
    # reads one contiguous slice and no two chunks are held at once
    shape = (min(len(task["times"]) - 1, task["chunk"]), len(x0blk), task["model"].dim)
    # the errstate is the caller's, whatever process runs the block
    with np.errstate(**errstate), _lent_increments(shape) as buf:
        return _run_block(x0blk, i0, buf, **task)


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


def _reduce(samples):
    """(mean, se), each (C, *fibre), of C sets of n samples (C, n, *fibre):
    se = sqrt(var / n), var with ddof 1 and a complex sample's the sum of
    its real and imaginary parts' (se 0 for n < 2); row c is bit for bit
    the reduction of samples[c] alone."""
    n = samples.shape[1]
    mean = samples.mean(axis=1)
    if n < 2:
        return mean, np.zeros_like(np.abs(mean), dtype=float)
    var = np.var(samples.real, axis=1, ddof=1)
    if np.iscomplexobj(samples):
        var = var + np.var(samples.imag, axis=1, ddof=1)
    return mean, np.sqrt(var / n)


def _concat_results(parts):
    """One result from consecutive blocks: every per-path field joins along
    its path axis (axis 1, axis 0 for death_step); snap_times is shared."""
    if len(parts) == 1:
        return parts[0]

    def join(name, vals):
        if name == "snap_times" or vals[0] is None:
            return vals[0]
        return np.concatenate(vals, axis=0 if name == "death_step" else 1)

    return EnsembleResult(**{f.name: join(f.name, [getattr(p, f.name) for p in parts])
                             for f in fields(EnsembleResult)})


def _pin_past_exit(p, cols, e, last):
    """p[j, c], points of sub-chunk step j, of the rows cols set to each
    one's last inside point from its leaving step e on, in place."""
    past = (np.arange(len(p))[:, None] >= e)[..., None]
    p[:, cols] = np.where(past, last, p[:, cols])


def _rows(name, v, which, shared):
    """Rows `which`, a slice or an index array, of the state entry `name`,
    v; an entry in `shared`, one row for every path, as it is, so that it
    broadcasts.  For d <= 3 a copy of a (rows, d, d) matrix entry (G, the
    transport) comes entry-major (matexp.entry_major), as small_matmul's
    products do, so that the next product reads each entry as one
    contiguous row; above, in C order, as matmul's products, which matmul
    reads 1.5-3x faster than entry-major ones."""
    if name in shared:
        return v
    if name not in ("G", "transport") or isinstance(which, slice) or v.shape[-1] > 3:
        return v[which]
    return np.take(v.transpose(1, 2, 0), which, axis=-1).transpose(2, 0, 1)


def _run_block(x0, i0, buf, *, model, times, snap_idx, key, bundle, potential, cap, chunk,
               threads):
    B = x0.shape[0]
    K = len(times) - 1
    dts = np.diff(times)
    sqrt_dts = np.sqrt(dts)
    # snap_idx is sorted, so the snapshots at one grid index are a slice of them
    snap_idx = np.asarray(snap_idx)
    idx, first, count = np.unique(snap_idx, return_index=True, return_counts=True)
    snap_at = {int(i): slice(f, f + c) for i, f, c in zip(idx, first, count)}
    stops = idx.tolist()  # a sub-chunk ends at the next snapshot; the last is K

    d = bundle.rank if bundle is not None else (potential.rank if potential is not None else 1)
    scalar_v, matrix_W = potential.split() if potential is not None else (None, None)
    # a constant W with no bundle weighs every path alike: its G and floor
    # are one row of state, stepped by exponentials taken once per step size
    shared = ()
    if matrix_W is not None and not matrix_W.terms and bundle is None:
        shared = ("G", "W_floor")
        sizes, size_of = np.unique(dts, return_inverse=True)
        size_exp, size_lam = expm_neg_hermitian(
            np.broadcast_to(matrix_W.const, (len(sizes), d, d)), sizes)
    singular = scalar_v is not None and scalar_v.singular
    per_point = max(model.coord_dim, d)  # floats of a point in _SUB_FLOATS
    death = np.full(B, -1, dtype=np.int64)

    # per-path state of the live paths; row i of each entry belongs to path
    # rows[i] of the block: S and W_floor, the integrals of the scalar part
    # and of lambda_min(W), W's weight G and the transport (module
    # docstring).  A shared entry is one row (a 0-d W_floor) for every path
    rows = np.arange(B)
    state = {"points": x0.copy()}
    if scalar_v is not None:
        state["S"] = np.zeros(B)
    if matrix_W is not None:
        state["W_floor"] = np.zeros(() if shared else B)
        state["G"] = entry_major((1 if shared else B,), d, matrix_W.const.dtype)
        state["G"][...] = np.eye(d)
    if bundle is not None:
        state["transport"] = entry_major((B,), d, float)
        state["transport"][...] = np.eye(d)
    # the snapshots, keyed by EnsembleResult field; the holonomy is real
    # without W
    T = len(snap_idx)
    snaps = {"points": np.zeros((T,) + x0.shape)}
    if potential is not None:
        snaps["floor_integral"] = np.zeros((T, B))
        snaps["holonomy"] = np.zeros((T, B, d, d), dtype=float if matrix_W is None else complex)
    if bundle is not None:
        snaps["transport"] = np.zeros((T, B, d, d), dtype=complex)
    # per-path state that is never snapshotted: the tangent frame at each
    # path's point, which each step's transport returns for its endpoint;
    # the trapezoid's left values
    if bundle is not None and bundle.kind == "tangent":
        state["frame"] = model.base.frame(x0)
    if scalar_v is not None and not singular:
        state["v_prev"] = scalar_v(x0, cap=cap)

    def read(src, name, which=slice(None)):
        """Field `name` of the rows `which` of the state entries src."""
        def entry(key):
            return _rows(key, src[key], which, shared)

        if name == "floor_integral":
            parts = [entry(k) for k in ("S", "W_floor") if k in src]
            return parts[0] if len(parts) == 1 else parts[0] + parts[1]
        if name == "holonomy":
            G = np.eye(d)
            if "G" in src:
                G = entry("G") if bundle is None else small_matmul(entry("G"), entry("transport"))
            return G if "S" not in src else np.exp(-entry("S"))[:, None, None] * G
        return entry(name)

    def snapshot(k):
        if k in snap_at:
            for name, arr in snaps.items():
                arr[snap_at[k], rows] = read(state, name)

    snapshot(0)
    streams = RowStreams(key.child(i0), B, threads)
    for k0 in range(0, K, chunk):
        if not len(rows):
            break
        k1 = min(k0 + chunk, K)
        incs = buf[:k1 - k0, :len(rows)]
        state["points"] = state["points"].copy()  # the walk may have left them in buf
        streams.draw(rows, (k1 - k0, model.dim), more=k1 < K, out=incs.transpose(1, 0, 2))
        at = None  # state row i steps by incs[:, at[i]]; by incs[:, i] while None
        k = k0
        while k < k1 and len(rows):
            # a sub-chunk: the steps k -> k2 of every live row, as long as its
            # points fit _SUB_FLOATS, and no snapshot before its end.  A point
            # counts d floats for a rank-d weight when d is more than its
            # coordinates, which bounds the sub-chunk's matrices and their
            # exponential's temporaries
            k2 = min(k1, stops[bisect.bisect_right(stops, k)],
                     k + max(1, _SUB_FLOATS // (len(rows) * per_point)))
            C, dt, x = k2 - k, dts[k:k2], state["points"]
            steps = incs[k - k0:k2 - k0] if at is None else incs[k - k0:k2 - k0, at]
            steps *= sqrt_dts[k:k2, None, None]
            hist = {}  # the sub-chunk's state after its step j, at hist[name][j]

            # the walk, one call: with a bundle, its transport walks the
            # sub-chunk and returns the C steps' matrices with the points
            # (and the tangent frame at the last point)
            if bundle is None:
                pts = model.walk(x, steps.copy() if singular else steps)
            else:
                pts, Ts, frame = bundle.step_transport(model, x, steps, state.get("frame"))
                if frame is not None:
                    state["frame"] = frame
            hist["points"] = pts

            # one domain test: each leaving row's first step (e) that ends
            # outside.  Before any layer evaluates them, its points from
            # there on become its last inside point
            cols = None
            if not model.complete:
                inside = model.contains(pts)
                if not inside.all():
                    out = ~inside
                    cols = np.flatnonzero(out.any(axis=0))
                    e = out[:, cols].argmax(axis=0)
                    leave_at = np.unique(e).tolist()
                    if potential is not None:
                        last = np.where((e > 0)[:, None], pts[e - 1, cols], x[cols])
                        _pin_past_exit(pts, cols, e, last)

            # the scalar part's integral, once over the sub-chunk: trapezoid,
            # or capped sub-steps for a singular field
            if scalar_v is not None:
                if singular:
                    starts = np.concatenate([x[None], pts[:-1]])
                    subs = [model.exp(starts, fr * steps) for fr in _SUBSTEP_FRACS]
                    if cols is not None:
                        for p in subs:
                            _pin_past_exit(p, cols, e, last)
                    inc = sum(scalar_v(p, cap=cap) for p in subs) / len(subs)
                    inc *= dt[:, None]
                else:
                    vy = scalar_v(pts, cap=cap)
                    inc = np.empty_like(vy)
                    np.add(state["v_prev"], vy[0], out=inc[0])
                    np.add(vy[:-1], vy[1:], out=inc[1:])
                    inc *= 0.5 * dt[:, None]
                    state["v_prev"] = vy[-1]
                inc[0] += state["S"]
                for j in range(1, C):
                    inc[j] += inc[j - 1]
                hist["S"] = inc

            # W's weight and floor use each step's start: a constant W's come
            # from its table, else W(x) once over the sub-chunk's left points
            # and one exponential, whose per-step sizes broadcast over the
            # rows; the floor is the smallest eigenvalue the exponential
            # already solved for
            if shared:
                step_exp, lam_min = size_exp[size_of[k:k2], None], size_lam[size_of[k:k2]]
            elif matrix_W is not None:
                step_exp, lam_min = expm_neg_hermitian(
                    matrix_W.matrix(np.concatenate([x[None], pts[:-1]]), cap=cap), dt[:, None])

            # the per-step recurrences.  At rank 1 the transport is a phase,
            # taken elementwise as acc * Tk (with FMA, complex products are not
            # bitwise commutative, so the operand order is part of the result)
            if matrix_W is not None or bundle is not None:
                floor, G, acc = (state.get(name) for name in ("W_floor", "G", "transport"))
                floors, Gs, accs = {}, {}, {}  # kept after the steps that exits and the end read
                kept = {C - 1} if cols is None else {C - 1, *(j - 1 for j in leave_at)}
                for j in range(C):
                    if matrix_W is not None:
                        floor = floor + dt[j] * lam_min[j]
                        G = small_matmul(G, step_exp[j])
                    if bundle is not None:
                        acc = acc * Ts[j] if d == 1 else small_matmul(Ts[j], acc)
                        # holonomy' = holonomy acc^H e^{-dt W(x)} acc, so G' = G e^{-dt W(x)} T^H
                        if matrix_W is not None:
                            G = small_matmul(G, Ts[j].swapaxes(-1, -2).conj())
                    if j in kept:
                        floors[j], Gs[j], accs[j] = floor, G, acc
                if matrix_W is not None:
                    hist["W_floor"], hist["G"] = floors, Gs
                if bundle is not None:
                    hist["transport"] = accs

            # paths that leave the domain write their last inside values into
            # every snapshot from the sub-chunk's end on (none lies inside
            # it), then every path moves on to the sub-chunk's end, and the
            # leaving ones drop out of the state
            if cols is not None:
                death[rows[cols]] = k + 1 + e
                later = np.searchsorted(snap_idx, k + 1)
                for j in leave_at:
                    src = state if j == 0 else {name: h[j - 1] for name, h in hist.items()}
                    sel = cols[e == j]
                    for name, arr in snaps.items():
                        arr[later:, rows[sel]] = read(src, name, sel)
            for name, h in hist.items():
                state[name] = h[C - 1]
            if cols is not None:
                keep = np.delete(np.arange(len(rows)), cols)
                state = {name: _rows(name, v, keep, shared) for name, v in state.items()}
                rows = rows[keep]
                at = keep if at is None else at[keep]
            snapshot(k2)
            k = k2

    alive = (death < 0) | (death > snap_idx[:, None])
    return EnsembleResult(snap_times=times[snap_idx], alive=alive, death_step=death, **snaps)


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

    base = model.base
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
