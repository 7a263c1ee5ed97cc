import dataclasses
import math
import mmap
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import fiberflow.matexp as matexp
import fiberflow.paths as paths
import fiberflow.rng as rng
from fiberflow.bundles import (magnetic_bundle, stratonovich_increment, tangent_bundle,
                               trivial_bundle)
from fiberflow.config import parse_potential
from fiberflow.geometry import Circle, Euclidean, Sphere2, ball
from fiberflow.oracle import exit_survival_interval, levy_area_charfn, smeared_coulomb
from fiberflow.paths import exit_probability, run_ensemble, time_grid
from fiberflow.potentials import (PotentialSpec, ScalarField, angle_form, constant_field,
                                  constant_section, coulomb_field, harmonic_field,
                                  landau_form, power_field)
from fiberflow.rng import RngKey, RowStreams, normals, stream
from fiberflow.semigroup import fk_vector

KEY = RngKey(20240601)


def frame_steps(key, t, h, m):
    """Grid and frame steps sqrt(dt) * xi_k of the engine's path `key`."""
    times, _ = time_grid(t, h)
    xi = stream(key).standard_normal((len(times) - 1, m))
    return times, np.sqrt(np.diff(times))[:, None] * xi


def engine_path(model, x, t, h, key, **kw):
    """(times, vertices, frame steps, result) of the engine's path `key`,
    read from snapshots at every grid time."""
    times, steps = frame_steps(key, t, h, model.dim)
    res = run_ensemble(model, x, t, h, key, 1, checkpoints=times[:-1], **kw)
    return times, res.points[:, 0], steps, res


def test_time_grid_merges_checkpoints():
    times, snaps = time_grid(1.0, 0.25, checkpoints=[0.3, 0.5])
    assert np.allclose(times, [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    assert snaps == [2, 3, 5]
    with pytest.raises(ValueError):
        time_grid(1.0, -0.1)


@pytest.mark.parametrize("t, h, cps", [
    # between grid points, repeated, at 0 and at t
    (1.0, 0.25, [0.3, 0.5, 0.5, 0.0, 1.0, 0.3, 0.999]),
    # within the merge tolerance of a grid time, on either side of it, and
    # one halfway between two kept times
    (1.0, 0.25, [0.5, 0.5 + 0.75e-9, 0.5 + 1.5e-9, 0.25 - 4e-10, 1.0 - 1e-12]),
    # every grid time, as --dump-paths asks
    (0.7, 1e-3, list(time_grid(0.7, 1e-3)[0])),
])
def test_time_grid_locates_checkpoints_like_argmin(t, h, cps):
    times, snaps = time_grid(t, h, cps)
    assert snaps == [int(np.argmin(np.abs(times - c))) for c in sorted(cps) + [t]]


def test_degenerate_grid():
    _, pts, steps, res = engine_path(Euclidean(2), np.zeros(2), 0.0, 1e-3, KEY)
    assert res.alive.all() and len(pts) == 1 and steps.shape[0] == 0


@pytest.mark.parametrize("n_paths", [0, -3])
def test_run_ensemble_rejects_empty_ensemble(n_paths):
    with pytest.raises(ValueError, match="n_paths >= 1"):
        run_ensemble(Euclidean(1), np.zeros(1), 0.1, 0.01, KEY, n_paths)


def test_run_ensemble_rejects_a_start_off_the_base():
    # the ball's boundary function alone measures (0, 0, 5) by its direction,
    # the north pole, inside the ball; the sphere does not hold it
    dom, x = ball(Sphere2(1.0), 0.5), np.array([0.0, 0.0, 5.0])
    assert dom.contains(x)
    with pytest.raises(ValueError, match="outside the domain"):
        run_ensemble(dom, x, 0.1, 0.01, KEY, 4)


def test_trivial_bundle_transports_identity():
    # a trivial bundle is no bundle in the engine: the run is the bundle-less
    # one, bit for bit, and carries no transport
    e1, b = Euclidean(1), trivial_bundle(1)
    V = PotentialSpec.scalar(harmonic_field(e1, 1.0))
    _, pts, steps, res = engine_path(e1, np.zeros(1), 0.05, 1e-3, KEY, bundle=b, potential=V)
    assert np.allclose(b.step_transport(e1, pts[:-1], steps[None])[1][0], 1.0)
    assert res.transport is None
    _, _, _, bare = engine_path(e1, np.zeros(1), 0.05, 1e-3, KEY, potential=V)
    for name in ("holonomy", "floor_integral", "points"):
        assert np.array_equal(getattr(res, name), getattr(bare, name)), name


def test_brownian_variance_identity():
    # E|B_t - x|^2 = m t within 3 standard errors
    e2 = Euclidean(2)
    res = run_ensemble(e2, np.zeros(2), 0.5, 1e-3, KEY, 100000)
    sq = np.sum(res.points[-1] ** 2, axis=-1)
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) < 3 * se


def test_reproducibility_bit_identical():
    e2 = Euclidean(2)
    a = run_ensemble(e2, np.zeros(2), 0.3, 1e-3, KEY, 32)
    b = run_ensemble(e2, np.zeros(2), 0.3, 1e-3, KEY, 32)
    assert np.array_equal(a.points, b.points)
    # from 0 on R^2 a path is the running sum of its frame steps
    _, steps = frame_steps(KEY.child(5), 0.3, 1e-3, 2)
    assert np.array_equal(a.points[-1, 5], np.cumsum(steps, axis=0)[-1])


def test_worker_count_invariance():
    e1 = Euclidean(1)
    V = PotentialSpec.scalar(harmonic_field(e1, 1.0))
    a = run_ensemble(e1, np.zeros(1), 0.3, 1e-3, KEY, 600, potential=V)
    b = run_ensemble(e1, np.zeros(1), 0.3, 1e-3, KEY, 600, potential=V, workers=3)
    assert np.array_equal(a.floor_integral, b.floor_integral)
    assert np.array_equal(a.points, b.points)


def test_stream_contract_across_blocks_and_workers(monkeypatch):
    # a budget of 1600 paths of one chunk of 2048 steps in m = 2, so n = 1700
    # splits into a full block and a second one starting at i0 = 1600; each
    # draws its 5000 steps in three chunks
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", 1600 * paths._CHUNK_STEPS * 2)
    e2 = Euclidean(2)
    V = PotentialSpec.scalar(harmonic_field(e2, 1.0))
    a = run_ensemble(e2, np.zeros(2), 0.5, 1e-4, KEY, 1700, potential=V)
    i = 1650
    _, steps = frame_steps(KEY.child(i), 0.5, 1e-4, 2)
    assert np.array_equal(a.points[-1, i], np.cumsum(steps, axis=0)[-1])
    b = run_ensemble(e2, np.zeros(2), 0.5, 1e-4, KEY, 1700, potential=V, workers=2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.floor_integral, b.floor_integral)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started so far in the test."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self), start(self))[1])
    return started


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"threads{n}")
def threads(request, monkeypatch, thread_starts):
    """RowStreams on this many threads by default, splitting every piece,
    however short, one row a tile."""
    monkeypatch.setattr(rng, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(rng, "_THREAD_FLOATS", 0)
    monkeypatch.setattr(rng, "_TILE_ROWS", 1)
    yield request.param
    assert thread_starts if request.param > 1 else not thread_starts


@pytest.mark.parametrize("key, shape", [
    (RngKey(-12345, 3), (7, 2)),                 # negative seed
    (RngKey(99, (1 << 64) - 2), (5, 1)),         # stream index wraps past 2**64
    (RngKey(99, 4), (0, 2)),                     # no steps
])
def test_normals_rows_match_streams(key, shape, threads):
    rows = normals(key, 4, shape)
    assert rows.shape == (4,) + shape
    for j in range(4):
        assert np.array_equal(rows[j], stream(key.child(j)).standard_normal(shape))


def test_row_streams_pieces_concatenate_to_streams(threads):
    # pieces of uneven lengths, on fewer rows as the block goes on
    key = RngKey(99, (1 << 64) - 3)
    streams = RowStreams(key, 5)
    got = {j: [] for j in range(5)}
    for rows, length, more in [(range(5), 3, True), ([0, 2, 3, 4], 1, True),
                               ([0, 3, 4], 6, True), ([3, 4], 2, False)]:
        out = streams.draw(rows, (length, 2), more)
        assert out.shape == (len(rows), length, 2)
        for i, j in enumerate(rows):
            got[j].append(out[i])
    for j, pieces in got.items():
        row = np.concatenate(pieces)
        assert np.array_equal(row, stream(key.child(j)).standard_normal(row.shape))


def test_row_streams_never_draw_a_row_again_once_left_out(threads):
    streams = RowStreams(KEY, 3)
    streams.draw([0, 1, 2], (4, 1), more=True)
    streams.draw([0, 2], (4, 1), more=True)
    with pytest.raises(ValueError, match="row 1"):
        streams.draw([1], (4, 1))
    last = streams.draw([2], (4, 1))  # not kept: a later piece cannot continue it
    assert np.array_equal(last[0], stream(KEY.child(2)).standard_normal((12, 1))[8:])
    with pytest.raises(ValueError, match="row 2"):
        streams.draw([2], (4, 1))


def test_row_streams_split_above_threshold_match_streams(thread_starts):
    # the module's own tile and threshold: 3 tiles and a bit of rows, a kept
    # piece, then a last piece on every third row into a transposed view
    count = 3 * rng._TILE_ROWS + 5
    length = rng._THREAD_FLOATS // 2 + 1
    streams = RowStreams(KEY, count, threads=3)
    first = streams.draw(np.arange(count), (length, 2), more=True)
    assert thread_starts
    rows = np.arange(0, count, 3)
    out = np.empty((length, len(rows), 2)).transpose(1, 0, 2)
    streams.draw(rows, (length, 2), out=out)
    for j in range(count):
        want = stream(KEY.child(j)).standard_normal((2 * length, 2))
        assert np.array_equal(first[j], want[:length])
        if j % 3 == 0:
            assert np.array_equal(out[j // 3], want[length:])


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_row_streams_failure_stops_every_thread_and_reaches_the_caller(where, monkeypatch):
    # the helper's failure comes while the caller waits in its first row, so
    # the helper has taken a tile; a failing caller stops the helpers
    real = np.random.Generator
    helper_failed = threading.Event()

    class Failing:
        def __init__(self, bits):
            self._gen = real(bits)

        def standard_normal(self, out):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (where == "caller"):
                helper_failed.set()
                raise RuntimeError(f"fill failed on the {where}")
            helper_failed.wait(10.0)
            return self._gen.standard_normal(out=out)

    monkeypatch.setattr(np.random, "Generator", Failing)
    monkeypatch.setattr(rng, "_TILE_ROWS", 1)
    before = threading.active_count()
    streams = RowStreams(KEY, 16, threads=2)
    with pytest.raises(RuntimeError, match=f"on the {where}"):
        streams.draw(np.arange(16), (rng._THREAD_FLOATS,))
    assert threading.active_count() == before


def test_run_ensemble_values_do_not_depend_on_threads(monkeypatch, thread_starts):
    # paths die on both sides of a chunk boundary, in pieces split one row a
    # tile: every field is the same on one thread and on two
    monkeypatch.setattr(paths, "_CHUNK_STEPS", 16)
    monkeypatch.setattr(rng, "_THREAD_FLOATS", 0)
    monkeypatch.setattr(rng, "_TILE_ROWS", 2)
    domain = ball(Euclidean(1), 0.15)
    before = threading.active_count()
    got = {}
    for n_threads in (1, 2):
        monkeypatch.setattr(rng, "_usable_cpus", lambda n=n_threads: n)
        got[n_threads] = run_ensemble(domain, np.zeros(1), 0.5, 1e-3, KEY, 300,
                                      potential=PotentialSpec.scalar(harmonic_field(domain, 1.0)),
                                      checkpoints=[0.01, 0.1])
        assert bool(thread_starts) == (n_threads > 1)
    assert threading.active_count() == before
    death = got[1].death_step
    assert np.any((death > 0) & (death <= 16)) and np.any(death > 16)
    for f in dataclasses.fields(paths.EnsembleResult):
        assert np.array_equal(getattr(got[1], f.name), getattr(got[2], f.name)), f.name


@pytest.mark.parametrize("shape", [(3, 5, 2), (0, 4, 1), (1, 1, 1)])
def test_mapped_empty_is_a_writable_float_array(shape):
    a = paths._mapped_empty(shape)
    assert a.shape == shape and a.dtype == np.float64 and a.flags.writeable
    a[...] = 1.5
    assert np.all(a == 1.5)


def test_block_holds_one_increment_buffer_for_all_chunks(monkeypatch):
    # 7-step chunks in blocks of 40 and 20 paths, in two calls: the first
    # block's one mapping serves every chunk of both blocks of both calls
    made, blocks = [], []

    def mapped_empty(shape):
        made.append(shape)
        return np.empty(shape)

    run_block = paths._run_block
    monkeypatch.setattr(paths, "_run_block", lambda x0, *a, **k: (blocks.append(len(x0)),
                                                                  run_block(x0, *a, **k))[1])
    monkeypatch.setattr(paths, "_CHUNK_STEPS", 7)
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", 7 * 40)
    monkeypatch.setattr(paths, "_mapped_empty", mapped_empty)
    monkeypatch.setattr(paths, "_KEPT", [])
    for _ in range(2):
        exit_probability(Euclidean(1), np.zeros((1, 1)), 1.0, 0.5, 0.01, 60, KEY)
    assert blocks == [40, 20, 40, 20]
    assert made == [(7, 40, 1)]


class _NanPool(list):
    """Kept buffers that are filled with NaN each time one is lent."""

    def pop(self):
        flat = super().pop()
        flat[...] = np.nan
        return flat


class _NoPool(list):
    """Kept buffers that keep nothing: every block maps fresh, zeroed pages."""

    def append(self, flat):
        pass


@pytest.mark.parametrize("case", ["scalar", "magnetic", "tangent"])
def test_stale_increment_buffer_never_reaches_a_result(case, monkeypatch):
    # every block draws into a lent buffer full of NaN: two blocks of 7-step
    # chunks on a ball that paths leave on both sides of the first chunk
    # boundary, with checkpoints, give every field of fresh zeroed maps bit
    # for bit
    base = Sphere2(1.0) if case == "tangent" else Euclidean(1 if case == "scalar" else 2)
    model = ball(base, 0.2)
    kw = dict(potential=PotentialSpec.scalar(harmonic_field(model, 1.0)))
    if case == "magnetic":
        kw["bundle"] = magnetic_bundle(landau_form(0.9))
    elif case == "tangent":
        kw = dict(bundle=tangent_bundle(), potential=parse_potential(
            model, "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)"))
    monkeypatch.setattr(paths, "_CHUNK_STEPS", 7)
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", 7 * model.dim * 40)  # blocks of 40 and 20
    runs = []
    for pool in (_NoPool(), _NanPool([np.full(4096, np.nan)])):
        seed = pool[:]
        monkeypatch.setattr(paths, "_KEPT", pool)
        runs.append(result_arrays(run_ensemble(model, model.base.origin(), 0.05, 1e-3, KEY, 60,
                                               checkpoints=(0.0037, 0.02), **kw)))
        assert len(pool) == len(seed) and all(a is b for a, b in zip(pool, seed))
    want, got = runs
    death = want["death_step"]
    assert np.any((death > 0) & (death <= 7)) and np.any(death > 7)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name]), name


def _scalar_run(n, x0=0.0, key=KEY):
    e1 = Euclidean(1)
    return run_ensemble(e1, np.full(1, x0), 0.1, 1e-3, key, n,
                        potential=PotentialSpec.scalar(harmonic_field(e1, 1.0)),
                        checkpoints=(0.05,))


def test_kept_buffer_never_aliases_a_result(monkeypatch):
    monkeypatch.setattr(paths, "_KEPT", [])
    first = result_arrays(_scalar_run(300))
    before = {name: a.copy() for name, a in first.items()}
    _scalar_run(300, 0.5, RngKey(3))  # draws other increments into the same buffer
    assert len(paths._KEPT) == 1
    for name, a in first.items():
        assert np.array_equal(a, before[name]), name


def test_concurrent_calls_equal_their_serial_results(monkeypatch):
    # four threads, two cores: each call maps its own buffer when it finds
    # none kept, so no two calls draw into one
    monkeypatch.setattr(paths, "_KEPT", [])
    sizes = (300, 500)
    want = [result_arrays(_scalar_run(n)) for n in sizes]
    got = [None] * 4

    def work(i):
        got[i] = result_arrays(_scalar_run(sizes[i % 2]))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    for i, res in enumerate(got):
        assert res is not None and sorted(res) == sorted(want[i % 2])
        for name in res:
            assert np.array_equal(res[name], want[i % 2][name]), (i, name)
    assert len(paths._KEPT) == 1


def test_process_keeps_only_its_largest_increment_buffer(monkeypatch):
    # 100 steps of m = 1: a block of n paths needs 100 n floats
    monkeypatch.setattr(paths, "_KEPT", [])
    held = []
    for n in (100, 3000, 100):
        _scalar_run(n)
        held.append([len(flat) for flat in paths._KEPT])
    assert held == [[100 * 100], [100 * 3000], [100 * 3000]]


def _kept_buffers():
    return len(paths._KEPT)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_forked_worker_starts_with_no_kept_buffer(monkeypatch):
    monkeypatch.setattr(paths, "_KEPT", [])
    _scalar_run(100)
    assert _kept_buffers() == 1
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork")) as ex:
        assert ex.submit(_kept_buffers).result(timeout=60) == 0
    assert _kept_buffers() == 1


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
def test_repeated_call_faults_in_no_fresh_increment_pages(monkeypatch):
    # 8192 paths of 1000 steps on the line: one 65 MB buffer, faulted in by
    # the first call and reused by the second
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(paths, "_KEPT", [])
    args = (Euclidean(1), np.zeros(1), 1.0, 1e-3, KEY, 8192)
    run_ensemble(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_ensemble(*args)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000 * 8192 * 8 // mmap.PAGESIZE / 4


def _killed_reference(dom, v, t, h, key):
    """(death step, last inside point, trapezoid integral of v up to it) of
    the engine's path `key` on dom, from its own stream."""
    times, steps = frame_steps(key, t, h, dom.dim)
    pts = np.concatenate([np.zeros((1, dom.dim)), np.cumsum(steps, axis=0)])
    k = int(np.flatnonzero(~dom.contains(pts))[0])
    vals, dts = v(pts[:k], cap=1.0 / h), np.diff(times)
    floor = 0.0
    for i in range(k - 1):
        floor = floor + dts[i] * 0.5 * (vals[i] + vals[i + 1])
    return k, pts[k - 1], floor


def chunk_lengths(width, model):
    """(_CHUNK_STEPS, _SUB_FLOATS) pairs: chunks of the default length, 1
    and 7 steps, each stepped in sub-chunks of the default length, of 1
    step and of 3 steps of a block of `width` live paths on model (2 steps
    for a rank-3 weight on the plane, whose points count 3 floats)."""
    subs = (paths._SUB_FLOATS, 1, 3 * width * model.coord_dim)
    return [(chunk, sub) for chunk in (paths._CHUNK_STEPS, 1, 7) for sub in subs]


def test_block_where_every_path_dies(monkeypatch):
    # a ball of radius 0.05 empties long before its checkpoint at t = 0.3;
    # whichever chunk draws them and however the steps are cut into
    # sub-chunks, the paths stop where their own streams leave it (inside
    # a sub-chunk of the default length).  Snapshot 0 holds the starts, and
    # each later one (two of them at t) holds every path's last inside values
    n, t, h = 24, 0.5, 1e-3
    e1, e2 = Euclidean(1), Euclidean(2)
    dom1 = ball(e1, 0.05)
    V1 = PotentialSpec.scalar(harmonic_field(e1, 1.0))
    magnetic = dict(bundle=magnetic_bundle(landau_form(0.9)),
                    potential=PotentialSpec.scalar(harmonic_field(e2, 1.0)))
    for dom, kw in [(dom1, dict(potential=V1)), (ball(e2, 0.05), magnetic)]:
        runs = []
        for chunk, sub in chunk_lengths(n, dom):
            monkeypatch.setattr(paths, "_CHUNK_STEPS", chunk)
            monkeypatch.setattr(paths, "_SUB_FLOATS", sub)
            runs.append(result_arrays(run_ensemble(dom, np.zeros(dom.dim), t, h, KEY, n,
                                                   checkpoints=(0.0, 0.3, t), **kw)))
        res = runs[0]
        if dom is dom1:
            res1 = res
        assert np.array_equal(res["snap_times"], [0.0, 0.3, t, t])
        assert res["alive"][0].all() and not res["alive"][1:].any()
        assert np.all((res["death_step"] > 0) & (res["death_step"] < 300))
        assert not res["points"][0].any() and not res["floor_integral"][0].any()
        assert np.all(res["holonomy"][0] == 1.0)
        if "transport" in res:
            assert np.all(res["transport"][0] == 1.0)
        for name in ("points", "floor_integral", "holonomy", "transport"):
            if name in res:
                for later in res[name][2:]:
                    assert np.array_equal(later, res[name][1]), name
        for other in runs[1:]:
            assert sorted(other) == sorted(res)
            for name in res:
                assert np.array_equal(other[name], res[name]), name
    for j in range(n):
        k, last, floor = _killed_reference(dom1, V1.field(), t, h, KEY.child(j))
        assert res1["death_step"][j] == k
        assert np.array_equal(res1["points"][1, j], last)
        assert res1["floor_integral"][1, j] == floor


def _nan_outside(r):
    """x^2 inside (-r, r), NaN outside it."""
    return lambda p: np.where(np.abs(p[..., 0]) < r, p[..., 0] ** 2, np.nan)


@pytest.mark.parametrize("kind", ["trapezoid", "substeps", "matrix"])
def test_no_field_evaluation_past_an_exit(kind, monkeypatch):
    # a field that is NaN off a ball (NonFiniteFieldError if evaluated
    # there) is evaluated only where a path is still inside it: a leaving
    # step's end and sub-step points and every later point of the sub-chunk
    # become the path's last inside point, and so do the left points at
    # which a rank-2 potential built on the field is evaluated.  Sub-chunks
    # of 1 step and of the default length give the same arrays; the
    # checkpoint off the grid makes one step short
    r = 0.2
    v = ScalarField(_nan_outside(r), class_tag="kato", name="nan_outside",
                    singular_points=(np.zeros(1),) if kind == "substeps" else ())
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    V = (PotentialSpec(rank=2, const=np.diag([0.2, 0.5]), terms=[(v, sigma_x)])
         if kind == "matrix" else PotentialSpec.scalar(v))
    runs = []
    for sub in (1, paths._SUB_FLOATS):
        monkeypatch.setattr(paths, "_SUB_FLOATS", sub)
        runs.append(result_arrays(run_ensemble(ball(Euclidean(1), r), np.zeros(1), 0.1, 1e-3,
                                               KEY, 64, potential=V, checkpoints=(0.0337,))))
    a, b = runs
    assert 0 < a["alive"][-1].sum() < 64
    assert np.all(np.isfinite(a["floor_integral"])) and np.all(np.isfinite(a["holonomy"]))
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_exit_probability_independent_of_workers_and_blocks(monkeypatch):
    starts, n = np.array([[0.0], [0.3]]), 300
    args = (Euclidean(1), starts, 0.6, 0.4, 1e-3, n, KEY)
    want = exit_probability(*args, checkpoints=[0.1])
    # 7-step chunks in blocks of 140 paths, which split the second start,
    # in one process and in two
    monkeypatch.setattr(paths, "_CHUNK_STEPS", 7)
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", 980)
    for workers in (1, 2):
        got = exit_probability(*args, checkpoints=[0.1], workers=workers)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_occupation_distribution_euclidean():
    # distance from the start is Rayleigh(sqrt(t)) in m = 2
    t = 0.7
    res = run_ensemble(Euclidean(2), np.zeros(2), t, 1e-3, KEY, 60000)
    r = np.linalg.norm(res.points[-1], axis=-1)
    out = kstest(r, lambda q: 1.0 - np.exp(-q**2 / (2 * t)))
    assert out.pvalue > 0.001


def test_occupation_distribution_sphere():
    s2 = Sphere2(1.0)
    t = 0.4
    res = run_ensemble(s2, s2.origin(), t, 1e-3, KEY, 50000)
    d = s2.distance(res.points[-1], s2.origin())
    rho = np.linspace(0.0, np.pi, 2001)
    meridian = np.stack([np.sin(rho), np.zeros_like(rho), np.cos(rho)], axis=-1)
    pdf = s2.heat_kernel(t, s2.origin()[None, :], meridian) * 2 * np.pi * np.sin(rho)
    cdf = np.cumsum(pdf) * (rho[1] - rho[0])
    cdf /= cdf[-1]
    out = kstest(d, lambda q: np.interp(q, rho, cdf))
    assert out.pvalue > 0.001


# -- scalar integrals -----------------------------------------------------


def test_integrate_constant_exact():
    e1 = Euclidean(1)

    def integral(c):
        V = PotentialSpec.scalar(constant_field(c))
        return run_ensemble(e1, np.zeros(1), 0.4, 1e-3, KEY, 1, potential=V).floor_integral

    assert integral(0.0)[-1, 0] == 0.0
    assert abs(integral(3.0)[-1, 0] - 1.2) < 1e-12


def test_integrate_singular_capped_matches_engine():
    e3 = Euclidean(3)
    v = coulomb_field(e3, 1.0)
    x = np.array([0.2, 0.0, 0.0])
    times, steps = frame_steps(KEY.child(2), 0.02, 1e-3, 3)
    pts = x + np.cumsum(np.concatenate([np.zeros((1, 3)), steps]), axis=0)
    # v at the midpoints of each step's four quarters, |v| capped at 1e3
    fracs = np.array([0.125, 0.375, 0.625, 0.875])
    q = pts[:-1, None, :] + fracs[None, :, None] * steps[:, None, :]
    manual = float(np.sum(np.diff(times) * np.mean(v(q, cap=1e3), axis=1)))
    res = run_ensemble(e3, x, 0.02, 1e-3, KEY.child(2), 1, potential=PotentialSpec.scalar(v))
    # engine cap is 1/h = 1e3; path index 0 uses stream child(2)+0
    assert abs(res.floor_integral[-1, 0] - manual) < 1e-12


def test_coulomb_path_integral_vs_quadrature():
    # E int_0^t |y|^{-1}(B_s) ds from x = (1,0,0) against the smeared-
    # Coulomb time quadrature
    e3 = Euclidean(3)
    v = power_field(e3, 1.0, 1.0, class_tag="kato")  # +1/|y|
    t, h = 0.25, 2.5e-4
    x = np.array([1.0, 0.0, 0.0])
    res = run_ensemble(e3, x, t, h, KEY, 8000, potential=PotentialSpec.scalar(v))
    vals = res.floor_integral[-1]
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    ss = np.linspace(1e-6, t, 4001)
    oracle = np.trapezoid(smeared_coulomb(1.0, ss), ss)
    assert np.isfinite(mean)
    assert abs(mean - oracle) < 3 * se + 2e-3  # small O(h) discretization slack


# -- Stratonovich line integrals ------------------------------------------


def test_zero_form():
    e2 = Euclidean(2)
    res = run_ensemble(e2, np.zeros(2), 0.1, 1e-3, KEY, 1,
                       bundle=magnetic_bundle(landau_form(0.0)))
    assert res.transport[-1, 0, 0, 0] == 1.0


def test_circle_winding_loop_exact():
    # deterministic loop once around the circle picks up exactly 2 pi a
    c = Circle(1.0)
    K = 400
    step = 2 * np.pi / K  # frame (= arclength) increment per step
    pts = np.mod(step * np.arange(K + 1), 2 * np.pi)[:, None]
    a = 0.7
    val = np.sum(stratonovich_increment(c, angle_form(a), pts[:-1], np.full((K, 1), step)))
    assert abs(val - 2 * np.pi * a) < 1e-10


def test_levy_area_characteristic_function():
    # the magnetic transport is the phase e^{-i int beta}
    e2 = Euclidean(2)
    res = run_ensemble(e2, np.zeros(2), 1.0, 1e-3, KEY, 60000,
                       bundle=magnetic_bundle(landau_form(1.0)))
    w = res.transport[-1, :, 0, 0].conj()
    mean = w.mean()
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(mean - levy_area_charfn(1.0, 1.0)) < 3 * se + 1e-3
    assert abs(mean.imag) < 3 * se


def test_path_reversal_antisymmetry():
    # reversing a sampled flat path flips the midpoint-rule line integral
    e2 = Euclidean(2)
    beta = landau_form(0.8)
    _, pts, steps, _ = engine_path(e2, np.array([0.3, -0.2]), 0.2, 1e-3, KEY.child(9))
    fwd = np.sum(stratonovich_increment(e2, beta, pts[:-1], steps))
    bwd = np.sum(stratonovich_increment(e2, beta, pts[::-1][:-1], -steps[::-1]))
    assert abs(fwd + bwd) < 1e-12


# -- killing and exit times ------------------------------------------------


def test_killed_path_consistency_shared_seeds():
    e2 = Euclidean(2)
    dom = ball(e2, 0.8)
    res = run_ensemble(dom, np.zeros(2), 0.5, 1e-3, KEY, 4000)
    per, se, inf = exit_probability(e2, np.zeros((1, 2)), 0.8, 0.5, 1e-3, 4000, KEY)
    assert per[-1, 0] == res.alive_fraction()


def test_exit_time_requires_radius_above_start():
    with pytest.raises(ValueError, match="must exceed"):
        exit_probability(Euclidean(1), np.array([[0.9]]), 0.5, 0.1, 1e-3, 100, KEY)


def test_exit_probability_grid_run_matches_per_start_runs():
    # start j of the one run draws the streams of n paths keyed key.child(j n)
    starts, n = np.array([[0.0], [0.1], [-0.2]]), 300
    per, se, inf = exit_probability(Euclidean(1), starts, 0.5, 0.05, 1e-3, n, KEY,
                                    checkpoints=[0.02])
    for j, x in enumerate(starts):
        pj, sj, _ = exit_probability(Euclidean(1), x, 0.5, 0.05, 1e-3, n, KEY.child(j * n),
                                     checkpoints=[0.02])
        assert np.array_equal(per[:, j], pj[:, 0]) and np.array_equal(se[:, j], sj[:, 0])
    assert np.array_equal(inf, per.min(axis=1)) and per.shape == (2, 3)


def test_exit_survival_near_one_for_small_t():
    per, se, inf = exit_probability(Euclidean(2), np.zeros((1, 2)), 0.5, 1e-4,
                                    1e-6, 2000, KEY)
    assert inf[-1] >= 0.999


def test_exit_survival_vs_reflection_series():
    # m = 1, r = 1, t = 1; h small enough that the O(sqrt(h)) killing bias
    # sits inside the Monte Carlo band
    t, h, n = 1.0, 5e-5, 6000
    per, se, inf = exit_probability(Euclidean(1), np.zeros((1, 1)), 1.0, t, h, n, KEY)
    ref = exit_survival_interval(1.0, 1.0)
    assert abs(per[-1, 0] - ref) < 3 * se[-1, 0]


def test_exit_survival_monotone_in_t():
    per, se, _ = exit_probability(Euclidean(1), np.zeros((1, 1)), 1.0, 1.0, 1e-3,
                                  20000, KEY, checkpoints=[0.25, 0.5])
    vals = per[:, 0]
    joint = 3 * np.max(se)
    assert vals[0] >= vals[1] - joint and vals[1] >= vals[2] - joint


def test_dead_paths_are_frozen_and_indexed():
    e1 = Euclidean(1)
    dom = ball(e1, 0.05)
    times, _ = time_grid(0.5, 1e-3)
    res = run_ensemble(dom, np.zeros(1), 0.5, 1e-3, KEY, 500, checkpoints=times[:-1])
    dead = res.death_step >= 0
    assert dead.any()
    assert np.all(np.abs(res.points[-1][dead]) < 0.05)
    # a path is alive at exactly death_step grid points, then frozen
    for i in np.flatnonzero(dead)[:5]:
        k = res.death_step[i]
        assert res.alive[:, i].sum() == k and res.alive[:k, i].all()
        assert np.all(res.points[k:, i] == res.points[k - 1, i])


# -- transports ------------------------------------------------------------


def test_sphere_transport_unitary_and_composed():
    s2, b = Sphere2(1.0), tangent_bundle()
    _, pts, steps, res = engine_path(s2, s2.origin(), 0.3, 1e-3, KEY, bundle=b)
    transports = b.step_transport(s2, pts[:-1], steps[None])[1][0]
    K = transports.shape[0]
    worst = max(np.max(np.abs(T.conj().T @ T - np.eye(2))) for T in transports)
    assert worst < 1e-10
    acc = np.eye(2, dtype=complex)
    for T in transports:
        acc = T @ acc
    assert np.max(np.abs(acc.conj().T @ acc - np.eye(2))) < K * 1e-10
    assert np.max(np.abs(res.transport[-1, 0] - acc)) < 1e-12


def test_tangent_step_builds_each_frame_once(monkeypatch):
    # the transport returns the frame at a sub-chunk's last point and the
    # engine hands it to the next sub-chunk as frame(x), so Sphere2.frame
    # builds only a block's start frame; more calls than steps + 1 would
    # mean frames are being built twice per step
    s2, b = Sphere2(1.0), tangent_bundle()
    V = PotentialSpec(rank=2, const=np.diag([0.2, 0.5]),
                      terms=[(harmonic_field(s2, 1.0), np.array([[0.0, 1.0], [1.0, 0.0]]))])
    calls = []
    frame = Sphere2.frame

    def counted(self, p):
        calls.append(1)
        return frame(self, p)

    monkeypatch.setattr(Sphere2, "frame", counted)
    t, h, n = 0.02, 1e-3, 64
    fk_vector(s2, b, V, constant_section([1.0, 0.0], rank=2), s2.origin(), t, h, n, KEY)
    assert len(calls) <= round(t / h) + 1
    monkeypatch.undo()
    # the engine's accumulated transport is the product of the step matrices
    times, _ = time_grid(t, h)
    res = run_ensemble(s2, s2.origin(), t, h, KEY, n, bundle=b, potential=V,
                       checkpoints=times[:-1])
    steps = np.sqrt(np.diff(times))[:, None] * normals(KEY, n, (len(times) - 1, 2))
    transports = b.step_transport(s2, res.points.swapaxes(0, 1)[:, :-1], steps[None])[1][0]
    assert transports.dtype == np.float64  # real rotations, no complex arithmetic
    acc = np.broadcast_to(np.eye(2), (n, 2, 2))
    for k in range(len(times) - 1):
        acc = transports[:, k] @ acc
        assert np.max(np.abs(res.transport[k + 1] - acc)) < 1e-12


def test_magnetic_transport_phase_matches_line_integral():
    e2 = Euclidean(2)
    beta = landau_form(0.9)
    _, pts, steps, res = engine_path(e2, np.array([0.1, 0.2]), 0.1, 1e-3, KEY.child(4),
                                     bundle=magnetic_bundle(beta))
    line = np.sum(stratonovich_increment(e2, beta, pts[:-1], steps))
    assert abs(res.transport[-1, 0, 0, 0] - np.exp(-1j * line)) < 1e-10


def _chained_steps(bundle, model, x, xi, frame=None, carry=True):
    """bundle.step_transport's (points, T, frame) as C one-step calls, each
    from the point the last one reached, passed the frame it returned (or,
    with carry=False, none, so the frame is built from the point)."""
    pts, Ts = [], []
    for step in xi:
        y, T, frame = bundle.step_transport(model, x, step[None], frame if carry else None)
        x = y[0]
        pts.append(y[0])
        Ts.append(T[0])
    return np.stack(pts), np.stack(Ts), frame


def _sub_chunk_steps(model, n, C, rank):
    """C, or the engine's sub-chunk length for n live rows if C is None."""
    return C or paths._SUB_FLOATS // (n * max(model.coord_dim, rank))


@pytest.mark.parametrize("radius", [1.0, 0.5])
@pytest.mark.parametrize("C", [1, 3, None], ids=["C1", "C3", "default"])
def test_sphere_sub_chunk_walk_is_chained_steps_bitwise(radius, C):
    # one call walks C steps; it must be C one-step calls bit for bit, at the
    # origin and at points where two |x_i| tie for the frame's reference axis
    # (null steps keep both where they are), and for random points and steps
    s2, b = Sphere2(radius), tangent_bundle()
    rng = np.random.default_rng(8)
    u, w = radius / math.sqrt(2.0), radius / math.sqrt(3.0)
    ties = radius * np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0]])
    ties = np.concatenate([ties, [[u, u, 0], [0, -u, u], [u, 0, -u], [w, w, w], [-w, w, -w]]])
    g = rng.standard_normal((48, 3))
    x = np.concatenate([ties, radius * g / np.linalg.norm(g, axis=-1, keepdims=True)])
    n = len(x)
    C = _sub_chunk_steps(s2, n, C, 2)
    xi = 0.2 * radius * rng.standard_normal((C, n, 2))
    xi[:, :len(ties)] = 0.0  # null steps: the ties stay ties
    xi[::2, -8:] = 0.0  # and some null steps among moving points
    got = b.step_transport(s2, x, xi)
    assert got[0].shape == (C, n, 3) and got[1].shape == (C, n, 2, 2) and got[2].shape == (n, 3, 2)
    assert np.all(got[0][:, :4] == x[:4])
    for want in (_chained_steps(b, s2, x, xi), _chained_steps(b, s2, x, xi, carry=False),
                 b.step_transport(s2, x, xi, s2.frame(x))):
        for a, c in zip(got, want):
            assert a.tobytes() == c.tobytes()
    # the walk alone is the same walk
    assert s2.walk(x, xi).tobytes() == got[0].tobytes()


@pytest.mark.parametrize("model, beta", [(Circle(1.0), angle_form(0.7)),
                                         (Euclidean(2), landau_form(2.0))],
                         ids=["circle", "landau"])
@pytest.mark.parametrize("C", [1, 3, None], ids=["C1", "C3", "default"])
def test_magnetic_sub_chunk_phases_are_chained_steps_bitwise(model, beta, C):
    # all C phases of a sub-chunk come from one walk and one line-integral
    # call; they must be those of C one-step calls, and leave the steps as
    # they were
    b = magnetic_bundle(beta)
    rng = np.random.default_rng(9)
    n = 64
    x = rng.uniform(0.0, 2.0, (n, model.coord_dim))
    C = _sub_chunk_steps(model, n, C, 1)
    xi = 0.1 * rng.standard_normal((C, n, model.dim))
    xi[:, :4] = 0.0
    kept = xi.copy()
    got = b.step_transport(model, x, xi)
    assert np.array_equal(xi, kept)
    assert got[1].shape == (C, n, 1, 1) and got[2] is None
    for a, c in zip(got[:2], _chained_steps(b, model, x, xi)[:2]):
        assert a.tobytes() == c.tobytes()


@pytest.mark.parametrize("v", [harmonic_field(Euclidean(3), 1.0), coulomb_field(Euclidean(3), 1.0)],
                         ids=["trapezoid", "singular"])
def test_rank1_potential_is_its_field_integral(v):
    # one rule: a rank-1 potential's holonomy is e^{-int v} of its floor
    # integral, bit for bit, and real
    e3 = Euclidean(3)
    res = run_ensemble(e3, [0.05, 0.0, 0.0], 0.05, 1e-3, KEY, 48, checkpoints=(0.02,),
                       potential=PotentialSpec.scalar(v))
    assert res.holonomy.dtype == np.float64
    assert np.array_equal(res.holonomy[..., 0, 0], np.exp(-res.floor_integral))


@pytest.mark.parametrize("text", ["matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)",
                                  "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_y)"],
                         ids=["real", "complex"])
@pytest.mark.parametrize("tangent", [False, True], ids=["trivial", "tangent"])
def test_matrix_potential_snapshots_are_complex(text, tangent):
    # the engine's weight runs in V's dtype, but its snapshots, like the
    # transport's, are complex either way; on the tangent bundle a snapshot
    # rebuilds the holonomy from G = holonomy transport^H
    s2 = Sphere2(1.0)
    V = parse_potential(s2, text)
    bundle = tangent_bundle() if tangent else trivial_bundle(2)
    res = run_ensemble(s2, s2.origin(), 0.02, 1e-3, KEY, 16, bundle=bundle, potential=V,
                       checkpoints=(0.01,))
    assert res.holonomy.dtype == np.complex128
    assert res.transport is None or res.transport.dtype == np.complex128
    # holonomy e^{-dt V} per step, so its norm is at most e^{-floor_integral}
    norms = np.linalg.norm(res.holonomy, 2, axis=(-2, -1))
    assert np.all(norms <= np.exp(-res.floor_integral) * (1 + 1e-12))


def test_tangent_holonomy_is_the_conjugated_product():
    # the G state against the product it replaces: holonomy_{k+1} =
    # holonomy_k acc_k^H e^{-dt V(x_k)} acc_k, acc_k the transport at step k;
    # both drift by rounding of acc from orthogonal, ~k^2 ulps by step k
    s2 = Sphere2(1.0)
    V = parse_potential(s2, "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)")
    times, pts, _, res = engine_path(s2, s2.origin(), 0.05, 1e-3, KEY,
                                     bundle=tangent_bundle(), potential=V)
    hol = np.eye(2, dtype=complex)
    for k, dt in enumerate(np.diff(times)):
        acc = res.transport[k, 0]
        hol = hol @ acc.conj().T @ matexp.expm_neg_hermitian(V.matrix(pts[k]), dt)[0] @ acc
        assert np.max(np.abs(res.holonomy[k + 1, 0] - hol)) < 1e-12


# -- bit-exact golden results ----------------------------------------------

ENSEMBLE_GOLDEN = Path(__file__).parent / "data" / "ensemble"
ENSEMBLE_CASES = ["sphere2_tangent", "sphere2_ball", "magnetic_ball", "spin1_rank3",
                  "scalar_magnetic", "strides", "coulomb", "two_blocks"]


def ensemble_case(name):
    """(model, x0, t, n_paths, run_ensemble keywords, block budget or None)
    of a golden case; every case runs with h = 1e-3, KEY and one checkpoint."""
    s2, e2 = Sphere2(1.0), Euclidean(2)
    rank2 = "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)"
    beta = landau_form(0.9)
    magnetic = dict(bundle=magnetic_bundle(beta),
                    potential=PotentialSpec.scalar(harmonic_field(e2, 1.0)))
    if name == "sphere2_tangent":
        return s2, s2.origin(), 0.05, 48, dict(
            bundle=tangent_bundle(), potential=parse_potential(s2, rank2)), None
    if name == "sphere2_ball":
        dom = ball(s2, 0.3)
        return dom, s2.origin(), 0.1, 48, dict(
            bundle=tangent_bundle(), potential=parse_potential(dom, rank2)), None
    if name == "magnetic_ball":
        return ball(e2, 0.3), [0.1, 0.0], 0.1, 48, magnetic, None
    if name == "spin1_rank3":
        s_x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
        V = PotentialSpec(rank=3, const=np.diag([1.0, 0.0, -1.0]) + 0.5 * s_x,
                          terms=[(harmonic_field(e2, 1.0), np.eye(3))])
        return e2, np.zeros(2), 0.05, 48, dict(bundle=trivial_bundle(3), potential=V), None
    if name == "scalar_magnetic":
        c1, dtheta = Circle(1.0), angle_form(0.5)
        return c1, [0.3], 0.05, 48, dict(
            bundle=magnetic_bundle(dtheta),
            potential=PotentialSpec.scalar(harmonic_field(c1, 1.0))), None
    if name == "strides":  # a rank-1 potential alone, under its old name
        e1 = Euclidean(1)
        return e1, np.zeros(1), 0.05, 48, dict(
            potential=PotentialSpec.scalar(harmonic_field(e1, 1.0))), None
    if name == "coulomb":
        e3 = Euclidean(3)
        return e3, [0.05, 0.0, 0.0], 0.05, 48, dict(
            potential=PotentialSpec.scalar(coulomb_field(e3, 1.0))), None
    # 100 floats of increments per path: blocks of 24 and 16 paths
    return ball(e2, 0.3), [0.1, 0.0], 0.05, 40, magnetic, 2400


def result_arrays(res):
    """Every array of an EnsembleResult by name."""
    return {f.name: getattr(res, f.name) for f in dataclasses.fields(res)
            if getattr(res, f.name) is not None}


@pytest.mark.parametrize("case", ENSEMBLE_CASES)
def test_ensemble_golden(case, monkeypatch):
    # every result array bit for bit, dtype included, against files the
    # engine wrote before its state-table rewrite, less the fields it has
    # since dropped (magnetic_ball's potential arrays were added later);
    # the same with the increments drawn 1 or 7 steps at a time, each way
    # stepped 1 or 3 steps per sub-chunk as well as at the default length
    model, x0, t, n, kw, budget = ensemble_case(case)
    K = len(time_grid(t, 1e-3, (0.02,))[0]) - 1
    blocks = []
    run_block = paths._run_block
    monkeypatch.setattr(paths, "_run_block", lambda x0, *a, **k: (blocks.append(len(x0)),
                                                                  run_block(x0, *a, **k))[1])
    for chunk, sub in chunk_lengths(n if budget is None else 24, model):
        monkeypatch.setattr(paths, "_CHUNK_STEPS", chunk)
        monkeypatch.setattr(paths, "_SUB_FLOATS", sub)
        if budget is not None:
            # the same block width under every chunk: blocks of 24 and 16 paths
            monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget * min(K, chunk) // K)
        blocks.clear()
        res = run_ensemble(model, x0, t, 1e-3, KEY, n, checkpoints=(0.02,), **kw)
        assert blocks == ([n] if budget is None else [24, 16])
        got = result_arrays(res)
        with np.load(ENSEMBLE_GOLDEN / f"{case}.npz") as want:
            assert sorted(got) == sorted(want.files)
            for name in want.files:
                assert got[name].dtype == want[name].dtype, (chunk, sub, name)
                assert np.array_equal(got[name], want[name]), (chunk, sub, name)


@pytest.mark.parametrize("case", ["tangent", "tangent_ball", "rank3", "rank3_ball"])
def test_matrix_weight_with_unequal_steps_inside_a_sub_chunk(case, monkeypatch):
    # the off-grid checkpoint puts a short step at the end of a sub-chunk of
    # full steps, whose one exponential takes each step's own dt; every
    # array is that of 1-step sub-chunks, bit for bit, on the whole space
    # and on a ball of radius 0.3, which every path leaves within a few
    # steps of h = 1e-2
    if case.startswith("tangent"):
        model, x0, _, _, kw, _ = ensemble_case("sphere2_ball")
        model = model if case.endswith("ball") else model.base
    else:
        model, x0, kw = Euclidean(2), np.zeros(2), ensemble_case("spin1_rank3")[4]
        model = ball(model, 0.3) if case.endswith("ball") else model
    t, h, n = 0.5, 1e-2, 300
    runs = []
    for sub in (1, paths._SUB_FLOATS):
        monkeypatch.setattr(paths, "_SUB_FLOATS", sub)
        runs.append(result_arrays(run_ensemble(model, x0, t, h, KEY, n,
                                               checkpoints=(0.25, 0.3337), **kw)))
    a, b = runs
    assert np.all(a["death_step"] > 0) if case.endswith("ball") else np.all(a["alive"])
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class _ZeroField:
    """0 at every point, but not a constant field: a term of it keeps a
    constant matrix part on the per-point route."""

    def __call__(self, pts):
        return 0.0 * np.asarray(pts)[..., 0]


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("domain", ["plane", "ball"])
def test_constant_matrix_part_is_exponentiated_once_per_step_size(rank, domain, monkeypatch):
    # W = C constant beside a scalar part: one exponential per block over
    # the grid's distinct step sizes, h and h / 2 on this binary grid with
    # its off-grid checkpoint, one product of single (d, d) matrices per
    # step, never one per path, and every array bit for bit that of the
    # same W written with a zero-field term, which exponentiates W(x) per
    # point.  Two blocks; on the ball, rows drop out mid-run
    rng = np.random.default_rng(rank)
    A = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    C = 0.5 * (A + A.conj().T) if rank == 3 else (A + A.T).real / 2
    P = np.roll(np.eye(rank), 1, axis=0) + np.roll(np.eye(rank), -1, axis=0)
    terms = [(harmonic_field(Euclidean(2), 1.0), np.eye(rank))]
    fixed = PotentialSpec(rank=rank, const=C, terms=terms)
    per_point = PotentialSpec(rank=rank, const=C, terms=terms + [(ScalarField(_ZeroField()), P)])
    model = Euclidean(2) if domain == "plane" else ball(Euclidean(2), 0.5)
    t, h, n = 0.25, 2.0**-6, 40
    sizes = np.unique(np.diff(time_grid(t, h, (1.5 * h,))[0]))
    assert sizes.tolist() == [h / 2, h]
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", 24 * 2 * len(np.arange(0, t, h)) + 24)
    runs = []
    for V in (fixed, per_point):
        calls, products = [], []
        expm, small_matmul = paths.expm_neg_hermitian, paths.small_matmul
        monkeypatch.setattr(paths, "expm_neg_hermitian",
                            lambda W, s: (calls.append(np.shape(W)[:-2]), expm(W, s))[1])
        monkeypatch.setattr(paths, "small_matmul",
                            lambda A, C: (products.append((A.shape, C.shape)),
                                          small_matmul(A, C))[1])
        runs.append(result_arrays(run_ensemble(model, np.zeros(2), t, h, KEY, n,
                                               potential=V, checkpoints=(1.5 * h,))))
        monkeypatch.setattr(paths, "expm_neg_hermitian", expm)
        monkeypatch.setattr(paths, "small_matmul", small_matmul)
        if V is fixed:
            assert calls == [(2,), (2,)]  # one per block, one matrix per step size
            assert products and all(a[0] == c[0] == 1 for a, c in products)
    a, b = runs
    if domain == "ball":
        assert 0 < np.sum(a["death_step"] > 0) < n
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name


@pytest.mark.parametrize("text", ["matrix(rank=2, const=diag(0.2,0.5))",
                                  "matrix(rank=2, const=diag(0.2,0.5), 0.3 @ pauli_y)"],
                         ids=["real", "complex"])
@pytest.mark.parametrize("domain", ["sphere", "cap"])
def test_constant_matrix_part_on_the_tangent_bundle_is_taken_per_point(text, domain):
    # on a transporting bundle G = holonomy transport^H differs from path
    # to path, so a constant W takes the per-point route: every array bit
    # for bit that of the same W written with a zero-field term, and the
    # holonomy's norm at most e^{-floor_integral} per sample
    s2 = Sphere2(1.0)
    model = s2 if domain == "sphere" else ball(s2, 0.3)
    s, fixed = parse_potential(s2, text).split()
    assert s is None and not fixed.terms
    per_point = PotentialSpec(rank=2, const=fixed.const,
                              terms=[(ScalarField(_ZeroField()), np.array([[0.0, 1.0], [1.0, 0.0]]))])
    runs = [run_ensemble(model, s2.origin(), 0.25, 1e-2, KEY, 200, bundle=tangent_bundle(),
                         potential=V, checkpoints=(0.1337,)) for V in (fixed, per_point)]
    a, b = (result_arrays(r) for r in runs)
    if domain == "cap":
        assert 0 < np.sum(a["death_step"] > 0) < 200
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name
    norms = np.linalg.norm(runs[0].holonomy, 2, axis=(-2, -1))
    assert np.all(norms <= np.exp(-runs[0].floor_integral) * (1 + 1e-12))


@pytest.mark.parametrize("text", ["matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ id)",
                                  "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_y)"],
                         ids=["with_scalar_part", "alone"])
def test_constant_matrix_part_reads_the_start_without_steps(text):
    # the shared weight at grid index 0 is e^{-S_0} I = I with floor 0: at
    # t = 0, and on a ball so small that every path leaves on its first
    # step, at checkpoints before and after the exits
    e2 = Euclidean(2)
    V = parse_potential(e2, text)
    d = V.rank
    eye = np.broadcast_to(np.eye(d), (1, 50, d, d))
    res = run_ensemble(e2, np.zeros(2), 0.0, 1e-2, KEY, 50, potential=V)
    assert res.holonomy.dtype == np.complex128 and np.array_equal(res.holonomy, eye)
    assert np.array_equal(res.floor_integral, np.zeros((1, 50)))
    res = run_ensemble(ball(e2, 1e-6), np.zeros(2), 0.1, 1e-2, KEY, 50, potential=V,
                       checkpoints=(0.0, 0.05))
    assert np.all(res.death_step == 1)
    assert res.alive[0].all() and not res.alive[1:].any()
    assert np.array_equal(res.holonomy, np.broadcast_to(eye, (3, 50, d, d)))
    assert np.array_equal(res.floor_integral, np.zeros((3, 50)))


def test_identity_weight_on_a_transporting_bundle_reads_e_minus_s_at_exits():
    # V = harmonic I has no W: every snapshot and every exit reads the
    # holonomy as e^{-S} I, real, beside the tangent transport, on a cap
    # that some paths leave before the off-grid checkpoint and the end
    s2 = Sphere2(1.0)
    model = ball(s2, 0.3)
    V = parse_potential(model, "matrix(rank=2, harmonic(1.0) @ id)")
    res = run_ensemble(model, s2.origin(), 0.1, 1e-2, KEY, 200, bundle=tangent_bundle(),
                       potential=V, checkpoints=(0.0337,))
    assert 0 < np.sum(res.death_step > 0) < 200 and not res.alive.all()
    assert res.holonomy.dtype == np.float64
    assert np.array_equal(res.holonomy, np.exp(-res.floor_integral)[..., None, None] * np.eye(2))
    assert res.transport is not None and res.transport.shape == res.holonomy.shape


@pytest.mark.parametrize("case", ["rank3_ball", "tangent_ball"])
def test_matrix_states_stay_entry_major_through_exits(case, monkeypatch):
    # dropping the rows of leaving paths keeps G and the transport
    # entry-major: every operand of the engine's products has each entry
    # as one contiguous row over the live paths
    if case == "rank3_ball":
        model, x0 = ball(Euclidean(2), 0.3), np.zeros(2)
        kw = dict(potential=parse_potential(
            model, "matrix(rank=3, const=diag(1,0,-1), harmonic(1.0) @ spin1_x)"))
    else:
        model, x0, _, _, kw, _ = ensemble_case("sphere2_ball")
    operands = []
    small_matmul = paths.small_matmul
    monkeypatch.setattr(paths, "small_matmul",
                        lambda A, C: (operands.extend((A, C)), small_matmul(A, C))[1])
    res = run_ensemble(model, x0, 0.5, 1e-2, KEY, 300, checkpoints=(0.25,), **kw)
    assert np.all(res.death_step > 0)
    assert operands and all(op.ndim == 3 for op in operands)
    # (a snapshot after the last exit reads no rows)
    assert all(op.strides[0] == op.itemsize for op in operands if len(op) > 1)


# -- rank-3 eigh fallback along paths -----------------------------------------


def _expm_by_eigh(W, s):
    """The rank-3 step as eigendecomposition alone: U e^{-s lambda} U^H."""
    lam, U = np.linalg.eigh(W)
    e = np.exp(-np.asarray(s, dtype=float)[..., None] * lam)
    return (U * e[..., None, :]) @ U.conj().swapaxes(-1, -2), lam[..., 0]


def test_rank3_fallback_rows_along_crossing_paths(monkeypatch):
    # V(x) = U diag(x1, -x1, 2) U^H: the two lowest eigenvalues cross on
    # x1 = 0, where the trigonometric eigenvalues hand rows to eigh
    e2 = Euclidean(2)
    Z = np.random.default_rng(5).normal(size=(3, 3, 2)) @ np.array([1.0, 1j])
    U = np.linalg.qr(Z)[0]
    x1 = ScalarField(lambda p: p[..., 0], class_tag="locallyKato", name="x1")
    V = PotentialSpec(rank=3, const=U @ np.diag([0.0, 0.0, 2.0]) @ U.conj().T,
                      terms=[(x1, U @ np.diag([1.0, -1.0, 0.0]) @ U.conj().T)])
    t, h, n = 0.05, 1e-3, 64
    rows = []  # matrices of each eigh call
    eigh_rows = matexp._expm_eigh
    monkeypatch.setattr(matexp, "_expm_eigh",
                        lambda W, s: (rows.append(math.prod(W.shape[:-2])), eigh_rows(W, s))[1])
    batches = []  # (matrices, of which through eigh) of each of the engine's exponentials
    expm = paths.expm_neg_hermitian

    def counted(W, s):
        before = sum(rows)
        out = expm(W, s)
        batches.append((math.prod(W.shape[:-2]), sum(rows) - before))
        return out

    monkeypatch.setattr(paths, "expm_neg_hermitian", counted)

    # fk_vector asserts per-sample domination to 1e-9 on every path
    fk_vector(e2, trivial_bundle(3), V, constant_section((1.0, 1.0, 1.0), rank=3), np.zeros(2),
              t, h, n, KEY)
    total = n * int(round(t / h))
    assert sum(b for b, _ in batches) == total
    assert 0 < sum(rows) < total // 2
    # and in batches where the other rows take the closed form
    assert any(0 < r < b for b, r in batches)

    rows.clear()
    kw = dict(bundle=trivial_bundle(3), potential=V, checkpoints=(0.02,))
    got = run_ensemble(e2, np.zeros(2), t, h, KEY, n, **kw)
    assert 0 < sum(rows) < total // 2
    monkeypatch.setattr(paths, "expm_neg_hermitian", _expm_by_eigh)
    want = run_ensemble(e2, np.zeros(2), t, h, KEY, n, **kw)
    assert np.max(np.abs(got.holonomy - want.holonomy)) <= 1e-12
    assert np.max(np.abs(got.floor_integral - want.floor_integral)) <= 1e-12
