import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import fiberflow.matexp as matexp
import fiberflow.paths as paths
from fiberflow.bundles import (magnetic_bundle, stratonovich_increment, tangent_bundle,
                               trivial_bundle)
from fiberflow.config import parse_potential
from fiberflow.geometry import Circle, Euclidean, Sphere2, ball
from fiberflow.oracle import exit_survival_interval, levy_area_charfn, smeared_coulomb
from fiberflow.paths import exit_probability, run_ensemble, time_grid
from fiberflow.potentials import (PotentialSpec, ScalarField, angle_form, constant_field,
                                  constant_section, coulomb_field, harmonic_field,
                                  landau_form, power_field)
from fiberflow.rng import RngKey, normals, stream
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


def test_degenerate_grid():
    _, pts, steps, res = engine_path(Euclidean(2), np.zeros(2), 0.0, 1e-3, KEY)
    assert res.alive.all() and len(pts) == 1 and steps.shape[0] == 0


@pytest.mark.parametrize("n_paths", [0, -3])
def test_run_ensemble_rejects_empty_ensemble(n_paths):
    with pytest.raises(ValueError, match="n_paths >= 1"):
        run_ensemble(Euclidean(1), np.zeros(1), 0.1, 0.01, KEY, n_paths)


def test_trivial_bundle_transports_identity():
    e1, b = Euclidean(1), trivial_bundle(1)
    _, pts, steps, res = engine_path(e1, np.zeros(1), 0.05, 1e-3, KEY, bundle=b)
    assert np.allclose(b.step_transport(e1, pts[:-1], steps), 1.0)
    assert np.allclose(res.transport, 1.0)


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
    v = harmonic_field(e1, 1.0)
    a = run_ensemble(e1, np.zeros(1), 0.3, 1e-3, KEY, 600, scalar_fields=(v,))
    b = run_ensemble(e1, np.zeros(1), 0.3, 1e-3, KEY, 600, scalar_fields=(v,), workers=3)
    assert np.array_equal(a.integrals[(0, 1)], b.integrals[(0, 1)])
    assert np.array_equal(a.points, b.points)


def test_stream_contract_across_blocks_and_workers():
    # K * m = 10000 increments per path gives 1600-path blocks, so n = 1700
    # splits into a full block and a second one starting at i0 = 1600
    e2 = Euclidean(2)
    v = harmonic_field(e2, 1.0)
    a = run_ensemble(e2, np.zeros(2), 0.5, 1e-4, KEY, 1700, scalar_fields=(v,))
    i = 1650
    _, steps = frame_steps(KEY.child(i), 0.5, 1e-4, 2)
    assert np.array_equal(a.points[-1, i], np.cumsum(steps, axis=0)[-1])
    b = run_ensemble(e2, np.zeros(2), 0.5, 1e-4, KEY, 1700, scalar_fields=(v,), workers=2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.integrals[(0, 1)], b.integrals[(0, 1)])


@pytest.mark.parametrize("key, shape", [
    (RngKey(-12345, 3), (7, 2)),                 # negative seed
    (RngKey(99, (1 << 64) - 2), (5, 1)),         # stream index wraps past 2**64
    (RngKey(99, 4), (0, 2)),                     # no steps
])
def test_normals_rows_match_streams(key, shape):
    rows = normals(key, 4, shape)
    assert rows.shape == (4,) + shape
    for j in range(4):
        assert np.array_equal(rows[j], stream(key.child(j)).standard_normal(shape))


def test_max_step_invariant_at_conforming_h():
    # h below the (max_step/7)^2 bound keeps every step below max_step
    e2 = Euclidean(2)
    h = (e2.max_step / 7.0) ** 2
    times, _ = time_grid(400 * h, h)
    res = run_ensemble(e2, np.zeros(2), 400 * h, h, KEY, 256, checkpoints=times[:-1])
    steps = np.linalg.norm(np.diff(res.points, axis=0), axis=-1)
    assert np.max(steps) <= e2.max_step


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
    res = run_ensemble(e1, np.zeros(1), 0.4, 1e-3, KEY, 1,
                       scalar_fields=(constant_field(0.0), constant_field(3.0)))
    assert res.integrals[(0, 1)][-1, 0] == 0.0
    assert abs(res.integrals[(1, 1)][-1, 0] - 1.2) < 1e-12


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
    res = run_ensemble(e3, x, 0.02, 1e-3, KEY.child(2), 1, scalar_fields=(v,))
    # engine cap is 1/h = 1e3; path index 0 uses stream child(2)+0
    assert abs(res.integrals[(0, 1)][-1, 0] - manual) < 1e-12


def test_coulomb_path_integral_vs_quadrature():
    # E int_0^t |y|^{-1}(B_s) ds from x = (1,0,0) against the smeared-
    # Coulomb time quadrature
    e3 = Euclidean(3)
    v = power_field(e3, 1.0, 1.0, class_tag="kato")  # +1/|y|
    t, h = 0.25, 2.5e-4
    x = np.array([1.0, 0.0, 0.0])
    res = run_ensemble(e3, x, t, h, KEY, 8000, scalar_fields=(v,))
    vals = res.integrals[(0, 1)][-1]
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    ss = np.linspace(1e-6, t, 4001)
    oracle = np.trapezoid(smeared_coulomb(1.0, ss), ss)
    assert np.isfinite(mean)
    assert abs(mean - oracle) < 3 * se + 2e-3  # small O(h) discretization slack


# -- Stratonovich line integrals ------------------------------------------


def test_zero_form():
    e2 = Euclidean(2)
    res = run_ensemble(e2, np.zeros(2), 0.1, 1e-3, KEY, 1, one_form=landau_form(0.0))
    assert res.line_integral[-1, 0] == 0.0


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
    e2 = Euclidean(2)
    res = run_ensemble(e2, np.zeros(2), 1.0, 1e-3, KEY, 60000,
                       one_form=landau_form(1.0))
    w = np.exp(1j * res.line_integral[-1])
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
    transports = b.step_transport(s2, pts[:-1], steps)
    K = transports.shape[0]
    worst = max(np.max(np.abs(T.conj().T @ T - np.eye(2))) for T in transports)
    assert worst < 1e-10
    acc = np.eye(2, dtype=complex)
    for T in transports:
        acc = T @ acc
    assert np.max(np.abs(acc.conj().T @ acc - np.eye(2))) < K * 1e-10
    assert np.max(np.abs(res.transport[-1, 0] - acc)) < 1e-12


def test_tangent_step_builds_each_frame_once(monkeypatch):
    # exp needs frame(x); transport_matrix needs frame(x) and frame(y): a
    # fourth frame per step means a geodesic is being built twice
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
    assert len(calls) <= 3 * round(t / h)
    monkeypatch.undo()
    # the engine's accumulated transport is the product of the step matrices
    times, _ = time_grid(t, h)
    res = run_ensemble(s2, s2.origin(), t, h, KEY, n, bundle=b, potential=V,
                       checkpoints=times[:-1])
    steps = np.sqrt(np.diff(times))[:, None] * normals(KEY, n, (len(times) - 1, 2))
    transports = b.step_transport(s2, res.points.swapaxes(0, 1)[:, :-1], steps)
    assert transports.dtype == np.float64  # real rotations, no complex arithmetic
    acc = np.broadcast_to(np.eye(2), (n, 2, 2))
    for k in range(len(times) - 1):
        acc = transports[:, k] @ acc
        assert np.max(np.abs(res.transport[k + 1] - acc)) < 1e-12


def test_magnetic_transport_phase_matches_line_integral():
    e2 = Euclidean(2)
    beta = landau_form(0.9)
    b = magnetic_bundle(beta)
    res = run_ensemble(e2, np.array([0.1, 0.2]), 0.1, 1e-3, KEY.child(4), 1, bundle=b,
                       one_form=beta)
    total = res.transport[-1, 0, 0, 0]
    line = res.line_integral[-1, 0]
    assert abs(total - np.exp(-1j * line)) < 1e-10


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
    magnetic = dict(bundle=magnetic_bundle(beta), one_form=beta,
                    scalar_fields=(harmonic_field(e2, 1.0),))
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
            bundle=magnetic_bundle(dtheta), one_form=dtheta,
            potential=PotentialSpec.scalar(harmonic_field(c1, 1.0))), None
    if name == "strides":
        e1 = Euclidean(1)
        return e1, np.zeros(1), 0.05, 48, dict(
            scalar_fields=(harmonic_field(e1, 1.0), constant_field(0.5)), strides=(1, 2),
            potential=PotentialSpec.scalar(harmonic_field(e1, 1.0))), None
    if name == "coulomb":
        e3 = Euclidean(3)
        return e3, [0.05, 0.0, 0.0], 0.05, 48, dict(
            scalar_fields=(coulomb_field(e3, 1.0),),
            potential=PotentialSpec.scalar(coulomb_field(e3, 1.0))), None
    # 100 floats of increments per path: blocks of 24 and 16 paths
    return ball(e2, 0.3), [0.1, 0.0], 0.05, 40, dict(
        magnetic, potential=PotentialSpec.scalar(harmonic_field(e2, 1.0))), 2400


def result_arrays(res):
    """Every array of an EnsembleResult by name; integrals as integrals_i_s."""
    out = {}
    for f in dataclasses.fields(res):
        v = getattr(res, f.name)
        if isinstance(v, dict):
            out.update({f"{f.name}_{i}_{s}": a for (i, s), a in v.items()})
        elif v is not None:
            out[f.name] = v
    return out


@pytest.mark.parametrize("case", ENSEMBLE_CASES)
def test_ensemble_golden(case, monkeypatch):
    # every result array bit for bit, dtype included, against files the
    # engine wrote before its state-table rewrite
    model, x0, t, n, kw, budget = ensemble_case(case)
    if budget is not None:
        monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    res = run_ensemble(model, x0, t, 1e-3, KEY, n, checkpoints=(0.02,), **kw)
    got = result_arrays(res)
    with np.load(ENSEMBLE_GOLDEN / f"{case}.npz") as want:
        assert sorted(got) == sorted(want.files)
        for name in want.files:
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name


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
    rows = []
    eigh_rows = matexp._expm_eigh
    monkeypatch.setattr(matexp, "_expm_eigh",
                        lambda W, s: (rows.append(len(W)), eigh_rows(W, s))[1])

    # fk_vector asserts per-sample domination to 1e-9 on every path
    fk_vector(e2, trivial_bundle(3), V, constant_section((1.0, 1.0, 1.0), rank=3), np.zeros(2),
              t, h, n, KEY)
    total = n * int(round(t / h))
    assert 0 < sum(rows) < total // 2
    # and in batches where the other rows take the closed form
    assert any(0 < r < n for r in rows)

    rows.clear()
    kw = dict(bundle=trivial_bundle(3), potential=V, checkpoints=(0.02,))
    got = run_ensemble(e2, np.zeros(2), t, h, KEY, n, **kw)
    assert 0 < sum(rows) < total // 2
    monkeypatch.setattr(paths, "expm_neg_hermitian", _expm_by_eigh)
    want = run_ensemble(e2, np.zeros(2), t, h, KEY, n, **kw)
    assert np.max(np.abs(got.holonomy - want.holonomy)) <= 1e-12
    assert np.max(np.abs(got.floor_integral - want.floor_integral)) <= 1e-12
