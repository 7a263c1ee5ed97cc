import math

import numpy as np
import pytest
from scipy.linalg import expm

from fiberflow.bundles import tangent_bundle
from fiberflow.geometry import Euclidean, Sphere2
from fiberflow.holonomy import appendix_c_check, appendix_c_suite, product_integral_truncation
from fiberflow.matexp import expm_neg_hermitian, small_matmul
from fiberflow.paths import run_ensemble, time_grid
from fiberflow.potentials import PotentialSpec, ScalarField
from fiberflow.rng import RngKey

KEY = RngKey(99)
E2 = Euclidean(2)
PAULI_Z = np.diag([1.0, -1.0])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class _Sine:
    def __init__(self, w, axis=0, shift=0.0):
        self.w, self.axis, self.shift = w, axis, shift

    def __call__(self, pts):
        return np.sin(self.w * np.asarray(pts)[..., self.axis]) + self.shift


def smooth_matrix_potential(scale=0.7):
    return PotentialSpec(rank=2, const=0.1 * np.eye(2),
                         terms=[(ScalarField(_Sine(2.0, 0, 0.5)), scale * PAULI_Z),
                                (ScalarField(_Sine(1.3, 1)), 0.6 * scale * PAULI_X)])


def smooth_curve(K, t=1.0):
    """(times, points) of a deterministic smooth curve in R^2."""
    ts = np.linspace(0.0, t, K + 1)
    return ts, np.stack([ts, np.sin(2.5 * ts)], axis=-1)


def exponential_product(W, times):
    """Endpoint of the left-point exponential-product scheme for grid
    samples W of the generator: prod_k exp(-dt_k W_k)."""
    steps, _ = expm_neg_hermitian(W[:-1], np.diff(times))
    Y = np.eye(W.shape[-1], dtype=complex)
    for S in steps:
        Y = Y @ S
    return Y


def engine_path(model, t, h, key, V, bundle=None):
    """(times, vertices, result) of the engine's path `key` from the
    model's origin, with snapshots at every grid time."""
    times, _ = time_grid(t, h)
    res = run_ensemble(model, model.origin(), t, h, key, 1, bundle=bundle, potential=V,
                       checkpoints=times[:-1])
    return times, res.points[:, 0], res


def test_zero_potential_identity():
    _, _, res = engine_path(E2, 0.2, 1e-3, KEY, PotentialSpec.zero(2))
    values = res.holonomy[:, 0]
    assert np.allclose(values, np.eye(2))
    assert np.allclose(np.linalg.inv(values), np.eye(2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(5,), (2, 3), (0,)])
@pytest.mark.parametrize("kinds", ["real-real", "real-complex", "complex-complex"])
def test_small_matmul_matches_matmul(d, batch, kinds):
    rng = np.random.default_rng(100 * d + len(batch))
    shape = batch + (d, d)
    A, C = (rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if kind == "complex"
                                          else 0.0) for kind in kinds.split("-"))
    got = small_matmul(A, C)
    assert got.shape == shape
    assert got.dtype == np.result_type(A, C)
    if kinds == "real-real":
        # one of these real entries cancels to 1e-17, where matmul's own
        # rounding is the larger part: bound by the sum of |products|
        assert np.all(np.abs(got - np.matmul(A, C)) <= 1e-14 * (np.abs(A) @ np.abs(C)))
    else:
        np.testing.assert_allclose(got, np.matmul(A, C), rtol=1e-14, atol=0)


def _entry_by_entry(A, C):
    """A @ C with each entry summed as A_i0 C_0j + A_i1 C_1j + ..., in order."""
    d = A.shape[-1]
    out = np.empty(np.broadcast_shapes(A.shape, C.shape), dtype=np.result_type(A, C))
    for i in range(d):
        for j in range(d):
            acc = A[..., i, 0] * C[..., 0, j]
            for k in range(1, d):
                acc = acc + A[..., i, k] * C[..., k, j]
            out[..., i, j] = acc
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kinds", ["real-real", "real-complex", "complex-real",
                                   "complex-complex"])
@pytest.mark.parametrize("right", [(4, 7), (1, 7), (7,)], ids=["full", "bcast-axis", "bcast-rank"])
def test_small_matmul_is_the_ordered_entry_sum_entry_major(d, kinds, right):
    # bit for bit the in-order sum of products, for every dtype pair and a
    # right factor broadcast over the left's batch; each output entry is
    # one contiguous row over the batch, from C-order and entry-major
    # operands alike
    rng = np.random.default_rng(7 * d)
    A, C = (rng.standard_normal(batch + (d, d))
            + (1j * rng.standard_normal(batch + (d, d)) if kind == "complex" else 0.0)
            for kind, batch in zip(kinds.split("-"), [(4, 7), right]))
    ref = _entry_by_entry(A, C)
    for left in (A, small_matmul(A, np.eye(d))):
        got = small_matmul(left, C)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        for i in range(d):
            for j in range(d):
                assert got[..., i, j].flags.c_contiguous


def test_constant_scalar_matrix():
    _, _, res = engine_path(E2, 1.0, 1e-3, KEY, PotentialSpec(rank=2, const=0.9 * np.eye(2)))
    assert np.max(np.abs(res.holonomy[-1, 0] - math.exp(-0.9) * np.eye(2))) < 1e-12


def test_constant_hermitian_vs_expm():
    P = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    _, _, res = engine_path(E2, 1.0, 1e-3, KEY, PotentialSpec(rank=2, const=P))
    assert np.max(np.abs(res.holonomy[-1, 0] - expm(-P))) < 1e-10


def test_trace_invariants():
    V = smooth_matrix_potential()
    times, pts, res = engine_path(E2, 0.5, 1e-3, KEY.child(1), V)
    values = res.holonomy[:, 0]
    assert np.allclose(values[0], np.eye(2))
    # discrete domination, every index: ||values[k]|| <= e^{-sum h floor}
    dts = np.diff(times)
    floor = V.scalar_floor(pts[:-1])
    partial = np.concatenate([[0.0], np.cumsum(dts * floor)])
    norms = np.linalg.norm(values, ord=2, axis=(1, 2))
    assert np.max(norms - np.exp(-partial)) < 1e-9
    # upper bound a): ||values[k]|| <= e^{sum h ||W||}, W = V without transport
    wn = np.linalg.norm(V.matrix(pts[:-1]), ord=2, axis=(1, 2))
    upper = np.concatenate([[0.0], np.cumsum(dts * wn)])
    assert np.max(norms - np.exp(upper)) < 1e-9


def test_psd_potential_contraction():
    # W >= 0 everywhere implies ||values[k]|| <= 1 (absc c with c = 0)
    V = PotentialSpec(rank=2, const=0.5 * np.eye(2),
                      terms=[(ScalarField(_Sine(1.0, 0, 1.5)), 0.15 * PAULI_Z)])
    _, _, res = engine_path(E2, 0.5, 1e-3, KEY.child(2), V)
    norms = np.linalg.norm(res.holonomy[:, 0], ord=2, axis=(1, 2))
    assert np.max(norms) <= 1.0 + 1e-9


def test_inverse_growth_bound():
    # ||V_k^{-1} V_K|| <= exp(int ||V^(2)||) over the window (absc d)
    V = smooth_matrix_potential()
    times, pts, res = engine_path(E2, 0.5, 1e-3, KEY.child(3), V)
    hol = res.holonomy[:, 0]
    dts = np.diff(times)
    v2 = V.negative_norm(pts[:-1])
    total = np.cumsum((dts * v2)[::-1])[::-1]  # int_{t_k}^{T}
    K = len(hol) - 1
    for k in range(0, K, 50):
        win = np.linalg.norm(np.linalg.solve(hol[k], hol[K]), 2)
        assert win <= math.exp(total[k]) + 1e-9


def test_sphere_bundle_conjugation_hermitian():
    s2 = Sphere2(1.0)

    class _Z:
        def __call__(self, pts):
            return np.asarray(pts)[..., 2]

    V = PotentialSpec(rank=2, const=0.2 * np.eye(2),
                      terms=[(ScalarField(_Z()), 0.5 * PAULI_X)])
    times, pts, res = engine_path(s2, 0.1, 1e-3, KEY, V, bundle=tangent_bundle())
    acc = res.transport[:, 0]
    W = np.einsum("kji,kjl,klm->kim", acc.conj(), V.matrix(pts), acc)
    assert np.max(np.abs(W - np.conj(np.transpose(W, (0, 2, 1))))) < 1e-12
    dts = np.diff(times)
    floor = V.scalar_floor(pts[:-1])
    partial = np.concatenate([[0.0], np.cumsum(dts * floor)])
    norms = np.linalg.norm(res.holonomy[:, 0], ord=2, axis=(1, 2))
    assert np.max(norms - np.exp(-partial)) < 1e-9


# -- floor integrals of the ensemble engine ----------------------------------


class _Height:
    def __call__(self, pts):
        return np.asarray(pts)[..., 2]


def fused_case(name):
    """(model, bundle, potential) with a floor that is negative somewhere."""
    if name == "sphere2_tangent_rank2":
        s2 = Sphere2(1.0)
        V = PotentialSpec(rank=2, const=np.diag([-0.3, 0.5]),
                          terms=[(ScalarField(_Height()), 0.8 * PAULI_X)])
        return s2, tangent_bundle(), V
    s_x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
    V = PotentialSpec(rank=3, const=np.diag([1.0, 0.0, -1.0]),
                      terms=[(ScalarField(_Sine(2.0, 0, 0.3)), s_x),
                             (ScalarField(_Sine(1.3, 1)), np.diag([0.0, 0.5, 1.0]))])
    return E2, None, V


def left_point_sums(model, t, h, n, fn):
    """Left-point sums of fn along each of the engine's first n paths."""
    times, _ = time_grid(t, h)
    res = run_ensemble(model, model.origin(), t, h, KEY, n, checkpoints=times[:-1])
    return np.sum(np.diff(times)[:, None] * fn(res.points[:-1]), axis=0)


@pytest.mark.parametrize("case", ["sphere2_tangent_rank2", "euclidean2_rank3"])
def test_ensemble_floor_matches_left_point_sums(case):
    # the engine reads the floor off the step exponential's eigen-data of
    # W = T^* V T; it must agree with the eigen-solve of V along the path
    model, bundle, V = fused_case(case)
    t, h, n = 0.2, 1e-3, 6
    res = run_ensemble(model, model.origin(), t, h, KEY, n, bundle=bundle, potential=V)
    floor = left_point_sums(model, t, h, n, V.scalar_floor)
    assert np.all(floor < 0)  # the floor's negative part is exercised
    for i in range(n):
        assert abs(res.floor_integral[-1, i] - floor[i]) < 1e-12


# -- product-integral truncation -------------------------------------------


def test_truncation_order_zero_and_one():
    ts, pts = smooth_curve(200, t=1.0)
    W = PotentialSpec(rank=2, const=0.4 * np.eye(2)).matrix(pts)
    assert np.allclose(product_integral_truncation(W, ts, 0), np.eye(2))
    t1 = product_integral_truncation(W, ts, 1)
    assert np.max(np.abs(t1 - (np.eye(2) - 0.4 * np.eye(2)))) < 1e-10


def test_truncation_converges_to_holonomy():
    ts, pts = smooth_curve(4000, t=1.0)
    W = smooth_matrix_potential(scale=0.5).matrix(pts)
    ref = exponential_product(W, ts)
    dts = np.diff(ts)
    l1 = float(np.sum(dts * np.linalg.norm(W[:-1], ord=2, axis=(1, 2))))
    errs = [np.linalg.norm(product_integral_truncation(W, ts, n) - ref, 2)
            for n in (2, 3, 4)]
    assert errs[0] > errs[1] > errs[2]
    # remainder bound of the exponential series at order 4
    bound = l1**5 * math.exp(l1) / math.factorial(5) + 5e-8
    assert errs[2] <= bound + 2e-4  # residual scheme error at this K


def test_truncation_guards():
    ts, pts = smooth_curve(100)
    W = PotentialSpec(rank=2, const=9.0 * np.eye(2)).matrix(pts)
    with pytest.raises(ValueError, match="too large"):
        product_integral_truncation(W, ts, 4)
    with pytest.raises(ValueError, match="order"):
        product_integral_truncation(np.zeros_like(W), ts, 7)


def test_rank_cap():
    with pytest.raises(ValueError, match="rank"):
        PotentialSpec(rank=17, const=np.zeros((17, 17)))


# -- Richardson convergence order -------------------------------------------


def test_richardson_sequence_second_order():
    # the left-point product scheme is first order; its Richardson pair
    # R(h) = 2 E(h/2) - E(h) converges at second order (ratio ~ 4)
    V = smooth_matrix_potential()

    def endpoint(K):
        ts, pts = smooth_curve(K)
        return exponential_product(V.matrix(pts), ts)

    es = {K: endpoint(K) for K in (128, 256, 512, 1024)}
    R = {K: 2 * es[2 * K] - es[K] for K in (128, 256, 512)}
    d1 = np.linalg.norm(R[128] - R[256], 2)
    d2 = np.linalg.norm(R[256] - R[512], 2)
    assert 3.2 <= d1 / d2 <= 4.8


# -- the inequality suite ----------------------------------------------------


def test_appendix_zero_generator_equalities():
    K, d = 32, 3
    F = np.zeros((K, d, d), dtype=complex)
    out = appendix_c_check(F, np.linspace(0.0, 1.0, K + 1))
    # F = 0: Y = 1; bounds a and c hold with equality 1 vs 1
    assert abs(out["margins"]["a_norm"]) < 1e-12
    assert abs(out["margins"]["c_form_bound"]) < 1e-12
    assert abs(out["margins"]["b_dist_to_one"] - 1.0) < 1e-12
    assert not out["violations"]


def test_appendix_identical_pair_zero_distance():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    F = np.broadcast_to(0.5 * (A + A.T), (16, 4, 4)).astype(complex)
    out = appendix_c_check(F, np.linspace(0, 1, 17), pair_F=F.copy())
    assert out["margins"]["schlesi_stability"] >= 0.0
    assert not out["violations"]


def test_appendix_c_suite_randomized():
    rep = appendix_c_suite(trials=60, d=4, t=1.0, grid_n=64, seed=7)
    assert rep["passed"], rep["violations"]
    assert all(v > -1e-8 for v in rep["worst_margins"].values())


def test_appendix_c_requires_c_for_nonhermitian():
    F = np.zeros((8, 2, 2), dtype=complex)
    F[:, 0, 1] = 1.0  # nilpotent, not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        appendix_c_check(F, np.linspace(0, 1, 9))
    out = appendix_c_check(F, np.linspace(0, 1, 9), c=np.full(8, 1.0))
    assert not out["violations"]
