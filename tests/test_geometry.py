import numpy as np
import pytest

from fiberflow.geometry import (Circle, Euclidean, FlatTorus, HyperbolicPlane,
                                NoClosedFormError, Sphere2, ball)

RNG = np.random.default_rng(12345)

ALL_MODELS = [Euclidean(1), Euclidean(2), Euclidean(3), Circle(1.0), Circle(2.5),
              FlatTorus([2 * np.pi, 2 * np.pi]), Sphere2(1.0), Sphere2(0.5),
              HyperbolicPlane()]

CLOSED_FORM = [Euclidean(1), Euclidean(3), Circle(1.0),
               FlatTorus([2 * np.pi, 2 * np.pi]), Sphere2(1.0), HyperbolicPlane()]


def random_points(model, n):
    try:
        return model.volume_sample(RNG, n)
    except NotImplementedError:
        if isinstance(model, HyperbolicPlane):
            z = RNG.uniform(-0.6, 0.6, size=(n, 2))
            return z
        return RNG.uniform(-2.0, 2.0, size=(n, model.coord_dim))


# -- exponential map -----------------------------------------------------


def test_euclidean_exp_flat():
    e2 = Euclidean(2)
    assert np.allclose(e2.exp(np.zeros(2), np.array([1.0, 0.0])), [1.0, 0.0])


def test_sphere_antipode():
    s = Sphere2(1.0)
    o = s.origin()
    y = s.exp(o, np.array([np.pi, 0.0]))
    assert abs(s.distance(o, y) - np.pi) < 1e-9


def test_hyperbolic_exp_origin_radius():
    # unit geodesic step from the disk center lands at euclidean radius tanh(1/2)
    h = HyperbolicPlane()
    p = h.exp(np.zeros(2), np.array([1.0, 0.0]))
    assert abs(np.linalg.norm(p) - np.tanh(0.5)) < 1e-12
    assert abs(np.linalg.norm(p) - 0.46211715726) < 1e-9
    assert abs(h.distance(np.zeros(2), p) - 1.0) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_exp_distance_consistency(model):
    xs = random_points(model, 24)
    xi = RNG.standard_normal((24, model.dim))
    xi *= 0.05 / np.linalg.norm(xi, axis=-1, keepdims=True)
    ys = model.exp(xs, xi)
    d = model.distance(xs, ys)
    assert np.max(np.abs(d - np.linalg.norm(xi, axis=-1))) < 1e-9


@pytest.mark.parametrize("model", [m for m in ALL_MODELS if not isinstance(m, HyperbolicPlane)],
                         ids=lambda m: m.spec_string())
def test_exp_step_reversibility(model):
    # exp(y, -T xi) returns to x, T the transport (the identity on flat models)
    xs = random_points(model, 16)
    xi = RNG.standard_normal((16, model.dim))
    xi *= 1e-2 / np.linalg.norm(xi, axis=-1, keepdims=True)
    if isinstance(model, Sphere2):
        ys, T, _ = model.transport_matrix(xs, xi[None])
        ys, T = ys[0], T[0]
        xi_out = np.einsum("...ij,...j->...i", T, xi)
    else:
        ys, xi_out = model.exp(xs, xi), xi
    back = model.exp(ys, -xi_out)
    assert np.max(model.distance(xs, back)) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_triangle_inequality_sampled(model):
    x = random_points(model, 64)
    y = random_points(model, 64)
    z = random_points(model, 64)
    lhs = model.distance(x, z)
    rhs = model.distance(x, y) + model.distance(y, z)
    assert np.max(lhs - rhs) < 1e-9
    assert np.max(np.abs(model.distance(x, y) - model.distance(y, x))) < 1e-12


# -- heat kernels --------------------------------------------------------


def test_euclidean_kernel_values():
    e1 = Euclidean(1)
    assert abs(e1.heat_kernel(1.0, np.zeros(1), np.zeros(1)) - (2 * np.pi) ** -0.5) < 1e-12
    e3 = Euclidean(3)
    assert abs(e3.sup_heat_kernel(1.0) - (2 * np.pi) ** -1.5) < 1e-12


def test_circle_equilibrium():
    c = Circle(1.0)
    val = c.heat_kernel(80.0, np.zeros(1), np.array([2.0]))
    assert abs(val - 1.0 / (2 * np.pi)) < 1e-12


def test_sphere_diagonal_series():
    # frozen spectral value: sum_l (2l+1) e^{-l(l+1)/4} / (4 pi) at t = 0.5
    expected = sum((2 * l + 1) * np.exp(-l * (l + 1) * 0.25) for l in range(60)) / (4 * np.pi)
    s = Sphere2(1.0)
    o = s.origin()
    assert abs(s.heat_kernel(0.5, o, o) - expected) < 1e-12
    assert abs(expected - 0.34622951) < 1e-7


def test_sphere_small_t_gaussian_asymptotics():
    # p_t(x,x) = (2 pi t)^{-1} (1 + t * Scal/12 + O(t^2)), Scal = 2
    s = Sphere2(1.0)
    o = s.origin()
    for t in (0.02, 0.01):
        lead = (2 * np.pi * t) ** -1 * (1 + t / 6.0)
        assert abs(s.heat_kernel(t, o, o) / lead - 1.0) < 5e-4


def test_sphere_equilibrium():
    s = Sphere2(1.0)
    assert abs(s.sup_heat_kernel(200.0) - 1.0 / (4 * np.pi)) < 1e-12


@pytest.mark.parametrize("model", CLOSED_FORM, ids=lambda m: m.spec_string())
def test_kernel_symmetry(model):
    x = random_points(model, 32)
    y = random_points(model, 32)
    for t in (0.1, 0.7):
        a = model.heat_kernel(t, x, y)
        b = model.heat_kernel(t, y, x)
        assert np.max(np.abs(a - b)) < 1e-12


def quadrature_or_radial(model, level=96):
    """(points, weights) good enough to integrate kernels."""
    try:
        return model.quadrature(level)
    except NotImplementedError:
        pass
    if isinstance(model, Euclidean) and model.dim == 1:
        x, w = np.polynomial.legendre.leggauss(400)
        L = 12.0
        return (L * x)[:, None], L * w
    if isinstance(model, Euclidean) and model.dim == 3:
        # radial rule around the origin; weights carry the sphere area 4 pi r^2
        x, w = np.polynomial.legendre.leggauss(400)
        R = 12.0
        r = 0.5 * R * (x + 1)
        pts = np.zeros((400, 3))
        pts[:, 0] = r
        return pts, 0.5 * R * w * 4 * np.pi * r**2
    if isinstance(model, HyperbolicPlane):
        x, w = np.polynomial.legendre.leggauss(400)
        R = 20.0
        r = 0.5 * R * (x + 1)
        return r, 0.5 * R * w * 2 * np.pi * np.sinh(r)  # radial: weights carry area
    raise NotImplementedError


@pytest.mark.parametrize("model", CLOSED_FORM, ids=lambda m: m.spec_string())
def test_kernel_normalization(model):
    o = model.origin()
    for t in (0.2, 1.0):
        if isinstance(model, HyperbolicPlane):
            r, w = quadrature_or_radial(model)
            total = np.sum(w * model.kernel_at_distance(t, r))
        else:
            pts, w = quadrature_or_radial(model)
            total = np.sum(w * model.heat_kernel(t, o[None, :], pts))
        assert abs(total - 1.0) < 1e-6


@pytest.mark.parametrize("model", [Euclidean(1), Circle(1.0), Sphere2(1.0),
                                   FlatTorus([2 * np.pi, 2 * np.pi])],
                         ids=lambda m: m.spec_string())
def test_chapman_kolmogorov(model):
    pts, w = quadrature_or_radial(model)
    x = model.origin()
    y = random_points(model, 1)[0]
    for (s, t) in ((0.2, 0.3), (0.5, 0.5)):
        lhs = np.sum(w * model.heat_kernel(s, x[None, :], pts)
                     * model.heat_kernel(t, pts, y[None, :]))
        rhs = model.heat_kernel(s + t, x, y)
        assert abs(lhs - rhs) < 1e-6


def test_sup_kernel_monotone_in_t():
    for model in CLOSED_FORM:
        ts = np.array([0.05, 0.1, 0.3, 1.0, 3.0])
        vals = np.array([float(model.sup_heat_kernel(t)) for t in ts])
        assert np.all(np.diff(vals) <= 1e-12), model.spec_string()


def test_euclidean_sup_kernel_inverse_sqrt_form():
    # C_s = c_t s^{-1/2} with c_t = (2 pi)^{-1/2} for all 0 < s <= t, m = 1
    e1 = Euclidean(1)
    c_t = (2 * np.pi) ** -0.5
    s = np.geomspace(1e-4, 1.0, 64)
    assert np.max(e1.sup_heat_kernel(s) - c_t / np.sqrt(s)) <= 1e-15


def fit_gaussian_envelope(model, t):
    """Fit c_t, d_t with p_s(x,y) <= c_t e^{-d_t d^2/s} s^{-m/2} on a grid;
    least-squares for d_t, then an exact upper envelope for c_t."""
    m = model.dim
    ss = np.geomspace(0.05 * t, t, 6)
    xs = random_points(model, 12)
    ys = random_points(model, 12)
    rows = []
    for s in ss:
        p = model.heat_kernel(s, xs, ys)
        d2 = model.distance(xs, ys) ** 2
        mask = p > 1e-280
        rows.append(np.stack([np.log(p[mask]) + 0.5 * m * np.log(s),
                              d2[mask] / s], axis=-1))
    data = np.concatenate(rows)
    A = np.stack([np.ones(len(data)), -data[:, 1]], axis=-1)
    coef, *_ = np.linalg.lstsq(A, data[:, 0], rcond=None)
    d_t = coef[1]
    log_c = float(np.max(data[:, 0] + d_t * data[:, 1]))  # envelope
    resid = data[:, 0] - (log_c - d_t * data[:, 1])
    return np.exp(log_c), d_t, float(np.max(resid))


@pytest.mark.parametrize("model", [Sphere2(1.0), HyperbolicPlane()],
                         ids=lambda m: m.spec_string())
def test_gaussian_comparison_bound(model):
    c_t, d_t, worst = fit_gaussian_envelope(model, t=1.0)
    assert d_t > 0
    assert c_t > 0 and np.isfinite(c_t)
    assert worst <= 1e-12  # envelope residuals must all be <= 0


# -- open subdomains -----------------------------------------------------


def test_subdomain_no_closed_form():
    dom = ball(Euclidean(2), 1.0)
    with pytest.raises(NoClosedFormError):
        dom.heat_kernel(0.5, np.zeros(2), np.zeros(2))


def test_subdomain_contains_and_origin():
    dom = ball(Euclidean(2), 1.0)
    assert dom.contains(np.array([[0.3, 0.1], [1.5, 0.0]])).tolist() == [True, False]
    assert np.allclose(dom.origin(), 0.0)
    with pytest.raises(ValueError):
        ball(Euclidean(2), -1.0)


def test_point_constraints():
    s = Sphere2(1.0)
    pts = random_points(s, 50)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-12
    c = Circle(1.0)
    th = c.exp(np.array([6.0]), np.array([1.0]))
    assert 0.0 <= float(th[0]) < 2 * np.pi


def _frame_by_np_cross(p, radius):
    """Sphere2.frame as np.cross computes it: the reference the frame's
    hand-written cross product must reproduce bit for bit."""
    n = p / radius
    a = np.zeros_like(n)
    np.put_along_axis(a, np.argmin(np.abs(n), axis=-1)[..., None], 1.0, axis=-1)
    e1 = np.cross(a, n)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    return np.stack([e1, np.cross(n, e1)], axis=-1)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_sphere_frame_matches_np_cross_bitwise(axis, radius):
    s = Sphere2(radius)
    pts = random_points(s, 400)
    pts = pts[np.argmin(np.abs(pts), axis=-1) == axis]
    assert len(pts) > 50
    F = s.frame(pts)
    assert F.tobytes() == _frame_by_np_cross(pts, radius).tobytes()


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_sphere_frame_ties_pick_the_first_axis_as_argmin(radius):
    # where two or three |n_i| are equal, the reference axis is the first of
    # them, as argmin picks it; signed zeros included, bit for bit
    s = Sphere2(radius)
    u, w, a = 1 / np.sqrt(2.0), 1 / np.sqrt(3.0), 0.3
    b = np.sqrt(1.0 - 2 * a * a)
    n = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [u, u, 0], [-u, 0, u], [0, u, -u], [w, w, w], [-w, w, -w],
                  [a, a, b], [a, -b, -a], [-b, a, a], [a, b, -a]])
    pts = radius * n
    assert s.frame(pts).tobytes() == _frame_by_np_cross(pts, radius).tobytes()


def test_sphere_step_methods_share_one_endpoint():
    # the path engine passes the frame the previous step returned as F: the
    # step must not depend on where F came from, and the frame it returns
    # must be the one the next step would build at y
    s = Sphere2(1.0)
    x = random_points(s, 64)
    xi = 0.2 * RNG.standard_normal((64, 2))
    xi[:4] = 0.0  # the null-step branch
    y, T, Fy = s.transport_matrix(x, xi[None])
    for a, b in zip((y, T, Fy), s.transport_matrix(x, xi[None], s.frame(x))):
        assert np.array_equal(a, b)
    assert np.array_equal(Fy, s.frame(y[0]))
    assert np.array_equal(y[0], s.exp(x, xi))


def _four_projection_transport(s, x, xi):
    """(exp_x(xi), T) as the sphere built them with np.cross and
    np.linalg.norm: T = img1 src1^T + img2 src2^T from the step direction
    and the binormal, each projected on both frames."""
    F = s.frame(x)
    v = np.einsum("...ij,...j->...i", F, xi)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    alpha = norm / s.radius
    small = norm < 1e-300
    vhat = np.where(small, F[..., :, 0], v / np.where(small, 1.0, norm))
    y = x * np.cos(alpha) + s.radius * vhat * np.sin(alpha)
    y = y * (s.radius / np.linalg.norm(y, axis=-1, keepdims=True))
    nhat = x / s.radius
    that_y = vhat * np.cos(alpha) - nhat * np.sin(alpha)
    w = np.cross(nhat, vhat)
    Fy = s.frame(y)
    img1, img2 = (np.einsum("...i,...ij->...j", u, Fy) for u in (that_y, w))
    src1, src2 = (np.einsum("...i,...ij->...j", u, F) for u in (vhat, w))
    return y, img1[..., :, None] * src1[..., None, :] + img2[..., :, None] * src2[..., None, :]


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_sphere_transport_is_one_pair_rotation(radius):
    # T = [[c, -s], [s, c]] exactly, with c^2 + s^2 = 1 to rounding, and it
    # is the four-projection transport up to rounding; the endpoint is the
    # np.cross / np.linalg.norm one bit for bit
    s = Sphere2(radius)
    x = random_points(s, 10_000)
    xi = radius * RNG.standard_normal((10_000, 2)) * np.exp(RNG.uniform(-8.0, 1.0, (10_000, 1)))
    xi[:100] = 0.0  # the null-step branch
    y, T, _ = s.transport_matrix(x, xi[None])
    y, T = y[0], T[0]
    assert np.array_equal(T[:, 0, 0], T[:, 1, 1]) and np.array_equal(T[:, 0, 1], -T[:, 1, 0])
    assert np.max(np.abs(np.linalg.det(T) - 1.0)) < 1e-15
    y_ref, T_ref = _four_projection_transport(s, x, xi)
    assert np.max(np.abs(T - T_ref)) < 1e-14
    assert np.array_equal(y, y_ref)


def test_sphere_step_sums_start_from_plus_zero_as_einsum():
    # from a point with a zero coordinate, a step with a -0 component and an
    # angle past pi/2 meets v_i = -0 + -0 there: einsum's sum, which starts
    # from +0, makes it +0, and so must the walk, or y_i comes out -0
    s = Sphere2(1.0)
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    xi = np.array([[-2.0, -0.0], [-2.0, -0.0], [-0.0, -2.0]])
    y_ref, _ = _four_projection_transport(s, x, xi)
    assert s.exp(x, xi).tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_sphere_distance_matches_np_cross_bitwise(radius):
    s = Sphere2(radius)
    x, y = random_points(s, 1000), random_points(s, 1000)
    y[:10] = x[:10]
    ref = radius * np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1) / radius**2,
                              np.sum(x * y, axis=-1) / radius**2)
    assert s.distance(x, y).tobytes() == ref.tobytes()


def test_sphere_transport_is_real_rotation():
    s = Sphere2(1.0)
    x = random_points(s, 64)
    xi = 0.2 * RNG.standard_normal((64, 2))
    xi[:4] = 0.0  # the null-step branch
    T = s.transport_matrix(x, xi[None])[1][0]
    assert T.dtype == np.float64
    assert np.max(np.abs(np.swapaxes(T, -1, -2) @ T - np.eye(2))) < 1e-12
    assert np.max(np.abs(np.linalg.det(T) - 1.0)) < 1e-12
    assert np.max(np.abs(T[:4] - np.eye(2))) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_euclidean_distance_matches_linalg_norm_bitwise(m):
    # magnitudes from 1e-200 to 1e200: squares under- and overflow alike
    e = Euclidean(m)
    scale = 10.0 ** RNG.uniform(-200, 200, size=(2000, 1))
    x, y = scale * RNG.standard_normal((2000, m)), scale * RNG.standard_normal((2000, m))
    with np.errstate(over="ignore", under="ignore"):
        ref = np.linalg.norm(x - y, axis=-1)
        assert e.distance(x, y).tobytes() == ref.tobytes()
        assert e.distance(x[0], y[0]).tobytes() == np.linalg.norm(x[0] - y[0]).tobytes()
