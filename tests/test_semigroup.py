import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from fiberflow import paths
from fiberflow.bundles import magnetic_bundle, tangent_bundle, trivial_bundle
from fiberflow.cli import EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, main
from fiberflow.config import parse_potential
from fiberflow.geometry import Circle, Euclidean, FlatTorus, HyperbolicPlane, Sphere2, ball
from fiberflow.oracle import circle_magnetic_semigroup_constant, levy_area_charfn
from fiberflow.paths import _reduce, run_ensemble
from fiberflow.potentials import (PotentialSpec, ScalarField, SectionSpec, angle_form,
                                  constant_field, constant_section, gaussian_section,
                                  harmonic_field, harmonic_ground_section, landau_form,
                                  spinor_section)
from fiberflow.rng import RngKey
from fiberflow.semigroup import (_assert_domination, domination_check, fk_scalar, fk_vector,
                                 ground_energy, heat_pq_norm_check,
                                 perturbation_formula_check, resolvent_apply,
                                 semigroup_identity_check)

KEY = RngKey(424242)
E1 = Euclidean(1)
E2 = Euclidean(2)
PHI0 = harmonic_ground_section(1.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def test_free_constant_is_one_deterministic():
    t2 = FlatTorus([2 * np.pi, 2 * np.pi])
    est = fk_scalar(t2, constant_field(0.0), constant_section(1.0), np.zeros(2),
                    0.5, 1e-3, 300, KEY)
    assert est.value == 1.0 and est.stderr == 0.0 and est.alive_fraction == 1.0


def test_free_flow_weighs_by_survival():
    # V = None is the free flow: no holonomy and no floor integral, so on a
    # ball every sample of the constant section is its path's survival
    est = fk_vector(ball(E1, 1.0), None, None, constant_section(1.0), np.zeros(1),
                    0.5, 1e-3, 2000, KEY)
    assert 0.0 < est.alive_fraction < 1.0
    assert est.value == est.alive_fraction
    assert est.extras["floor_weight_mean"] == est.alive_fraction


def test_free_gaussian_convolution():
    est = fk_scalar(E1, constant_field(0.0), gaussian_section(E1, 1.0), np.zeros(1),
                    1.0, 1e-3, 30000, KEY)
    assert abs(est.value - 2.0**-0.5) < 3 * est.stderr + 1e-4


def test_mehler_ground_state():
    est = fk_scalar(E1, harmonic_field(E1, 1.0), PHI0, np.zeros(1), 1.0, 1e-3,
                    30000, KEY)
    ref = math.exp(-0.5) * np.pi**-0.25
    assert abs(est.value - ref) < 3 * est.stderr


@pytest.mark.parametrize("shape, is_complex", [((5, 777, 2), True), ((3, 1500), False)],
                         ids=["complex", "real"])
def test_reduce_rows_are_separate_reductions(shape, is_complex):
    # one call over C checkpoints has the bits of C reductions, one per
    # checkpoint, of the formula written out on a (n, *fibre) set
    z = np.random.default_rng(11).standard_normal((2,) + shape)
    samples = z[0] + 1j * z[1] if is_complex else z[0]
    mean, se = _reduce(samples)
    for c, s in enumerate(samples):
        var = np.var(s.real, axis=0, ddof=1)
        if is_complex:
            var = var + np.var(s.imag, axis=0, ddof=1)
        assert np.array_equal(mean[c], s.mean(axis=0))
        assert np.array_equal(se[c], np.sqrt(var / len(s)))


def test_fk_vector_value_is_the_last_per_time_row():
    f2 = constant_section([1.0, 0.3], rank=2)
    est = fk_vector(E2, trivial_bundle(2), random_hermitian_potential(), f2, np.zeros(2),
                    0.2, 1e-2, 300, KEY, checkpoints=(0.1,))
    per_time = est.extras["per_time"]
    assert len(per_time["times"]) == 2
    assert np.array_equal(per_time["value"][-1], est.value)
    assert np.array_equal(per_time["stderr"][-1], est.stderr)


def test_vector_reduces_to_scalar_with_shared_seeds():
    # V = 0 on a trivialized rank-2 bundle: componentwise equal to the
    # scalar estimator on the same streams
    f2 = constant_section([1.0, 1.0], rank=2)
    ev = fk_vector(E2, trivial_bundle(2), PotentialSpec.zero(2), f2, np.zeros(2),
                   0.4, 1e-3, 500, KEY)
    es = fk_scalar(E2, constant_field(0.0), constant_section(1.0), np.zeros(2),
                   0.4, 1e-3, 500, KEY)
    assert np.allclose(ev.value, es.value)


def test_scalar_factorization_exact():
    # V = c I multiplies the free result by e^{-ct} exactly per sample
    f2 = constant_section([1.0, 0.5], rank=2)
    e0 = fk_vector(E2, trivial_bundle(2), PotentialSpec.zero(2), f2, np.zeros(2),
                   0.7, 1e-3, 400, KEY)
    ec = fk_vector(E2, trivial_bundle(2), PotentialSpec(rank=2, const=0.9 * np.eye(2)),
                   f2, np.zeros(2), 0.7, 1e-3, 400, KEY)
    assert np.allclose(ec.value, math.exp(-0.9 * 0.7) * np.asarray(e0.value))


def test_diag_potential_decouples():
    f2 = constant_section([1.0, 1.0], rank=2)
    est = fk_vector(E2, trivial_bundle(2), PotentialSpec(rank=2, const=np.diag([0.3, 0.8])),
                    f2, np.zeros(2), 0.7, 1e-3, 200, KEY)
    assert np.allclose(est.value, np.exp(-0.7 * np.array([0.3, 0.8])))


def _first_tangent_eigenfield(s2, kind):
    """Frame coefficients F(p)^T v(p) of the Killing field v = e x p or the
    gradient field v = e - (e.p) p / r^2 on s2, e the x axis."""
    e, r2 = np.array([1.0, 0.0, 0.0]), s2.radius**2

    def v(p):
        return np.cross(e, p) if kind == "killing" else e - (p @ e)[..., None] * p / r2

    return SectionSpec(rank=2, fn=lambda p: np.einsum("...ij,...i->...j", s2.frame(p), v(p)),
                       norm_bound=s2.radius if kind == "killing" else 1.0, name=kind)


@pytest.mark.parametrize("kind", ["killing", "gradient"])
@pytest.mark.parametrize("radius", [1.0, 0.7])
def test_tangent_transport_matches_first_eigenfields(kind, radius):
    # both fields are eigenfields of the rough Laplacian on the sphere of
    # radius r (Bochner: Hodge eigenvalue 2/r^2 minus Ric = 1/r^2), so
    # e^{-t nabla* nabla / 2} v = e^{-t/(2 r^2)} v, and under V = c I the
    # semigroup is e^{-t (c + 1/(2 r^2))}
    s2 = Sphere2(radius)
    f = _first_tangent_eigenfield(s2, kind)
    c, t, h, n, x0 = 0.3, 0.5, 5e-3, 8192, s2.origin()
    V = PotentialSpec(rank=2, const=c * np.eye(2))
    exact = math.exp(-t * (c + 0.5 / radius**2)) * f(x0)
    est = fk_vector(s2, tangent_bundle(), V, f, x0, t, h, n, KEY)
    assert np.max(np.abs(est.value - exact) / est.stderr) < 3
    # the same streams without the transport read the coefficients in
    # unrelated frames and miss
    bare = fk_vector(s2, trivial_bundle(2), V, f, x0, t, h, n, KEY)
    assert np.max(np.abs(bare.value - exact) / bare.stderr) > 20


def test_tangent_ground_energy_of_killing_field():
    # the Killing field is the bottom of nabla* nabla / 2 on its sector, so
    # the log-decay slope of <f, e^{-tH} f> is c + 1/(2 r^2); without the
    # transport the slope drifts to the scalar bottom c
    s2 = Sphere2(1.0)
    f = _first_tangent_eigenfield(s2, "killing")
    c, t_grid, h, n = 0.3, [1.0, 1.5, 2.0, 2.5, 3.0, 3.5], 2e-2, 20000
    V = PotentialSpec(rank=2, const=c * np.eye(2))
    exact = c + 0.5 / s2.radius**2
    out = ground_energy(s2, V, f, f, t_grid, h, n, KEY, bundle=tangent_bundle())
    assert abs(out["energy"] - exact) < 3 * out["stderr"]
    bare = ground_energy(s2, V, f, f, t_grid, h, n, KEY, bundle=trivial_bundle(2))
    assert abs(bare["energy"] - exact) > 5 * bare["stderr"]


def test_magnetic_zero_form_matches_scalar_exactly():
    est_m = fk_vector(E2, magnetic_bundle(landau_form(0.0)), constant_field(0.2),
                      constant_section(1.0), np.zeros(2), 0.5, 1e-3, 400, KEY)
    est_s = fk_scalar(E2, constant_field(0.2), constant_section(1.0), np.zeros(2),
                      0.5, 1e-3, 400, KEY)
    assert est_m.value == pytest.approx(est_s.value, abs=0.0)


def test_magnetic_circle_spectral_value():
    c = Circle(1.0)
    est = fk_vector(c, magnetic_bundle(angle_form(0.5)), constant_field(0.0),
                    constant_section(1.0), np.zeros(1), 1.0, 1e-3, 30000, KEY)
    ref = circle_magnetic_semigroup_constant(0.5, 1.0)
    assert abs(est.value - ref) < 3 * est.stderr + 1e-3
    assert abs(est.value.imag) < 3 * est.stderr


def test_magnetic_landau_magnitude_and_levy():
    est = fk_vector(E2, magnetic_bundle(landau_form(1.0)), constant_field(0.0),
                    constant_section(1.0), np.zeros(2), 1.0, 1e-3, 50000, KEY)
    assert abs(est.value) <= 1.0 + 1e-12
    assert abs(est.value - levy_area_charfn(1.0, 1.0)) < 3 * est.stderr + 1e-3


def test_per_sample_magnetic_domination():
    # |magnetic weight| = scalar weight per path: Cor-dsu mechanism
    res = run_ensemble(E2, np.zeros(2), 0.4, 1e-3, KEY, 300, bundle=magnetic_bundle(
        landau_form(0.7)), potential=PotentialSpec.scalar(constant_field(0.3)))
    w_mag = res.holonomy[-1, :, 0, 0] * res.transport[-1, :, 0, 0].conj()
    w_sca = np.exp(-res.floor_integral[-1])
    assert np.max(np.abs(np.abs(w_mag) - w_sca)) < 1e-14


def test_commuting_spin1_potential_has_no_left_point_bias():
    # V = C + |x|^2/2 I with C = diag(1,0,-1) + S_x / 2 constant: C commutes
    # with the scalar part, so from the origin of R^2 the semigroup is
    # e^{-tC} f E[e^{-int |B|^2/2}] = e^{-tC} f / cosh t.  The scalar part
    # takes the trapezoid rule and C's step exponential is exact, so at
    # h = 2e-2 the estimate lands within 3 se with no discretization
    # allowance (the left-point product of V(x) read z = 12 here)
    V = parse_potential(E2, "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, "
                            "harmonic(1.0) @ id)")
    s_x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
    C = np.diag([1.0, 0.0, -1.0]) + 0.5 * s_x
    f3 = constant_section([1.0, 1.0, 1.0], rank=3)
    t, h, n = 0.4, 2e-2, 2**15
    est = fk_vector(E2, trivial_bundle(3), V, f3, np.zeros(2), t, h, n, KEY)
    exact = expm(-t * C) @ np.ones(3) / math.cosh(t)
    assert np.all(np.abs(est.value - exact) < 3 * est.stderr)


# -- domination --------------------------------------------------------------


def random_hermitian_potential(scale=0.6):
    class _S1:
        def __call__(self, pts):
            return np.sin(1.7 * np.asarray(pts)[..., 0])

    class _S2:
        def __call__(self, pts):
            return np.cos(2.3 * np.asarray(pts)[..., -1]) - 0.4

    return PotentialSpec(rank=2, const=0.2 * np.eye(2),
                         terms=[(ScalarField(_S1()), scale * PAULI_Z),
                                (ScalarField(_S2()), 0.8 * scale * PAULI_X)])


def test_domination_scalar_case_saturates():
    # V = v I: per-sample equality within 1e-10
    v = harmonic_field(E2, 1.0)
    V = PotentialSpec(rank=2, const=np.zeros((2, 2)), terms=[(v, np.eye(2))])
    f2 = constant_section([1.0, 0.0], rank=2)
    rep = domination_check(E2, trivial_bundle(2), V, f2, np.zeros(2), 0.4, 1e-3,
                           500, KEY)
    assert rep["passed"]
    assert abs(rep["mean_lhs"] - rep["mean_rhs"]) < 1e-10
    # lhs == rhs on every path, so the paired margin has no spread
    assert rep["mean_margin_stderr"] < 1e-12


def test_domination_random_hermitian_field():
    f2 = constant_section([1.0, 1.0], rank=2)
    rep = domination_check(E2, trivial_bundle(2), random_hermitian_potential(), f2,
                           np.zeros(2), 0.5, 1e-3, 4000, KEY)
    assert rep["passed"] and rep["violations"] == 0


# V = v sigma_z with v >= 0: the holonomy is diag(e^{-int v}, e^{int v}) and
# the floor -v, so on the section (0, 1) ||holonomy f|| = e^{-int floor}.
# An identity part would take the scalar route, which no step exponential
# reaches
SATURATED = PotentialSpec(rank=2, const=np.zeros((2, 2)),
                          terms=[(harmonic_field(E2, 1.0), PAULI_Z)])
SATURATED_SECTION = constant_section([0.0, 1.0], rank=2)
SATURATED_ARGV = ["--manifold", "euclidean(m=2)", "--bundle-rank", "2", "--potential",
                  "matrix(rank=2, harmonic(1.0) @ pauli_z)", "--section", "constant(0,1)",
                  "--x", "0,0", "--t", "0.2", "--h", "1e-3", "--n", "200"]


def _inflate_step_exponentials(monkeypatch, factor=1.0 + 1e-6):
    # a deliberately wrong integrator: every step exponential grows by factor
    exact = paths.expm_neg_hermitian

    def inflated(W, dt):
        step, lam_min = exact(W, dt)
        return step * factor, lam_min

    monkeypatch.setattr(paths, "expm_neg_hermitian", inflated)


def test_domination_assert_fires_on_broken_integrator(monkeypatch):
    # SATURATED saturates domination, so 200 steps of 1e-6 excess break it
    args = (E2, trivial_bundle(2), SATURATED, SATURATED_SECTION, np.zeros(2), 0.2, 1e-3, 200,
            KEY)
    fk_vector(*args)
    _inflate_step_exponentials(monkeypatch)
    with pytest.raises(RuntimeError, match="per-sample domination violated"):
        fk_vector(*args)


def test_broken_integrator_exit_codes(monkeypatch, capsys):
    for command, code in (("semigroup", EXIT_OK), ("domination", EXIT_OK)):
        assert main([command, *SATURATED_ARGV]) == code
    capsys.readouterr()
    _inflate_step_exponentials(monkeypatch)
    assert main(["semigroup", *SATURATED_ARGV]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: per-sample domination violated")
    assert main(["domination", *SATURATED_ARGV]) == EXIT_CHECK_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert not doc["passed"] and doc["violations"] > 0


def test_domination_tolerance_is_per_sample():
    # a grid run mixes floor sides of every size: 5e-9 over a floor side of
    # 0 breaks domination even next to a sample whose floor side is 1e3
    rhs = np.array([[1e3, 0.0]])
    _assert_domination(np.array([[1e3, 5e-10]]), rhs)
    with pytest.raises(RuntimeError, match="checkpoint 0, path 1"):
        _assert_domination(np.array([[1e3, 5e-9]]), rhs)


def test_non_finite_vector_samples_raise():
    # NaN > tolerance is False: a NaN sample would pass the domination count
    f = SectionSpec(rank=2, fn=lambda x: np.full(x.shape[:-1] + (2,), np.nan, dtype=complex))
    with pytest.raises(RuntimeError, match="non-finite vector samples"):
        domination_check(E2, trivial_bundle(2), SATURATED, f, np.zeros(2), 0.1, 1e-2, 10, KEY)


def test_quadratic_form_domination_shared_seeds():
    # Re<sample_V f, f(x)> <= scalar-floor sample on |f||f(x)|, start points
    # from the volume measure on the torus
    t2 = FlatTorus([2 * np.pi, 2 * np.pi])
    V = random_hermitian_potential()
    f2 = constant_section([0.8, 0.6], rank=2)
    from fiberflow.rng import stream

    starts = t2.volume_sample(stream(KEY.child(1 << 50)), 2000)
    res = run_ensemble(t2, starts, 0.4, 1e-3, KEY, 2000, bundle=trivial_bundle(2),
                       potential=V)
    fe = f2(res.points[-1])
    samples = np.einsum("nij,nj->ni", res.holonomy[-1], fe)
    fx = f2(starts)
    lhs = np.real(np.einsum("ni,ni->n", samples, fx.conj()))
    rhs = np.exp(-res.floor_integral[-1]) * np.linalg.norm(fe, axis=-1) \
        * np.linalg.norm(fx, axis=-1)
    diffs = rhs - lhs
    assert np.min(diffs) > -1e-10  # pointwise via Cauchy-Schwarz + domination
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert diffs.mean() > -3 * se


def test_ground_energy_ordering_vector_vs_floor():
    # E_{H(V)} >= E_{H0(floor)} - 3 se on the torus
    t2 = FlatTorus([2 * np.pi, 2 * np.pi])
    V = random_hermitian_potential(scale=0.4)
    vol = float(np.prod(t2.periods))
    f1 = spinor_section(constant_section(vol**-0.5), np.array([1.0, 1.0]) / np.sqrt(2))
    tg = np.arange(0.5, 4.01, 0.5)
    gv = ground_energy(t2, V, f1, f1, tg, 2e-3, 20000, KEY, bundle=trivial_bundle(2))

    class _Floor:
        def __init__(self, V):
            self.V = V

        def __call__(self, pts):
            return self.V.scalar_floor(pts)

    floor_field = ScalarField(_Floor(V), class_tag="bounded", name="floor")
    f1s = constant_section(vol**-0.5)
    f1s.l2_norm = 1.0
    gs = ground_energy(t2, floor_field, f1s, f1s, tg, 2e-3, 20000, KEY)
    assert gv["energy"] >= gs["energy"] - 3 * math.hypot(gv["stderr"], gs["stderr"])


# -- harmonic-oscillator benchmark, resolvents, identities -------------------


def test_ground_energy_rank1_vector_branch():
    # a transporting rank-1 bundle without a 1-form takes the vector branch;
    # its rank-1 samples used to break the projection onto f1
    f = gaussian_section(E2, 1.0)
    out = ground_energy(E2, harmonic_field(E2, 1.0), f, f, [0.1, 0.2, 0.3, 0.4], 1e-2, 200,
                        KEY, bundle=magnetic_bundle(landau_form(0.5)), radius=3)
    assert np.isfinite(out["energy"]) and out["n"] == 200


def test_ground_energy_magnetic_is_fock_darwin():
    # the bottom of (1/2)(-i grad - A)^2 + |x|^2/2 with A = landau(lam), a
    # field B = lam, is Omega = sqrt(1 + lam^2/4) (Fock 1928; Darwin 1931):
    # sqrt(2) at lam = 2, well above the field-free 1
    f = gaussian_section(E2, 1.0)
    out = ground_energy(E2, harmonic_field(E2, 1.0), f, f, [0.5, 1.0, 1.5, 2.0], 1e-2, 40_000,
                        KEY, bundle=magnetic_bundle(landau_form(2.0)), radius=4)
    se = out["stderr"]
    assert abs(out["energy"] - math.sqrt(2.0)) < 3 * se
    assert out["energy"] - 1.0 > 5 * se


def test_ground_energy_stderr_is_the_real_parts(monkeypatch):
    # only the real part of the mean enters the log, so the stderr is the
    # real part's: the imaginary spread of magnetic samples must not widen it
    from fiberflow import semigroup

    seen = []
    monkeypatch.setattr(semigroup, "_reduce", lambda s: (seen.append(s), _reduce(s))[1])
    f = gaussian_section(E2, 1.0)
    out = ground_energy(E2, harmonic_field(E2, 1.0), f, f, [0.1, 0.2, 0.3, 0.4], 1e-2, 200,
                        KEY, bundle=magnetic_bundle(landau_form(2.0)), radius=3)
    samples = seen[0]
    assert np.iscomplexobj(samples) and np.any(samples.imag != 0)
    assert not np.iscomplexobj(seen[-1])
    want = _reduce(samples.real)[1] / _reduce(samples)[0].real
    assert out["per_time"]["stderr"] == want.tolist()


def test_ground_energy_refuses_box_starts_on_a_non_isometric_chart():
    # a box in Poincare-disk coordinates is not uniform in dvol, so the starts
    # and Z would be off (Z read 0.977 against 8.864 for gaussian(1.0))
    H = HyperbolicPlane()
    f = gaussian_section(H, 1.0)
    with pytest.raises(ValueError, match="manifold hyperbolic"):
        ground_energy(H, harmonic_field(H, 1.0), f, f, [0.1, 0.2, 0.3, 0.4], 1e-2, 10, KEY,
                      radius=0.5)


@pytest.mark.parametrize("base, r, radius, Z_exact", [
    # int_{-1}^{1} e^{-y^2/2} dy and int_0^{1/2} e^{-a^2/2} 2 pi sin(a) da
    (Euclidean(1), 1.0, 3.0, math.sqrt(2 * math.pi) * math.erf(1 / math.sqrt(2))),
    (Sphere2(1.0), 0.5, None, 2 * math.pi * 0.11512578028262904),
], ids=["euclidean", "sphere2"])
def test_rejection_starts_stay_in_the_domain(base, r, radius, Z_exact):
    from fiberflow.geometry import ball
    from fiberflow.semigroup import _rejection_starts

    domain = ball(base, r)
    pts, Z = _rejection_starts(domain, gaussian_section(base, 1.0), 500, KEY, radius=radius)
    assert len(pts) == 500 and np.all(domain.contains(pts))
    if isinstance(base, Sphere2):  # on the sphere, not off it in R^3
        assert np.allclose(np.linalg.norm(pts, axis=-1), 1.0)
    assert Z == pytest.approx(Z_exact, rel=0.02)


def test_ground_energy_needs_enough_grid():
    with pytest.raises(ValueError, match="t_grid"):
        ground_energy(E1, harmonic_field(E1, 1.0), PHI0, PHI0, [1.0, 2.0], 1e-3,
                      100, KEY, radius=8.0)


def test_resolvent_free_torus_exact():
    t2 = FlatTorus([2 * np.pi, 2 * np.pi])
    est = resolvent_apply(t2, None, constant_field(0.0), constant_section(1.0),
                          np.zeros(2), 1, 2.0, 1e-3, 100, KEY)
    assert est.value == pytest.approx(0.5, abs=1e-12)


def test_resolvent_eigenfunction():
    est = resolvent_apply(E1, None, harmonic_field(E1, 1.0), PHI0, np.zeros(1), 1,
                          1.0, 2e-3, 3000, KEY, n_quad=16)
    ref = np.pi**-0.25 / 1.5
    assert abs(est.value - ref) / ref < 0.05
    assert est.extras["per_sample_resolvent_domination_margin"] <= 1e-9


def test_resolvent_rejects_bad_lambda():
    with pytest.raises(ValueError, match="lambda"):
        resolvent_apply(E1, None, constant_field(0.0), PHI0, np.zeros(1), 1, -1.0,
                        1e-3, 100, KEY)


@pytest.mark.parametrize("k", [172, 400])
def test_resolvent_rejects_a_power_whose_gamma_overflows(k):
    # Gamma(k) and the Gauss-Laguerre weights, which sum to it, overflow a
    # float past k = 171; the check comes before any path runs
    with pytest.raises(ValueError, match=r"k in 1\.\.171"):
        resolvent_apply(E1, None, constant_field(0.0), PHI0, np.zeros(1), k, 1.0,
                        1e-3, 100, KEY)


def test_identity_degenerate_and_noisy():
    v = harmonic_field(E1, 1.0)
    rep0 = semigroup_identity_check(E1, None, v, PHI0, 0.0, 0.8, np.zeros(1), 1e-3,
                                    2000, KEY)
    assert rep0["exact_degenerate"] and rep0["difference"] == 0.0
    rep = semigroup_identity_check(E1, None, v, PHI0, 0.5, 0.5, np.zeros(1), 1e-3,
                                   4000, KEY)
    assert rep["passed"]


def test_identity_free_constant_exact():
    t2 = FlatTorus([2 * np.pi, 2 * np.pi])
    rep = semigroup_identity_check(t2, None, constant_field(0.0),
                                   constant_section(1.0), 0.3, 0.3, np.zeros(2),
                                   1e-3, 400, KEY)
    assert rep["difference"] < 1e-12


def test_perturbation_degenerate_and_noisy():
    v = harmonic_field(E1, 1.0)
    rep0 = perturbation_formula_check(E1, None, v, PHI0, 0.0, 0.6, np.zeros(1),
                                      1e-3, 1500, KEY)
    assert rep0["exact_degenerate"]
    rept = perturbation_formula_check(E1, None, v, PHI0, 0.6, 0.6, np.zeros(1),
                                      1e-3, 1500, KEY)
    assert rept["exact_degenerate"]
    rep = perturbation_formula_check(E1, None, v, PHI0, 0.3, 0.6, np.zeros(1),
                                     1e-3, 4000, KEY)
    assert rep["passed"]


def test_perturbation_rank2():
    V = random_hermitian_potential(scale=0.3)
    f2 = constant_section([1.0, 0.3], rank=2)
    rep = perturbation_formula_check(E2, trivial_bundle(2), V, f2, 0.2, 0.5,
                                     np.zeros(2), 1e-3, 3000, KEY)
    assert rep["passed"]


def test_identity_refuses_non_kato():
    from fiberflow.potentials import inverse_square_field

    e3 = Euclidean(3)
    bad = inverse_square_field(e3, 1.0)
    with pytest.raises(ValueError, match="Kato"):
        semigroup_identity_check(e3, None, bad, constant_section(1.0), 0.1, 0.2,
                                 np.array([1.0, 0, 0]), 1e-3, 100, KEY)


# -- h-refinement -------------------------------------------------------------


def test_h_refinement_bias_monotone_within_noise(coarse_trapezoids):
    # common-path coarsening: trapezoids over every 4th, 2nd and 1st point
    # of the same fine paths are exactly the coarse-h estimators
    v = harmonic_field(E1, 1.0)
    integrals, ends = coarse_trapezoids(E1, v, np.zeros(1), 1.0, 1e-3, KEY, 60000, (1, 2, 4))
    fe = PHI0(ends)
    ref = math.exp(-0.5) * np.pi**-0.25
    bias = {}
    se = {}
    for s in (1, 2, 4):
        w = np.exp(-integrals[s]) * fe
        bias[s] = abs(w.mean() - ref)
        se[s] = w.std(ddof=1) / math.sqrt(len(w))
    assert bias[2] <= bias[4] + 3 * se[4]
    assert bias[1] <= bias[2] + 3 * se[2]


# -- heat p,q norms ------------------------------------------------------------


def test_heat_pq_contraction_includes_equality_case():
    s2 = Sphere2(1.0)

    def const_probe(pts):
        return np.ones(pts.shape[:-1])

    rep = heat_pq_norm_check(s2, 0.5, [const_probe])
    assert rep["passed"]
    # p = q = 2 on a constant probe: P_t 1 = 1, ratio exactly 1 vs bound 1
    row = [r for r in rep["pairs"] if r["p"] == 2 and r["q"] == 2][0]
    assert row["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_heat_pq_equilibrium_saturation():
    # t -> infinity: ||P_t f||_inf / ||f||_2 for f = const approaches
    # C_t^{1/2} -> (4 pi)^{-1/2}
    s2 = Sphere2(1.0)
    t = 60.0
    Ct = float(s2.sup_heat_kernel(t))
    pts, w = s2.quadrature(32)
    fv = np.ones(len(pts))
    gram = s2.heat_kernel(t, pts[:, None, :], pts[None, :, :])
    Ptf = gram @ (w * fv)
    ratio = np.max(np.abs(Ptf)) / np.sqrt(np.sum(w * fv**2))
    assert abs(Ct**0.5 - (4 * np.pi) ** -0.5) < 5e-2 * (4 * np.pi) ** -0.5
    assert ratio <= Ct**0.5 * (1 + 1e-9)
    assert ratio >= 0.95 * Ct**0.5


# -- continuity scan -------------------------------------------------------------


@pytest.mark.parametrize("points, offset", [(32, 64), (64, 64), (65, 65)])
def test_continuity_scan_global_bound_streams_follow_part_i(points, offset, monkeypatch):
    # part (iii) starts past part (i)'s last stream, and past 64 points on a
    # smaller grid, where its streams are unchanged
    from fiberflow import semigroup
    from fiberflow.geometry import ball
    n, starts = 4, []
    grid_reduce = semigroup._grid_reduce

    def recording(run, reduce, grid, n_, key):
        starts.append(key.stream_index)
        return grid_reduce(run, reduce, grid, n_, key)

    monkeypatch.setattr(semigroup, "_grid_reduce", recording)
    dom = ball(E1, 1.0)
    grid = np.linspace(-0.8, 0.8, points)[:, None]
    semigroup.continuity_scan(dom, None, harmonic_field(dom, 1.0), harmonic_ground_section(1.0),
                              0.1, grid, 2e-2, n, KEY, cv=1.0)
    assert starts == [KEY.stream_index, KEY.stream_index + offset * n]
