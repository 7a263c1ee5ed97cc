import math

import numpy as np
import pytest

from fiberflow.geometry import Circle, Euclidean, ball
from fiberflow.kato import (AbsField, _default_x_grid, kato_report, kato_sup_integral,
                            khasminskii_check, khasminskii_constants, lp_inclusion_check,
                            smoothed_abs_field)
from fiberflow.oracle import smeared_coulomb
from fiberflow.potentials import (constant_field, coulomb_field, inverse_square_field,
                                  power_field, well_field)
from fiberflow.rng import RngKey

E3 = Euclidean(3)
XG3 = _default_x_grid(E3, np.zeros(3))
T_GRID = np.geomspace(1e-4, 0.25, 8)


def test_constant_field_gives_t_exactly():
    out = kato_sup_integral(E3, constant_field(1.0), 0.3, np.zeros((1, 3)))
    assert abs(out["value"] - 0.3) < 3e-3 * 0.3
    assert out["converged"]


def test_subdomain_value_bounded_by_t():
    dom = ball(Euclidean(2), 1.0)
    out = kato_sup_integral(dom, constant_field(1.0), 0.2, np.zeros((1, 2)))
    assert out["value"] <= 0.2 * (1 + 1e-2)


def test_spatial_integral_matches_smeared_coulomb():
    v = coulomb_field(E3, 0.5)
    for s in (1e-4, 1e-2, 0.3):
        got = smoothed_abs_field(E3, v, s, np.zeros(3))
        assert abs(got - 0.5 * math.sqrt(2.0 / (math.pi * s))) < 1e-10 / s
    got = smoothed_abs_field(E3, v, 1e-2, np.array([0.7, 0.0, 0.0]))
    want = 0.5 * float(smeared_coulomb(0.7, 1e-2))
    assert abs(got - want) < 1e-12


def test_lower_dimension_kernels():
    # m = 1 and m = 2 angular-average forms against reference quadrature
    e1 = Euclidean(1)
    v1 = power_field(e1, 1.0, 0.5)
    got = smoothed_abs_field(e1, v1, 0.05, np.array([0.3]))
    # substitution y = w|w| turns the integrand smooth: the reference is
    # 2 int ker(w|w|) dw, trapezoid-accurate
    ws = np.linspace(-np.sqrt(12.0), np.sqrt(12.0), 400001)
    ys = ws * np.abs(ws)
    ker = (2 * np.pi * 0.05) ** -0.5 * np.exp(-((ys - 0.3) ** 2) / 0.1)
    want = 2.0 * np.trapezoid(ker, ws)
    assert abs(got - want) / want < 1e-5
    # m = 2: the closed-form angular integral against direct quadrature,
    # then the radial rule against a dense semi-analytic reference
    from scipy.special import i0e

    s, D, r = 0.02, 0.4, 0.37
    phi = np.linspace(0, 2 * np.pi, 200001)
    direct = np.trapezoid(
        (2 * np.pi * s) ** -1 * np.exp(-(D**2 + r**2 - 2 * D * r * np.cos(phi)) / (2 * s)),
        phi)
    formula = np.exp(-((D - r) ** 2) / (2 * s)) * i0e(r * D / s) / s
    assert abs(direct - formula) / direct < 1e-12
    e2 = Euclidean(2)
    v2 = coulomb_field(e2, 1.0)
    got2 = smoothed_abs_field(e2, v2, s, np.array([D, 0.0]))
    rr = np.concatenate([np.geomspace(1e-10, 0.05, 2000),
                         np.linspace(0.05, 1.6, 200000)])
    A = np.exp(-((D - rr) ** 2) / (2 * s)) * i0e(rr * D / s) / s
    want2 = np.trapezoid(A, rr)  # jacobian r cancels the 1/r profile
    assert abs(got2 - want2) / want2 < 1e-6


def test_coulomb_consistent_with_half_exponent():
    rep = kato_report(E3, coulomb_field(E3, 0.5), T_GRID, XG3)
    assert rep.verdict == "katoConsistent"
    assert abs(rep.fitted_decay_exponent - 0.5) <= 0.1
    # monotone: nonincreasing as t decreases
    assert np.all(np.diff(rep.sup_integral) <= 1e-8)


def test_inverse_square_fails_decay():
    rep = kato_report(E3, inverse_square_field(E3, 0.5), T_GRID, XG3)
    assert rep.verdict == "failsDecay"
    assert "divergent_stub" in rep.notes


def test_bounded_field_consistent():
    v = well_field(E3, depth=2.0, r=0.5)
    rep = kato_report(E3, v, T_GRID, XG3)
    assert rep.verdict == "katoConsistent"
    # supIntegral <= ||v||_inf * t
    assert np.all(rep.sup_integral <= 2.0 * rep.t_grid * (1 + 1e-2))


def test_lp_inclusion_positive_and_negative():
    ok = lp_inclusion_check(E3, coulomb_field(E3, 1.0), p=2)
    assert ok["admissible_p"] and ok["consistent"]
    bad = lp_inclusion_check(E3, inverse_square_field(E3, 1.0), p=1.4)
    assert not bad["admissible_p"]
    assert bad["verdict"] == "failsDecay"


def test_fft_smoothing_on_circle():
    c = Circle(1.0)

    class _Cos:
        def __call__(self, pts):
            return 2.0 + np.cos(np.asarray(pts)[..., 0])

    from fiberflow.potentials import ScalarField

    f = ScalarField(_Cos(), class_tag="bounded", name="cos")
    got = smoothed_abs_field(c, f, 0.3, np.array([0.5]))
    want = 2.0 + math.exp(-0.3 / 2.0) * math.cos(0.5)
    assert abs(got - want) < 1e-10


def test_khasminskii_structure(monkeypatch):
    from fiberflow import kato

    sweeps = []
    quadrature = kato.kato_sup_integral
    monkeypatch.setattr(kato, "kato_sup_integral", lambda *a, **k: sweeps.append(a[2])
                        or quadrature(*a, **k))
    kc = khasminskii_constants(E3, coulomb_field(E3, 0.5))
    # one quadrature sweep per bisection step, s = 1, 1/2, ..., t0
    assert sweeps == [0.5**i for i in range(len(sweeps))] and sweeps[-1] == kc.t0
    assert kc.prefactor == 2.0
    assert kc.c_at_t0 < 0.5
    assert kc.cv == pytest.approx(math.log(1.0 / (1.0 - kc.c_at_t0)) / kc.t0)
    # bound at t is exactly 2 e^{t cv}
    assert kc.bound(0.3) == pytest.approx(2.0 * math.exp(0.3 * kc.cv))


def test_khasminskii_constant_field():
    kc = khasminskii_constants(E3, constant_field(1.0))
    # C(s) = s, so t0 lands just below the 0.45 target and cv >= 1
    assert kc.c_at_t0 <= 0.45 and kc.cv >= 1.0
    # v = 0: empirical mean is 1 <= 2
    kc0 = khasminskii_constants(E3, constant_field(0.0), strategy="sup_norm",
                                sup_bound=1e-9)
    chk = khasminskii_check(E3, constant_field(0.0), kc0, [0.1], np.zeros((1, 3)),
                            200, 1e-3, RngKey(0))
    assert chk["passed"]


def test_khasminskii_empirical_coulomb():
    v = coulomb_field(E3, 0.5)
    kc = khasminskii_constants(E3, v)
    chk = khasminskii_check(E3, v, kc, [0.1, 0.25], XG3[:2], 4000, 2.5e-4, RngKey(8))
    assert chk["passed"]


def test_abs_field_wraps_metadata():
    v = coulomb_field(E3, 0.5)
    a = AbsField(v)
    pts = np.array([[0.5, 0.0, 0.0]])
    assert a(pts)[0] == pytest.approx(1.0)
    assert a.singular and a.class_tag == "kato"


def test_no_t0_error():
    with pytest.raises(ValueError, match="Kato-tractable|sup integral"):
        khasminskii_constants(E3, inverse_square_field(E3, 5.0), s_min=1e-3)
