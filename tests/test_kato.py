import math

import numpy as np
import pytest

from fiberflow.geometry import Circle, Euclidean, ball
from fiberflow.kato import (KhasminskiiConstants, _default_x_grid, _doubled_negative,
                            kato_report, kato_sup_integral, khasminskii_check,
                            khasminskii_constants, lp_inclusion_check, negative_part_exponent,
                            smoothed_abs_field)
from fiberflow.oracle import smeared_coulomb
from fiberflow.potentials import (constant_field, coulomb_field, inverse_square_field,
                                  power_field, well_field)
from fiberflow.rng import RngKey

E3 = Euclidean(3)
XG3 = _default_x_grid(E3, coulomb_field(E3, 1.0))  # around the origin
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
    kc0 = KhasminskiiConstants.from_sup_norm(1e-9)
    chk = khasminskii_check(E3, constant_field(0.0), kc0, [0.1], np.zeros((1, 3)),
                            200, 1e-3, RngKey(0))
    assert chk["passed"]


def test_sup_norm_constants_keep_their_arithmetic():
    # the sup-norm bound C(v, s) <= bound * s, with t0 = 0.45 / bound
    kc = KhasminskiiConstants.from_sup_norm(1e-9)
    t0 = 0.45 / 1e-9
    c0 = 1e-9 * t0
    assert (kc.t0, kc.c_at_t0, kc.cv, kc.prefactor) == (t0, c0, math.log(1.0 / (1.0 - c0)) / t0,
                                                       2.0)


def test_negative_part_exponent_rules():
    from fiberflow.geometry import Sphere2
    from fiberflow.potentials import PotentialSpec, harmonic_field

    # 1. a radial field on a base with a quadrature rule: the quadrature of
    # 2 max(0, -v), on the base of a ball
    E1 = Euclidean(1)
    well = well_field(E1, 0.5, 0.3)
    doubled = well.mapped(_doubled_negative, "2neg(well(0.5,0.3))")
    assert (negative_part_exponent(ball(E1, 1.0), PotentialSpec.scalar(well))
            == khasminskii_constants(E1, doubled).cv)
    # 2. no rule, bounded and compact: the sup norm over quadrature nodes
    s2 = Sphere2(1.0)
    V = PotentialSpec.scalar(harmonic_field(s2, 1.0))
    sup_v2 = float(np.max(V.negative_norm(s2.quadrature(24)[0])))
    assert (negative_part_exponent(s2, V)
            == KhasminskiiConstants.from_sup_norm(max(2.0 * sup_v2, 1e-12)).cv)
    # 3. singular with no rule, or no rule on a noncompact base: no bound
    assert negative_part_exponent(s2, PotentialSpec.scalar(coulomb_field(s2, 1.0))) is None
    nonradial = PotentialSpec(rank=1, const=np.eye(1), terms=[(well, np.eye(1))])
    assert nonradial.field().radial_profile is None
    assert negative_part_exponent(E1, nonradial) is None


def test_khasminskii_empirical_coulomb():
    v = coulomb_field(E3, 0.5)
    kc = khasminskii_constants(E3, v)
    chk = khasminskii_check(E3, v, kc, [0.1, 0.25], XG3[:2], 4000, 2.5e-4, RngKey(8))
    assert chk["passed"]


def test_abs_field_wraps_metadata():
    v = coulomb_field(E3, 0.5)
    a = v.mapped(np.abs, "abs(coulomb)")
    pts = np.array([[0.5, 0.0, 0.0]])
    assert a(pts)[0] == pytest.approx(1.0)
    assert a.radial_profile(np.array([0.5]))[0] == pytest.approx(1.0)
    assert a.singular and a.class_tag == "kato" and a.name == "abs(coulomb)"
    assert a.radial_center is v.radial_center and a.singular_points == v.singular_points


def test_doubled_negative_well_keeps_its_break():
    # C(2|V^(2)|, t=1) at x=0 for well(0.5, 0.3): int_0^1 erf(0.3/sqrt(2s)) ds
    E1 = Euclidean(1)
    f = well_field(E1, 0.5, 0.3).mapped(_doubled_negative, "2neg(well(0.5,0.3))")
    assert f.radial_breaks == (0.3,)
    value = kato_sup_integral(E1, f, 1.0, np.zeros((1, 1)))["value"]
    assert value == pytest.approx(0.395880, rel=0.01)


def test_no_t0_error():
    with pytest.raises(ValueError, match="Kato-tractable|sup integral"):
        khasminskii_constants(E3, inverse_square_field(E3, 5.0), s_min=1e-3)


@pytest.mark.parametrize("t_grid", [[0.1], [0.1, 0.1]])
def test_kato_report_needs_two_distinct_times(t_grid):
    e3 = Euclidean(3)
    with pytest.raises(ValueError, match="2 distinct times"):
        kato_report(e3, coulomb_field(e3, 0.5), t_grid, np.zeros((1, 3)))


def test_negative_part_exponent_reads_the_scalar_part_at_any_rank():
    # coulomb(1.0) I at rank 2 is the scalar potential coulomb(1.0): rule 1
    # gives both spellings the same exponent (rule 2 has no bound for a
    # singular term on a noncompact base)
    from fiberflow.config import parse_potential

    scalar = negative_part_exponent(E3, parse_potential(E3, "coulomb(1.0)"))
    matrix = negative_part_exponent(E3, parse_potential(E3, "matrix(rank=2, coulomb(1.0) @ id)"))
    assert scalar is not None and matrix == scalar
    # a matrix part besides it leaves rule 1
    mixed = parse_potential(E3, "matrix(rank=2, coulomb(1.0) @ id, 0.5 @ pauli_x)")
    assert negative_part_exponent(E3, mixed) is None
