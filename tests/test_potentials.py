import numpy as np
import pytest

from fiberflow.bundles import BundleSpec, magnetic_bundle, tangent_bundle, trivial_bundle
from fiberflow.geometry import Circle, Euclidean, Sphere2
from fiberflow.potentials import (PotentialSpec, ScalarField, angle_form,
                                  constant_section, coulomb_field, gaussian_section,
                                  harmonic_field, harmonic_ground_section,
                                  spinor_section)
from fiberflow.rng import RngKey, stream

E2 = Euclidean(2)
PTS = np.random.default_rng(3).uniform(-2, 2, size=(64, 2))


def random_matrix_potential():
    pz = np.diag([1.0, -1.0])
    px = np.array([[0.0, 1.0], [1.0, 0.0]])
    return PotentialSpec(rank=2, const=0.2 * np.eye(2) + 0.1 * px,
                         terms=[(harmonic_field(E2, 1.0), 0.4 * pz)])


def test_hermitian_part_exact_and_overflow_free():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = a + a.conj().T + 1e-14 * rng.standard_normal((3, 3))  # Hermitian up to rounding
    V = PotentialSpec(rank=3, const=a, terms=[])
    assert np.array_equal(V.const, 0.5 * (a + a.conj().T))
    big = PotentialSpec(rank=3, const=np.diag([1e308, 0.0, -1.0]), terms=[])
    assert np.array_equal(big.const, np.diag([1e308, 0.0, -1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        PotentialSpec(rank=2, const=np.diag([np.inf, 0.0]), terms=[])


def test_eigen_split_reconstructs_matrix():
    V = random_matrix_potential()
    plus, minus = V.eigen_split(PTS)
    M = V.matrix(PTS)
    assert np.max(np.abs(M - (plus - minus))) < 1e-10
    # both parts PSD
    assert np.min(np.linalg.eigvalsh(plus)) > -1e-12
    assert np.min(np.linalg.eigvalsh(minus)) > -1e-12


def test_scalar_floor_below_spectrum():
    V = random_matrix_potential()
    lam_min = np.linalg.eigvalsh(V.matrix(PTS))[..., 0]
    floor = V.scalar_floor(PTS)
    assert np.max(floor - lam_min) < 1e-10
    # matches negative part norm
    assert np.allclose(V.negative_norm(PTS), np.maximum(0.0, -lam_min))


def test_hermitian_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        PotentialSpec(rank=2, const=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="rank"):
        PotentialSpec(rank=0, const=np.zeros((0, 0)))


def test_scalar_field_nan_policy():
    class _Bad:
        def __call__(self, pts):
            out = np.ones(pts.shape[:-1])
            out[0] = np.nan
            return out

    f = ScalarField(_Bad(), name="bad")
    with pytest.raises(ValueError, match="NaN"):
        f(PTS)
    with pytest.raises(ValueError, match="Kato class"):
        ScalarField(lambda p: p[..., 0], class_tag="weird")


def test_singular_field_cap():
    e3 = Euclidean(3)
    v = coulomb_field(e3, 1.0)
    pts = np.zeros((1, 3))  # at the singularity
    assert v(pts, cap=100.0)[0] == -100.0
    with pytest.raises(ValueError, match="non-finite"):
        v(pts)


def test_section_norm_bound_consistency():
    g = gaussian_section(E2, 1.0)
    vals = np.abs(g(PTS))
    assert np.max(vals) <= g.norm_bound + 1e-12
    phi = harmonic_ground_section(1.0)
    e1pts = np.random.default_rng(0).uniform(-4, 4, (128, 1))
    assert np.max(np.abs(phi(e1pts))) <= phi.norm_bound + 1e-12
    assert phi.l2_norm == 1.0


def test_spinor_section_shape_and_bound():
    s = spinor_section(harmonic_ground_section(1.0), [1.0, 1.0j])
    e1pts = np.zeros((5, 1))
    out = s(e1pts)
    assert out.shape == (5, 2) and s.rank == 2
    assert np.max(np.linalg.norm(out, axis=-1)) <= s.norm_bound + 1e-12


def test_section_rank_mismatch_rejected():
    s = constant_section([1.0, 2.0], rank=2)
    with pytest.raises(ValueError, match="rank"):
        bad = constant_section([1.0, 2.0, 3.0], rank=3)
        # evaluating a rank-3 section where rank 2 was promised
        from fiberflow.potentials import SectionSpec

        SectionSpec(rank=2, fn=bad.fn)(PTS)


def test_bundle_validation():
    with pytest.raises(ValueError, match="rank 1"):
        BundleSpec(rank=2, kind="magnetic")
    with pytest.raises(ValueError, match="rank 2"):
        BundleSpec(rank=3, kind="tangent")
    with pytest.raises(ValueError, match="sphere2"):
        tangent_bundle().validate_model(E2)
    with pytest.raises(ValueError, match="flat"):
        magnetic_bundle(angle_form(1.0)).validate_model(Sphere2(1.0))
    trivial_bundle(4).validate_model(Sphere2(1.0))


def test_magnetic_bundle_phase_unit():
    c = Circle(1.0)
    b = magnetic_bundle(angle_form(0.5))
    T = b.step_transport(c, np.zeros((3, 1)), np.full((3, 1), 0.01))
    assert T.shape == (3, 1, 1)
    assert np.allclose(np.abs(T), 1.0)


def test_rng_streams_distinct_and_reproducible():
    a = stream(RngKey(7, 1)).standard_normal(8)
    b = stream(RngKey(7, 2)).standard_normal(8)
    c = stream(RngKey(7, 1)).standard_normal(8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)
    assert RngKey(7, 1).child(4) == RngKey(7, 5)
