import numpy as np
import pytest

from fiberflow.bundles import BundleSpec, magnetic_bundle, tangent_bundle, trivial_bundle
from fiberflow.config import parse_potential
from fiberflow.geometry import Circle, Euclidean, Sphere2
from fiberflow.potentials import (PotentialSpec, ScalarField, angle_form,
                                  constant_section, coulomb_field, gaussian_section,
                                  harmonic_field, harmonic_ground_section,
                                  spinor_section)
from fiberflow.rng import RngKey, stream

E2 = Euclidean(2)
PTS = np.random.default_rng(3).uniform(-2, 2, size=(64, 2))


def random_matrix_potential(rank=2):
    """0.2 I + 0.1 A + harmonic * 0.4 B: A, B real Pauli matrices at rank 2,
    random complex Hermitian ones above."""
    if rank == 2:
        a, b = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    else:
        m = np.random.default_rng(rank).standard_normal((2, 2, rank, rank))
        a, b = m[0] + 1j * m[1]
        a, b = a + a.conj().T, b + b.conj().T
    return PotentialSpec(rank=rank, const=0.2 * np.eye(rank) + 0.1 * a,
                         terms=[(harmonic_field(E2, 1.0), 0.4 * b)])


@pytest.mark.parametrize("text, dtype", [
    ("matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)", np.float64),
    ("matrix(rank=2, 0.5 @ pauli_z, harmonic(1.0) @ id)", np.float64),
    ("matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, harmonic(1.0) @ spin1_z)", np.float64),
    ("matrix(rank=2, 0.5 @ pauli_z, harmonic(1.0) @ pauli_y)", np.complex128),
    ("matrix(rank=3, const=diag(1,0,-1), harmonic(1.0) @ spin1_y)", np.complex128),
])
def test_matrix_is_real_unless_a_generator_is_complex(text, dtype):
    # decided from the matrices alone: every one with exactly zero
    # imaginary part keeps V real
    V = parse_potential(E2, text)
    assert V.const.dtype == dtype and all(P.dtype == dtype for _, P in V.terms)
    assert V.matrix(PTS).dtype == dtype


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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_scalar_floor_below_spectrum(rank):
    # read off matexp's eigen-data: closed forms at ranks 2 and 3, eigh above
    V = random_matrix_potential(rank)
    lam_min = np.linalg.eigvalsh(V.matrix(PTS))[..., 0]
    floor = V.scalar_floor(PTS)
    assert np.allclose(floor, lam_min, rtol=0, atol=1e-13)
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
    T = b.step_transport(c, np.zeros((3, 1)), np.full((3, 1), 0.01)[None])[1][0]
    assert T.shape == (3, 1, 1)
    assert np.allclose(np.abs(T), 1.0)


def test_rng_streams_distinct_and_reproducible():
    a = stream(RngKey(7, 1)).standard_normal(8)
    b = stream(RngKey(7, 2)).standard_normal(8)
    c = stream(RngKey(7, 1)).standard_normal(8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)
    assert RngKey(7, 1).child(4) == RngKey(7, 5)


@pytest.mark.parametrize("text", [
    "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)",
    "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, harmonic(1.0) @ spin1_z)",
    "matrix(rank=2, 0.5 @ pauli_z, harmonic(1.0) @ pauli_y)",
    "matrix(rank=3, const=diag(1,0,-1), harmonic(1.0) @ spin1_y, harmonic(0.5) @ spin1_x)",
])
def test_matrix_is_entry_major_and_the_c_order_assembly_bit_for_bit(text):
    # the same bits and dtype as the C-order assembly const + f(x) P, entry
    # by entry in term order; each entry V[..., i, j] one contiguous row
    V = parse_potential(E2, text)
    pts = PTS.reshape(4, 16, 2)
    ref = np.broadcast_to(V.const, (4, 16, V.rank, V.rank)).copy()
    for f, P in V.terms:
        fx = f(pts)
        for (i, j), p in np.ndenumerate(P):
            ref[..., i, j] += fx * p
    got = V.matrix(pts)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    assert all(got[..., i, j].flags.c_contiguous for i in range(V.rank) for j in range(V.rank))


def _same_field(f, g, pts=PTS):
    return np.array_equal(f(pts), g(pts))


@pytest.mark.parametrize("V", [
    PotentialSpec.scalar(harmonic_field(E2, 1.0)),
    PotentialSpec.scalar(coulomb_field(E2, 1.0)),
    PotentialSpec(rank=1, const=0.3 * np.eye(1), terms=[(harmonic_field(E2, 1.0), 2.0 * np.eye(1)),
                                                        (coulomb_field(E2, 0.5), -np.eye(1))]),
    PotentialSpec.zero(1),
])
def test_rank1_split_is_the_field(V):
    s, W = V.split()
    assert W is None
    f = V.field()
    assert s.name == f.name and s.singular_points == f.singular_points
    assert _same_field(s, f)
    if len(V.terms) == 1:  # PotentialSpec.scalar(f) is f itself on both routes
        assert s is f is V.terms[0][0]


def test_split_gathers_identity_terms_and_a_constant_multiple_of_identity():
    # matrix(rank=2, const=0.3 I, harmonic @ 2 I, coulomb @ -I): no W, and
    # s = 0.3 + 2 harmonic - coulomb, with coulomb's singular point
    harm, coul = harmonic_field(E2, 1.0), coulomb_field(E2, 0.5)
    V = PotentialSpec(rank=2, const=0.3 * np.eye(2),
                      terms=[(harm, 2.0 * np.eye(2)), (coul, -np.eye(2))])
    s, W = V.split()
    assert W is None and s.singular
    assert np.allclose(s(PTS), 0.3 + 2.0 * harm(PTS) - coul(PTS), rtol=1e-15, atol=0)
    # one identity term alone is its own field
    s, W = parse_potential(E2, "matrix(rank=2, harmonic(1.0) @ id)").split()
    assert W is None and _same_field(s, harm)


def test_split_folds_constant_field_terms_into_W():
    # the grammar's 0.5 @ spin1_x is a constant field: W is the constant C,
    # with no x-dependent term, and s the harmonic field
    V = parse_potential(E2, "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, "
                            "harmonic(1.0) @ id)")
    s, W = V.split()
    s_x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
    assert _same_field(s, harmonic_field(E2, 1.0))
    assert not W.terms and W.rank == 3
    assert np.array_equal(W.const, np.diag([1.0, 0.0, -1.0]) + 0.5 * s_x)
    # V = s I + W at every point
    assert np.allclose(V.matrix(PTS), s(PTS)[:, None, None] * np.eye(3) + W.matrix(PTS),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("text", [
    "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)",
    "matrix(rank=3, const=diag(1,0,-1), harmonic(1.0) @ spin1_y)",
])
def test_split_without_identity_part_is_all_W(text):
    V = parse_potential(E2, text)
    s, W = V.split()
    assert s is None and np.array_equal(W.const, V.const)
    assert [f for f, _ in W.terms] == [f for f, _ in V.terms]
    assert all(np.array_equal(P, Q) for (_, P), (_, Q) in zip(W.terms, V.terms))
    assert W.matrix(PTS).tobytes() == V.matrix(PTS).tobytes()


def test_split_keeps_an_x_dependent_term_beside_the_identity_part():
    # const = 0.4 I goes to s; an x-dependent non-identity term stays in W
    harm = harmonic_field(E2, 1.0)
    V = PotentialSpec(rank=2, const=0.4 * np.eye(2), terms=[(harm, np.diag([1.0, -1.0]))])
    s, W = V.split()
    assert np.array_equal(s(PTS), np.full(len(PTS), 0.4))
    assert not np.any(W.const) and len(W.terms) == 1 and W.terms[0][0] is harm
    assert np.array_equal(V.matrix(PTS), s(PTS)[:, None, None] * np.eye(2) + W.matrix(PTS))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_split_of_zero_is_the_scalar_zero(rank):
    s, W = PotentialSpec.zero(rank).split()
    assert W is None and not s.singular
    assert np.array_equal(s(PTS), np.zeros(len(PTS)))
