"""The batched Hermitian exponential against scipy.linalg.expm and eigvalsh.

Rank 3 has its own closed form (trigonometric eigenvalues, Newton-form
exponential) with an eigh fallback for nearly coinciding eigenvalues; the
cases below cover both branches, degenerate and narrow spectra, large
s * ||W||, negative eigenvalues and empty or multi-axis batches.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import fiberflow.matexp as matexp
from fiberflow.config import parse_potential
from fiberflow.geometry import Euclidean
from fiberflow.matexp import expm_neg_hermitian

RNG = np.random.default_rng(20240611)


def _random_unitaries(n, d=3):
    Z = RNG.normal(size=(n, d, d)) + 1j * RNG.normal(size=(n, d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R, axis1=-2, axis2=-1) / np.abs(np.diagonal(R, axis1=-2, axis2=-1)))[..., None, :]


def _conjugated(diag, n):
    U = _random_unitaries(n)
    W = U @ np.diag(diag) @ U.conj().swapaxes(-1, -2)
    return 0.5 * (W + W.conj().swapaxes(-1, -2))


def _random_hermitian(n, scale=1.0):
    Z = RNG.normal(size=(n, 3, 3)) + 1j * RNG.normal(size=(n, 3, 3))
    return scale * 0.5 * (Z + Z.conj().swapaxes(-1, -2))


def _check(W, s):
    """exp within 1e-13 of expm in operator norm, relative; lambda_min
    within 1e-13 max(1, ||W||)."""
    E, lam = expm_neg_hermitian(W, s)
    batch = W.shape[:-2]
    assert E.shape == W.shape and lam.shape == batch
    flat_W = W.reshape(-1, 3, 3)
    flat_s = np.broadcast_to(np.asarray(s, dtype=float), batch).reshape(-1)
    ref = np.array([expm(-si * w) for w, si in zip(flat_W, flat_s)]).reshape(W.shape)
    ref_norm = np.linalg.norm(ref.reshape(-1, 3, 3), 2, axis=(1, 2))
    err = np.linalg.norm((E - ref).reshape(-1, 3, 3), 2, axis=(1, 2))
    assert np.all(err <= 1e-13 * ref_norm), err.max()
    lam_ref = np.linalg.eigvalsh(flat_W)[:, 0]
    w_norm = np.linalg.norm(flat_W, 2, axis=(1, 2))
    assert np.all(np.abs(lam.reshape(-1) - lam_ref) <= 1e-13 * np.maximum(1.0, w_norm))


@pytest.mark.parametrize("diag", [(1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (0.0, 1e-9, 1.0),
                                  (0.0, 1e-3, 1.0), (-2.0, 0.5, 0.5 + 1e-7)])
def test_degenerate_and_near_degenerate_spectra(diag):
    _check(_conjugated(diag, 64), 0.7)


def test_mixed_batches_pick_the_branch_per_row():
    # eigh-fallback rows beside closed-form rows, then series rows of the
    # divided difference beside quotient rows
    _check(np.concatenate([_conjugated((0.0, 1e-9, 1.0), 32), _random_hermitian(32)]), 0.7)
    _check(_random_hermitian(64), np.repeat([1e-4, 0.5], 32))


@pytest.mark.parametrize("c", [0.3, -2.5, 0.0])
def test_multiple_of_identity(c):
    W = np.broadcast_to(c * np.eye(3), (4, 3, 3)).astype(complex)
    E, lam = expm_neg_hermitian(W, 0.4)
    _check(W, 0.4)
    assert np.allclose(E, np.exp(-0.4 * c) * np.eye(3), rtol=1e-15, atol=0)


@pytest.mark.parametrize("scale,s", [(1.0, 1e-3), (1.0, 0.3), (3.0, 1.0), (1e-8, 0.5),
                                     (20.0, 0.05)])
def test_random_hermitian_batches(scale, s):
    W = _random_hermitian(256, scale)
    _check(W, s)
    _check(W, RNG.uniform(0.0, s, size=256))


def test_narrow_spectrum_on_a_large_shift():
    # the series branch of the divided difference: s (l3 - l1) < 1e-2
    W = 5.0 * np.eye(3) + _random_hermitian(128, 1e-4)
    _check(W, 1.0)


def test_large_s_norm_harmonic_at_radius_8():
    e2 = Euclidean(2)
    V = parse_potential(e2, "matrix(rank=3, const=diag(1,0,-1), harmonic(1.0) @ spin1_x, "
                            "harmonic(1.0) @ id)")
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    pts = 8.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    _check(V.matrix(pts), 0.5)


def test_negative_eigenvalues_as_appendix_c_passes_them():
    # appendix_c_check exponentiates -F with positive steps
    F = _random_hermitian(128, 2.0) + 4.0 * np.eye(3)
    _check(-F, RNG.uniform(0.0, 0.5, size=128))


def test_batch_shapes_and_real_input():
    E, lam = expm_neg_hermitian(np.zeros((0, 3, 3), dtype=complex), 0.1)
    assert E.shape == (0, 3, 3) and lam.shape == (0,)
    W = _random_hermitian(6).reshape(2, 3, 3, 3)
    _check(W, 0.2)
    _check(W, RNG.uniform(0.0, 1.0, size=(2, 3)))
    _check(W[0, 0], 0.2)
    R = _random_hermitian(8).real
    E, _ = expm_neg_hermitian(R, 0.2)
    assert E.dtype == np.float64
    _check(R, 0.2)


@pytest.mark.parametrize("d", [2, 3])
def test_real_input_takes_the_real_part_of_the_complex_route(d):
    # a real potential runs in real arithmetic: the closed forms give the
    # complex route's real part bit for bit (rank 3: well-separated rows,
    # which take no eigh fallback), and float64
    Z = RNG.normal(size=(512, d, d))
    R = 0.5 * (Z + Z.swapaxes(-1, -2)) + np.eye(d) * np.arange(d)
    E, lam = expm_neg_hermitian(R, 0.3)
    Ec, lam_c = expm_neg_hermitian(R.astype(complex), 0.3)
    assert E.dtype == np.float64 and Ec.dtype == np.complex128
    assert np.array_equal(E, Ec.real) and not np.any(Ec.imag)
    assert np.array_equal(lam, lam_c)


def test_ranks_one_two_and_four_unchanged():
    for d in (1, 2, 4):
        Z = RNG.normal(size=(16, d, d)) + 1j * RNG.normal(size=(16, d, d))
        W = 0.5 * (Z + Z.conj().swapaxes(-1, -2))
        E, lam = expm_neg_hermitian(W, 0.3)
        ref = np.array([expm(-0.3 * w) for w in W])
        assert np.allclose(E, ref, rtol=0, atol=1e-13)
        assert np.allclose(lam, np.linalg.eigvalsh(W)[:, 0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_per_step_sizes_match_step_by_step_calls(d, monkeypatch):
    # the path engine exponentiates the C steps of a sub-chunk in one call,
    # s of shape (C, 1) against (C, B, d, d): bit for bit the C calls of
    # one step each.  At rank 3, one step mixes rows through eigh with
    # closed-form rows and one goes through eigh whole
    C, B = 4, 64
    Z = RNG.normal(size=(C, B, d, d)) + 1j * RNG.normal(size=(C, B, d, d))
    W = 0.5 * (Z + Z.conj().swapaxes(-1, -2))
    if d == 3:
        W[1, ::4] = _conjugated((0.0, 1e-9, 1.0), B // 4)
        W[2] = _conjugated((0.0, 1e-9, 1.0), B)
    s = RNG.uniform(0.0, 1.0, size=(C, 1))
    eigh_rows = []
    eigh = matexp._expm_eigh
    monkeypatch.setattr(matexp, "_expm_eigh",
                        lambda W, s: (eigh_rows.append(math.prod(W.shape[:-2])), eigh(W, s))[1])
    for V in (W, W.real):
        E, lam = expm_neg_hermitian(V, s)
        assert E.shape == V.shape and lam.shape == (C, B)
        for j in range(C):
            E_j, lam_j = expm_neg_hermitian(V[j], s[j, 0])
            assert np.array_equal(E[j], E_j) and np.array_equal(lam[j], lam_j), j
    if d == 3:
        assert eigh_rows[:1] == [B + B // 4]


def _entry_major_copy(W):
    """W's values in a (d, d, ...) array seen as (..., d, d): each entry
    W[..., i, j] is one contiguous row over the batch."""
    return np.moveaxis(np.moveaxis(W, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_layout_of_the_batch_does_not_change_the_result(d, real, monkeypatch):
    # a C-order batch and an entry-major copy of it give the same bits and
    # dtype, on a (C, rows) batch with per-step sizes s (C, 1) as the path
    # engine passes it; at rank 3 one step mixes eigh-fallback rows with
    # closed-form rows and one goes through eigh whole.  The result is
    # entry-major either way
    C, B = 4, 64
    W = RNG.normal(size=(C, B, d, d))
    if not real:
        W = W + 1j * RNG.normal(size=(C, B, d, d))
    W = 0.5 * (W + W.conj().swapaxes(-1, -2))
    if d == 3:
        Q = np.linalg.qr(RNG.normal(size=(B, 3, 3)))[0]
        near = Q @ np.diag([0.0, 1e-9, 1.0]) @ Q.swapaxes(-1, -2)
        W[1, ::4] = near[::4]
        W[2] = near
    s = RNG.uniform(0.0, 1.0, size=(C, 1))
    eigh_rows = []
    eigh = matexp._expm_eigh
    monkeypatch.setattr(matexp, "_expm_eigh",
                        lambda W, s: (eigh_rows.append(math.prod(W.shape[:-2])), eigh(W, s))[1])
    W_em = _entry_major_copy(W)
    assert np.array_equal(W_em, W) and not W_em.flags.c_contiguous
    E, lam = expm_neg_hermitian(W, s)
    E_em, lam_em = expm_neg_hermitian(W_em, s)
    assert E.dtype == E_em.dtype == W.dtype and lam.dtype == lam_em.dtype == np.float64
    assert E_em.tobytes() == E.tobytes() and lam_em.tobytes() == lam.tobytes()
    for out in (E, E_em):
        assert all(out[..., i, j].flags.c_contiguous for i in range(d) for j in range(d))
    if d == 3:
        assert eigh_rows == [B + B // 4] * 2
