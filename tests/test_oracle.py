import math

import numpy as np
import pytest

from fiberflow.oracle import (circle_magnetic_ground,
                              circle_magnetic_semigroup_constant, circle_operator,
                              exit_survival_interval, grid_ground_energy, grid_kernel,
                              grid_semigroup_apply, harmonic_energy, interval_operator,
                              levy_area_charfn, mehler_kernel, oracle_selfcheck,
                              richardson_ground_energy, smeared_coulomb)


def test_free_circle_ground_zero():
    op = circle_operator(1.0, 256)
    assert abs(grid_ground_energy(op)) < 1e-10


def test_circle_ground_energy_reproducible():
    # ARPACK starts from a fixed vector: the two-fold degenerate flux-1/2
    # ground level comes out as the same float on every call
    op = circle_operator(1.0, 256, flux=0.5)
    assert grid_ground_energy(op) == grid_ground_energy(op)


def test_harmonic_ground_half():
    build = lambda n: interval_operator(-10.0, 10.0, n, lambda x: 0.5 * x**2)
    e = richardson_ground_energy(build, 1024)
    assert abs(e - harmonic_energy(0)) < 1e-4


def test_circle_magnetic_eighth():
    build = lambda n: circle_operator(1.0, n, flux=0.5)
    e = richardson_ground_energy(build, 1024)
    assert abs(e - 0.125) < 1e-4
    assert circle_magnetic_ground(0.5) == pytest.approx(0.125)
    assert circle_magnetic_ground(0.0) == 0.0
    assert circle_magnetic_ground(1.3) == pytest.approx((1.3 - 1.0) ** 2 / 2.0)


def test_semigroup_identity_t0():
    op = circle_operator(1.0, 128)
    f = np.sin(op.points) + 2.0
    assert np.allclose(grid_semigroup_apply(op, f, 0.0), f)


def test_semigroup_fourier_mode_decay():
    op = circle_operator(1.0, 256)
    k = 3
    f = np.exp(1j * k * op.points)
    out = grid_semigroup_apply(op, f, 0.4)
    # discrete eigenvalue (1 - cos(k dx))/dx^2 instead of k^2/2
    lam = (1.0 - math.cos(k * op.dx)) / op.dx**2
    assert np.max(np.abs(out - math.exp(-0.4 * lam) * f)) < 1e-10
    assert abs(lam - k**2 / 2.0) < 5e-3


def test_mass_conservation_free_circle():
    op = circle_operator(1.0, 200)
    out = grid_semigroup_apply(op, np.ones(200), 1.3)
    assert np.max(np.abs(out - 1.0)) < 1e-10


def test_mehler_values():
    # ground-state identity at the origin
    val = 0.0
    y = np.linspace(-12, 12, 40001)
    phi = np.pi**-0.25 * np.exp(-(y**2) / 2)
    val = np.trapezoid(mehler_kernel(1.0, 0.0, y) * phi, y)
    assert abs(val - math.exp(-0.5) * np.pi**-0.25) < 1e-9
    assert abs(math.exp(-0.5) * np.pi**-0.25 - 0.4555806720) < 1e-9
    # symmetry and positivity
    assert mehler_kernel(0.7, 0.3, -0.2) == pytest.approx(mehler_kernel(0.7, -0.2, 0.3))


def test_mehler_chapman_kolmogorov():
    y = np.linspace(-14, 14, 8001)
    lhs = np.trapezoid(mehler_kernel(0.4, 0.1, y) * mehler_kernel(0.3, y, -0.2), y)
    assert abs(lhs - mehler_kernel(0.7, 0.1, -0.2)) < 1e-10


def test_exit_survival_series_limits():
    assert exit_survival_interval(1.0, 1e-4) == pytest.approx(1.0)
    assert exit_survival_interval(1.0, 50.0) < 1e-10
    # frozen reference value for r = 1, t = 1
    assert abs(exit_survival_interval(1.0, 1.0) - 0.37077742) < 1e-7


def test_levy_area_values():
    assert levy_area_charfn(1.0, 1.0) == pytest.approx(1.0 / math.cosh(0.5))
    assert levy_area_charfn(0.0, 1.0) == 1.0


def test_smeared_coulomb_limits():
    assert smeared_coulomb(0.0, 0.5) == pytest.approx(math.sqrt(2 / (math.pi * 0.5)))
    assert smeared_coulomb(3.0, 1e-4) == pytest.approx(1.0 / 3.0)


def test_magnetic_constant_mode():
    assert circle_magnetic_semigroup_constant(0.5, 2.0) == pytest.approx(
        math.exp(-0.25 * 2.0 / 2.0))


def test_grid_kernel_matches_mehler():
    op = interval_operator(-10, 10, 511, lambda x: 0.5 * x**2)
    i = int(np.argmin(np.abs(op.points)))
    k = np.real(grid_kernel(op, 1.0, i, i))
    assert abs(k - mehler_kernel(1.0, 0.0, 0.0)) < 1e-4


def test_grid_size_cap():
    with pytest.raises(ValueError, match="exceeds"):
        interval_operator(-1, 1, 5000)


def test_oracle_selfcheck_suite():
    rep = oracle_selfcheck()
    assert rep["passed"], rep["checks"]
