import cmath
import math

import numpy as np
import pytest

from fracqm.errors import ConfigurationError
from fracqm.numerics import ComplexField, PhysicalParams, make_grid
from fracqm.propagator import (
    KernelQuery,
    chapman_kolmogorov_residual,
    composition_grid,
    free_kernel,
    kernel_row,
)
from fracqm.spectral import EvolverConfig, Potential, evolve

P15 = PhysicalParams(1.0, 1.0, 1.5)
P2 = PhysicalParams.gaussian(mass=1.0)


def feynman_kernel(dx, t, m=1.0, hbar=1.0):
    return (m / (2.0 * math.pi * 1j * hbar * t)) ** 0.5 * cmath.exp(
        1j * m * dx * dx / (2.0 * hbar * t)
    )


def rotated_axis_value(t, params):
    # contour rotation of (1/pi hbar) int_0^inf e^{-i A p^alpha} dp
    a_phase = params.d_alpha * t / params.hbar
    return (
        math.gamma(1.0 + 1.0 / params.alpha)
        / math.pi
        * a_phase ** (-1.0 / params.alpha)
        * cmath.exp(-1j * math.pi / (2.0 * params.alpha))
    )


def test_gaussian_reduction_small_lattice():
    for dx in (0.0, 0.8, 1.9):
        for t in (0.3, 1.0, 1.7):
            est = free_kernel(KernelQuery(dx, 0.0, t, P2))
            ref = feynman_kernel(dx, t)
            assert abs(est.value - ref) < 1e-8 * abs(ref)
            assert est.error < 1e-6


def test_on_axis_value_alpha_15():
    est = free_kernel(KernelQuery(0.0, 0.0, 1.0, P15))
    ref = rotated_axis_value(1.0, P15)
    assert abs(est.value - ref) < 5e-8 * abs(ref)
    # frozen value of (1/2 pi) int dp exp(-i |p|^1.5)
    assert est.value.real == pytest.approx(0.1436763757, abs=5e-8)
    assert est.value.imag == pytest.approx(-0.2488547826, abs=5e-8)


def test_kernel_unit_total_amplitude():
    grid = composition_grid(1.0, P15, t_alias=1.0)
    row, _ = kernel_row(1.0, P15, grid)
    total = complex(np.sum(row) * grid.spacing)
    assert total.real == pytest.approx(1.0, abs=1e-8)
    assert abs(total.imag) < 1e-8


def test_translation_invariance_and_parity():
    e1 = free_kernel(KernelQuery(1.3, 0.3, 1.0, P15))
    e2 = free_kernel(KernelQuery(2.0, 1.0, 1.0, P15))
    e3 = free_kernel(KernelQuery(-1.0, 0.0, 1.0, P15))
    assert e1.value == e2.value
    assert e2.value == e3.value


def test_query_requires_positive_time():
    with pytest.raises(ConfigurationError):
        KernelQuery(0.0, 0.0, 0.0, P15)


def test_chapman_kolmogorov_alpha2():
    res = chapman_kolmogorov_residual(0.0, 0.0, 2.0, 1.0, P2)
    assert res < 1e-9


def test_chapman_kolmogorov_alpha15():
    res = chapman_kolmogorov_residual(0.3, -0.2, 2.0, 1.0, P15)
    assert res < 1e-6


def test_chapman_kolmogorov_small_split_is_identity_limit():
    res = chapman_kolmogorov_residual(0.0, 0.0, 1.0, 0.05, P15)
    assert res < 1e-8


def test_chapman_kolmogorov_validates_split():
    with pytest.raises(ConfigurationError):
        chapman_kolmogorov_residual(0.0, 0.0, 1.0, 1.5, P15)


def gaussian_field(grid, sigma=1.0, p0=0.0, x0=0.0):
    psi = np.exp(
        -((grid.positions - x0) ** 2) / (4.0 * sigma**2)
        + 1j * p0 * grid.positions
    ).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.spacing))
    return ComplexField(psi, grid)


# free state propagation is spectral.evolve with V = 0: one step of size t
# applies the exact multiplier exp(-i D |p|^alpha t / hbar)


def test_propagate_free_identity_at_zero_time():
    grid = make_grid(256, 40.0)
    f = gaussian_field(grid)
    out = evolve(f, Potential.free(), P15, EvolverConfig(1.0, 0))
    assert np.array_equal(out.values, f.values)


def test_propagate_free_plane_wave_phase():
    grid = make_grid(256, 32.0)
    p0 = grid.momenta[9]
    f = ComplexField(np.exp(1j * p0 * grid.positions), grid)
    out = evolve(f, Potential.free(), P15, EvolverConfig(0.7, 1))
    expected = f.values * np.exp(-1j * abs(p0) ** 1.5 * 0.7)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_propagate_free_norm_and_spectral_composition():
    grid = make_grid(512, 60.0)
    f = gaussian_field(grid, sigma=1.5, p0=1.0)
    free = Potential.free()
    a = evolve(evolve(f, free, P15, EvolverConfig(0.4, 1)), free, P15, EvolverConfig(0.6, 1))
    b = evolve(f, free, P15, EvolverConfig(1.0, 1))
    assert np.max(np.abs(a.values - b.values)) < 1e-14
    assert abs(b.norm() - 1.0) < 1e-12


def test_propagate_free_gaussian_spreading_closed_form():
    # alpha=2: free Gaussian sigma(t)^2 = sigma0^2 (1 + (hbar t / 2 m sigma0^2)^2)
    grid = make_grid(1024, 80.0)
    sigma0 = 1.0
    f = gaussian_field(grid, sigma=sigma0)
    t = 1.3
    out = evolve(f, Potential.free(), P2, EvolverConfig(t, 1))
    m = 1.0
    st2 = sigma0**2 * (1.0 + (t / (2.0 * m * sigma0**2)) ** 2)
    rho_ref = np.exp(-grid.positions**2 / (2.0 * st2)) / math.sqrt(2.0 * math.pi * st2)
    assert np.max(np.abs(np.abs(out.values) ** 2 - rho_ref)) < 1e-10


def test_propagate_free_rejects_negative_time():
    with pytest.raises(ConfigurationError):
        EvolverConfig(-0.1, 1)
