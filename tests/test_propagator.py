import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fracqm import propagator
from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import ComplexField, PhysicalParams, grid_momenta, make_grid, to_position_space
from fracqm.propagator import (
    _kernel_ray,
    chapman_kolmogorov_residual,
    free_kernel,
    kernel_row,
)
from fracqm.spectral import EvolverConfig, Potential, evolve
from fracqm.stable import peak_density, thermal_law
from oracles import composition_grid

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
    points = [(dx, t) for dx in (0.0, 0.8, 1.9) for t in (0.3, 1.0, 1.7)]
    for dx, t in points + [(40.0, 1.0), (200.0, 1.0)]:
        est = free_kernel(dx, t, P2)
        ref = feynman_kernel(dx, t)
        # the phase dx^2 / (2 hbar t) reaches 2e4 rad at dx = 200, and a
        # double carries it to about 4e-12; allow four of its ulps there
        tol = max(1e-12, 4.0 * np.finfo(float).eps * dx * dx / (2.0 * t))
        assert abs(est.value - ref) < tol * abs(ref)
        assert est.error < 1e-6
        if dx > 2.0:  # many panels, and the half-panel sum has not converged
            assert abs(est.value - ref) <= est.error


def ray_quad_mpmath(dx, t, params):
    """The kernel on free_kernel's own ray, by mpmath quad at 25 digits."""
    phi, r_max, _ = _kernel_ray(dx, t, params)
    with mpmath.workdps(25):
        a_phase = mpmath.mpf(params.d_alpha) * t / params.hbar
        b = mpmath.mpf(dx) / params.hbar
        rot = mpmath.expj(-phi)

        def integrand(r):
            return mpmath.cos(b * r * rot) * mpmath.exp(-1j * a_phase * (r * rot) ** params.alpha)

        # sub-intervals of about four periods of the cosine
        n = max(4, math.ceil(b * r_max / (8.0 * math.pi)))
        value = mpmath.quad(integrand, mpmath.linspace(0, r_max, n + 1))
        return complex(value * rot / (mpmath.pi * params.hbar))


@pytest.mark.parametrize("alpha,t,dx", [(1.2, 0.5, 0.0), (1.5, 0.5, 6.0), (1.8, 1.0, 2.0)])
def test_free_kernel_matches_mpmath_on_same_ray(alpha, t, dx):
    params = PhysicalParams(1.0, 1.0, alpha)
    est = free_kernel(dx, t, params)
    ref = ray_quad_mpmath(dx, t, params)
    assert abs(est.value - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("params", [P15, PhysicalParams(1.0, 1.0, 1.8)], ids=["1.5", "1.8"])
def test_free_kernel_matches_kernel_row(params):
    # an independent rule: the eps-damped FFT row, at offsets it resolves
    grid = composition_grid(1.0, params, t_alias=1.0)
    row, spread = kernel_row(1.0, params, grid)
    nodes = grid.n_points // 2 + np.round(np.arange(4) / grid.spacing).astype(int)
    devs = [abs(free_kernel(grid.positions[i], 1.0, params).value - row[i])
            for i in nodes]
    assert max(devs) <= 2.0 * np.max(spread[nodes])


@pytest.mark.parametrize("dx,t,params,point", [
    (0.5, 1e-9, P2, r"dx=0\.5, t=1e-09 needs 1\.25e\+09 nodes"),  # a tilt of 3.2e-8
    (2000.0, 1.0, PhysicalParams(1.0, 1.0, 1.01), r"dx=2000\.0, t=1\.0 needs"),  # f below 1e-300
], ids=["alpha2", "alpha1.01"])
def test_free_kernel_past_node_budget_names_point(dx, t, params, point):
    with pytest.raises(NumericalError, match=point):
        free_kernel(dx, t, params)


def test_on_axis_value_alpha_15():
    est = free_kernel(0.0, 1.0, P15)
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


def test_kernel_parity():
    assert free_kernel(1.0, 1.0, P15).value == free_kernel(-1.0, 1.0, P15).value


def test_free_kernel_requires_positive_time():
    with pytest.raises(ConfigurationError, match="kernel time must be strictly positive"):
        free_kernel(0.5, 0.0, P15)


def test_chapman_kolmogorov_alpha2():
    res = chapman_kolmogorov_residual(2.0, 1.0, P2)
    assert res < 1e-9


def test_chapman_kolmogorov_alpha15():
    res = chapman_kolmogorov_residual(2.0, 1.0, P15)
    assert res < 1e-6


def test_chapman_kolmogorov_small_split_is_identity_limit():
    res = chapman_kolmogorov_residual(1.0, 0.05, P15)
    assert res < 1e-8


def test_chapman_kolmogorov_validates_split():
    with pytest.raises(ConfigurationError):
        chapman_kolmogorov_residual(1.0, 1.5, P15)


def test_chapman_kolmogorov_forms_no_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("the residual built a grid multiplier or a kernel row")

    monkeypatch.setattr(propagator, "_ladder_symbol", no_grid)
    monkeypatch.setattr(propagator, "kernel_row", no_grid)
    assert chapman_kolmogorov_residual(1.0, 0.3, P15) < 1e-14


def test_chapman_kolmogorov_sees_a_density_error(monkeypatch):
    # a density 1e-8 too large composes to 2e-8 of the peak; the eps-ladder
    # residual read about 1e-12 under a perturbation of this size
    density = propagator.levy_density
    monkeypatch.setattr(propagator, "levy_density", lambda x, law: density(x, law) * (1.0 + 1e-8))
    for alpha in (1.2, 1.5, 2.0):
        assert chapman_kolmogorov_residual(2.0, 1.0, PhysicalParams(1.0, 1.0, alpha)) > 1e-9


@pytest.mark.parametrize("alpha", [1.1, 1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("t_total,t_split", [(2.0, 1.0), (1.0, 0.3), (1.0, 0.05), (1.0, 1e-7),
                                             (1.0, 1e-14)])
def test_chapman_kolmogorov_at_round_off_over_splits(alpha, t_total, t_split):
    params = PhysicalParams(1.0, 1.0, alpha)
    peak = peak_density(thermal_law(t_total / params.hbar, params))
    assert chapman_kolmogorov_residual(t_total, t_split, params) <= 1e-14 * peak


@pytest.mark.parametrize("t_split", [1e-20, 2.0**-53, 1.0 - 2.0**-53])
def test_chapman_kolmogorov_refuses_a_leg_below_t_total_ulp(t_split):
    # either leg below 2^-52 t_total, where t_total - t_split rounds to t_total
    with pytest.raises(NumericalError, match="below 2\\^-52"):
        chapman_kolmogorov_residual(1.0, t_split, P15)


def test_kernel_row_on_too_coarse_grid_raises():
    # the weakest rung is still e^-0.2 at this grid's largest momentum
    with pytest.raises(NumericalError, match="momentum grid too small"):
        kernel_row(1.0, P15, make_grid(256, 40.0))


def neville_to_zero(eps, values):
    """Neville's table for values(eps) at eps = 0, with the change from
    dropping the first point."""
    m = len(eps)
    table = [np.asarray(v, dtype=complex) for v in values]
    prev_diag = table[-1]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            table[i] = (eps[i - j] * table[i] - eps[i] * table[i - 1]) / (eps[i - j] - eps[i])
        if j == m - 2:
            prev_diag = table[-1].copy()
    return table[-1], np.abs(table[-1] - prev_diag)


@pytest.mark.parametrize("alpha", [1.5, 1.8, 2.0])
def test_kernel_row_matches_neville_over_separate_rows(alpha):
    params = PhysicalParams(1.0, 1.0, alpha)
    grid = composition_grid(1.0, params, t_alias=1.0)
    eps = np.array(propagator._EPS_LADDER) * params.d_alpha / params.hbar
    r = np.abs(grid_momenta(grid, params)) ** alpha
    rows = [to_position_space(ComplexField(np.exp(-(e + 1j) * r), grid)).values for e in eps]
    ref, ref_spread = neville_to_zero(eps, rows)
    value, spread = kernel_row(1.0, params, grid)
    assert np.max(np.abs(value - ref)) < 1e-14
    assert np.max(np.abs(spread - ref_spread)) < 1e-14


def test_extrapolation_weights_reproduce_polynomials():
    # relative to the strongest rung, so every power is of order one
    eps = np.array(propagator._EPS_LADDER) / propagator._EPS_LADDER[0]
    weak = propagator._extrapolation_weights(propagator._EPS_LADDER[1:])
    for k in range(5):
        assert abs(np.sum(propagator._LIMIT_WEIGHTS * eps**k) - (k == 0)) < 1e-15
    for k in range(4):
        assert abs(np.sum(weak * eps[1:] ** k) - (k == 0)) < 1e-15


@pytest.mark.parametrize("alpha", [1.5, 1.8, 2.0])
@pytest.mark.parametrize("t_total,t_split", [(2.0, 1.0), (1.0, 0.3)])
def test_momentum_sums_match_position_space_composition(alpha, t_total, t_split):
    params = PhysicalParams(1.0, 1.0, alpha)
    t_second = t_total - t_split
    grid = composition_grid(min(t_split, t_second), params, t_alias=t_total)
    n, dx, length = grid.n_points, grid.spacing, grid.length
    rows = {t: kernel_row(t, params, grid)[0] for t in (t_split, t_second, t_total)}
    # the periodic convolution at the middle node n // 2 (offset 0)
    composed = np.sum(rows[t_second][-np.arange(n) % n] * rows[t_split]) * dx
    p = grid_momenta(grid, params)
    phi = {t: propagator._ladder_symbol(t, params, p) for t in rows}
    assert abs(np.sum(phi[t_second] * phi[t_split]) / length - composed) < 1e-15
    assert abs(np.sum(phi[t_total]) / length - rows[t_total][n // 2]) < 1e-15


def test_chapman_kolmogorov_peak_memory():
    # no grid: the quadrature's density blocks peak near 2 MiB
    tracemalloc.start()
    try:
        chapman_kolmogorov_residual(1.0, 0.05, P15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("params,t", [
    (PhysicalParams(5e-324, 1.0, 1.5), 0.5),  # D t / hbar overflows
    (PhysicalParams(1.0, 1e-310, 1.5), 0.5),  # D t / hbar is subnormal: a ray with no finite reach
    (P2, 5e-324),  # D t / hbar underflows to a ray with no finite reach
], ids=["hbar", "d_alpha", "t"])
def test_kernels_at_extreme_scales_raise_numerical_error(params, t):
    with pytest.raises(NumericalError):
        free_kernel(0.0, t, params)
    with pytest.raises(NumericalError):
        chapman_kolmogorov_residual(2.0 * t, t, params)


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
    p0 = grid_momenta(grid, P15)[9]
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
