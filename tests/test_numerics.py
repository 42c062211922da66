import math

import numpy as np
import pytest

from fracqm.errors import ConfigurationError, NumericalError, QuadraturePointError
from fracqm.numerics import (
    ComplexField,
    PhysicalParams,
    adaptive_quadrature,
    grid_momenta,
    make_grid,
    to_momentum_space,
    to_position_space,
)
from fracqm.spectral import EvolverConfig, Potential
from fracqm.stable import StableParams, peak_density, thermal_law
from fracqm.statmech import classical_partition_function, free_partition_function
from fracqm.wavepacket import PacketParams, gamma_ratio_deviation, momentum_deviation
from oracles import inner_product


@pytest.mark.parametrize("build", [
    lambda v: PhysicalParams(hbar=v),
    lambda v: PhysicalParams(d_alpha=v),
    lambda v: make_grid(64, v),
    lambda v: StableParams(1.5, v),
    lambda v: thermal_law(v, PhysicalParams()),
    lambda v: PacketParams(l=v, p0=2.0, nu=1.5),
    lambda v: PacketParams(l=1.0, p0=v, nu=1.5),
    lambda v: EvolverConfig(dt=v, n_steps=1),
    lambda v: free_partition_function(1.0, v, PhysicalParams()),
], ids=["hbar", "d_alpha", "length", "scale", "beta", "l", "p0", "dt", "omega"])
def test_positive_scales_reject_inf(build):
    with pytest.raises(ConfigurationError, match="must be positive"):
        build(math.inf)


def test_make_grid_basic_spacings():
    g = make_grid(8, 8.0)
    assert g.spacing == 1.0
    # the first positive momentum is the momentum spacing 2 pi hbar / L
    assert grid_momenta(g, PhysicalParams())[1] == pytest.approx(2.0 * math.pi / 8.0, abs=1e-15)
    assert g.spacing * g.n_points == g.length


def test_make_grid_single_zero_momentum():
    p = grid_momenta(make_grid(16, 16.0), PhysicalParams())
    assert np.count_nonzero(p == 0.0) == 1
    # symmetric about zero except the unpaired Nyquist entry
    srt = np.sort(p)
    assert np.allclose(srt[1:], -srt[1:][::-1])


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        make_grid(10, 8.0)
    with pytest.raises(ConfigurationError):
        make_grid(4, 8.0)
    with pytest.raises(ConfigurationError):
        make_grid(8, -1.0)


def test_field_shape_mismatch():
    g = make_grid(8, 8.0)
    with pytest.raises(ConfigurationError):
        ComplexField(np.zeros(9, dtype=complex), g)


def test_constant_field_transforms_to_zero_momentum_bin():
    g = make_grid(32, 10.0)
    phi = to_momentum_space(ComplexField(np.ones(32, dtype=complex), g))
    k0 = int(np.argmax(np.abs(phi.values)))
    assert grid_momenta(g, PhysicalParams())[k0] == 0.0
    others = np.delete(np.abs(phi.values), k0)
    assert np.max(others) < 1e-12 * np.abs(phi.values[k0])


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
def test_round_trip_and_parseval(n):
    hbar = 0.7
    g = make_grid(n, 17.0)
    rng = np.random.default_rng(n)
    f = ComplexField(rng.normal(size=n) + 1j * rng.normal(size=n), g)
    back = to_position_space(to_momentum_space(f))
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale
    phi = to_momentum_space(f)
    lhs = f.norm_sq()
    dp = 2.0 * math.pi * hbar / g.length
    rhs = float(np.sum(np.abs(phi.values) ** 2)) * dp / (2.0 * math.pi * hbar)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_plane_wave_against_direct_summation():
    # direct evaluation of phi(p_k) = sum_j e^{-i p_k x_j / hbar} psi_j dx
    g = make_grid(8, 8.0)
    p = grid_momenta(g, PhysicalParams())
    p0 = p[3]
    psi = np.exp(1j * p0 * g.positions)
    direct = np.array(
        [np.sum(np.exp(-1j * pk * g.positions) * psi) * g.spacing for pk in p]
    )
    phi = to_momentum_space(ComplexField(psi, g))
    assert np.max(np.abs(phi.values - direct)) < 1e-12
    mags = np.abs(phi.values)
    k0 = int(np.argmax(mags))
    assert p[k0] == p0
    assert np.max(np.delete(mags, k0)) < 1e-12 * mags[k0]


def test_inner_product_requires_matching_grids():
    a = ComplexField(np.ones(8, dtype=complex), make_grid(8, 8.0))
    b = ComplexField(np.ones(16, dtype=complex), make_grid(16, 8.0))
    with pytest.raises(ConfigurationError):
        inner_product(a, b)


def test_quadrature_exponential():
    res = adaptive_quadrature(lambda k: np.exp(-k), 0.0, np.inf)
    assert res == pytest.approx(1.0, abs=1e-10)


def test_quadrature_divergent_integral_raises():
    with pytest.raises(NumericalError, match=r"over \[0.0, 1.0\] did not converge") as exc:
        adaptive_quadrature(lambda x: 1.0 / x, 0.0, 1.0)
    assert exc.value.residual > 1.0


def test_quadrature_stretched_exponential_gamma():
    # oracle: Gamma(1 + 1/alpha) for alpha = 3/2 via the gamma routine
    res = adaptive_quadrature(lambda k: np.exp(-(k ** 1.5)), 0.0, np.inf)
    assert res == pytest.approx(math.gamma(1.0 + 2.0 / 3.0), rel=1e-10)


def test_quadrature_odd_integrand_vanishes():
    res = adaptive_quadrature(np.sign, -1.0, 1.0, abs_tol=1e-10, points=[0.0])
    assert abs(res) < 1e-10


def test_quadrature_even_integrand_equals_twice_half_line():
    f = lambda k: np.exp(-(np.abs(k) ** 1.3))
    whole = adaptive_quadrature(f, -np.inf, np.inf, points=[0.0])
    half = adaptive_quadrature(f, 0.0, np.inf)
    assert whole == pytest.approx(2.0 * half, rel=1e-9)


def test_quadrature_nan_names_abscissa():
    def bad(x):
        return np.where(x > 2.0, math.nan, 1.0)

    with pytest.raises(QuadraturePointError) as exc:
        adaptive_quadrature(bad, 0.0, 10.0)
    assert exc.value.abscissa > 2.0


def test_quadrature_overflow_names_abscissa():
    def steep(x):
        return np.exp(x * x)  # inf past x ~ 26.6

    with pytest.raises(QuadraturePointError) as exc:
        adaptive_quadrature(steep, 0.0, np.inf)
    assert exc.value.abscissa > 26.0
    assert f"x={exc.value.abscissa!r}" in str(exc.value)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.9, 3.0])
def test_quadrature_gamma_function(s):
    # exp-sinh on [0, inf), x^(s-1) singular at 0 for s < 1
    res = adaptive_quadrature(lambda x: x ** (s - 1.0) * np.exp(-x), 0.0, np.inf, rel_tol=1e-12)
    assert res == pytest.approx(math.gamma(s), rel=1e-12)


@pytest.mark.parametrize("f, lower, upper, points, exact", [
    (lambda x: np.exp(-x * x), -np.inf, np.inf, None, math.sqrt(math.pi)),  # sinh-sinh
    (lambda x: x ** -0.5, 0.0, 1.0, None, 2.0),  # tanh-sinh, singular end
    (lambda x: x ** -0.5 * np.sqrt(1.0 - x), 0.0, 1.0, None, math.pi / 2.0),  # Beta(1/2, 3/2)
    (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, [0.0], 4.0 / 3.0),  # cusp at a break point
    (lambda x: np.abs(x - 0.5), -1.0, 1.0, [0.5, 0.5], 1.25),  # one kink named twice
    (lambda x: np.exp(x), -np.inf, 0.0, None, 1.0),  # mirrored exp-sinh
], ids=["gauss", "rsqrt", "beta", "cusp", "repeated-point", "left-half-line"])
def test_quadrature_closed_form_lattice(f, lower, upper, points, exact):
    res = adaptive_quadrature(f, lower, upper, rel_tol=1e-12, points=points)
    assert res == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("nu, mu", [(1.2, 0.72), (1.5, 0.3), (1.5, 0.9), (2.0, 1.0), (2.0, 1.9)])
def test_momentum_deviation_matches_gamma_ratio(nu, mu):
    params = PhysicalParams(1.0, 1.0, nu)
    packet = PacketParams(l=1.3, p0=2.0, nu=nu)
    assert momentum_deviation(mu, packet, params) == pytest.approx(
        gamma_ratio_deviation(mu, packet, params), rel=1e-12)


@pytest.mark.parametrize("beta", [0.125, 0.25, 0.5, 1.0, 2.0])
def test_classical_harmonic_partition_closed_form(beta):
    # Z_cl = [free-kernel diagonal] * sqrt(2 pi / (beta m omega^2)), the statmech ladder's betas
    params, m, w = PhysicalParams(1.0, 1.0, 1.5), 1.0, 1.0
    z = classical_partition_function(Potential.harmonic(m, w), beta, params)
    exact = peak_density(thermal_law(beta, params)) * math.sqrt(2.0 * math.pi / (beta * m * w * w))
    assert z == pytest.approx(exact, rel=1e-12)


def test_quadrature_rel_tol_domain():
    with pytest.raises(ConfigurationError):
        adaptive_quadrature(lambda x: x, 0.0, 1.0, rel_tol=0.5)


def test_physical_params_validation():
    with pytest.raises(ConfigurationError):
        PhysicalParams(alpha=2.5)
    with pytest.raises(ConfigurationError):
        PhysicalParams(alpha=1.0)
    p = PhysicalParams.gaussian(mass=2.0)
    assert p.d_alpha == pytest.approx(0.25)
