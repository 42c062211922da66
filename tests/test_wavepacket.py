import math
import tracemalloc

import numpy as np
import pytest

from fracqm import wavepacket
from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import (PhysicalParams, adaptive_quadrature, grid_momenta, make_grid,
                             to_momentum_space)
from fracqm.stable import StableParams, levy_density
from fracqm.wavepacket import (
    PacketParams,
    drift_velocity,
    gamma_ratio_deviation,
    momentum_density,
    momentum_deviation,
    normalization_constant,
    observable_means,
    packet_momentum_state,
    packet_position_state,
    packet_spread_factor,
    reduced_carrier,
    reduced_time,
    suggest_grid,
    tail_mass_estimate,
    uncertainty_report,
)
from oracles import padded_fft_spread_factor, position_deviation, quadpack

P2 = PhysicalParams.gaussian(mass=0.5)  # d_alpha = 1, alpha = 2
P15 = PhysicalParams(1.0, 1.0, 1.5)
PK2 = PacketParams(l=1.0, p0=2.0, nu=2.0)
PK15 = PacketParams(l=1.0, p0=2.0, nu=1.5)


def gaussian_spread_factor(mu, tau):
    # nu = alpha = 2 closed form: N = (1 + tau^2)^(mu/2) 2^(mu/2) G((mu+1)/2)/sqrt(pi)
    return (
        (1.0 + tau * tau) ** (mu / 2.0)
        * 2.0 ** (mu / 2.0)
        * math.gamma((mu + 1.0) / 2.0)
        / math.sqrt(math.pi)
    )


def test_momentum_state_peaks_at_carrier():
    assert packet_momentum_state(2.0, 0.0, PK2, P2) == pytest.approx(1.0)


def test_momentum_state_modulus_time_independent():
    ps = np.linspace(-1.0, 5.0, 11)
    a = np.abs(packet_momentum_state(ps, 0.0, PK15, P15))
    b = np.abs(packet_momentum_state(ps, 3.7, PK15, P15))
    assert np.max(np.abs(a - b)) < 1e-15


def test_momentum_state_point_value():
    pk = PacketParams(l=1.0, p0=1e-12, nu=2.0)  # p0 -> 0 limit of the exponent
    # direct exponent at p=1, p0=0, l=hbar=1, nu=2: e^{-1/2}
    val = packet_momentum_state(1.0, 0.0, pk, P2)
    assert val.real == pytest.approx(math.exp(-0.5), rel=1e-9)


def test_normalization_constant_values_and_scaling():
    assert normalization_constant(PacketParams(l=1.0, p0=2.0, nu=2.0)) == pytest.approx(
        math.sqrt(2.0 * math.sqrt(math.pi)), rel=1e-12
    )
    for nu in (1.2, 1.6, 2.0):
        assert normalization_constant(PacketParams(l=4.0, p0=2.0, nu=nu)) == pytest.approx(
            2.0 * normalization_constant(PacketParams(l=1.0, p0=2.0, nu=nu)), rel=1e-12
        )
    with pytest.raises(ConfigurationError, match="nu must lie in"):
        PacketParams(l=1.0, p0=2.0, nu=1.0)
    with pytest.raises(ConfigurationError, match="l must be positive"):
        PacketParams(l=0.0, p0=2.0, nu=1.5)


def test_momentum_density_peak_normalization_evenness():
    assert momentum_density(2.0, PK2, P2) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12
    )
    res = adaptive_quadrature(
        lambda p: momentum_density(p, PK15, P15), -np.inf, np.inf,
        rel_tol=1e-12, points=[PK15.p0],
    )
    assert res == pytest.approx(1.0, abs=1e-10)
    qs = np.array([0.3, 1.1, 2.7])
    assert np.allclose(
        momentum_density(PK15.p0 + qs, PK15, P15),
        momentum_density(PK15.p0 - qs, PK15, P15),
        rtol=0, atol=1e-15,
    )


def test_position_state_gaussian_case():
    psi, _ = packet_position_state(0.0, PK2, P2)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-10)
    # |psi|^2 is a centered Gaussian with sigma^2 = l^2 / 2
    rho = np.abs(psi.values) ** 2
    ref = np.exp(-psi.grid.positions**2) / math.sqrt(math.pi)
    assert np.max(np.abs(rho - ref)) < 1e-12


def test_position_state_norm_time_invariant():
    a, _ = packet_position_state(0.0, PK15, P15)
    b, _ = packet_position_state(1.0, PK15, P15, a.grid)
    assert abs(a.norm_sq() - b.norm_sq()) < 1e-10
    assert b.norm_sq() == pytest.approx(1.0, abs=1e-8)


def test_position_density_maximum_tracks_drift():
    t = 1.0
    psi, _ = packet_position_state(t, PK15, P15)
    rho = np.abs(psi.values) ** 2
    x_max = psi.grid.positions[int(np.argmax(rho))]
    mean_x = drift_velocity(PK15, P15) * t
    assert abs(x_max - mean_x) <= psi.grid.spacing + 0.08 * mean_x


def test_position_state_returns_its_guard_tail():
    psi, tail = packet_position_state(1.0, PK15, P15)
    assert tail == tail_mass_estimate(psi, PK15, P15)
    assert 0.0 < tail <= 1e-6


def test_tail_guard_rejects_small_domain():
    grid = make_grid(64, 8.0)
    with pytest.raises(NumericalError) as exc:
        packet_position_state(0.0, PK15, P15, grid)
    assert exc.value.residual > 1e-6


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected_naming_t(t):
    # a NaN t makes an all-NaN state whose NaN tail slips past a `tail > tol` guard
    with pytest.raises(ConfigurationError, match="^t must be finite"):
        suggest_grid(PK15, P15, t)
    with pytest.raises(ConfigurationError, match="^t must be finite"):
        packet_position_state(t, PK15, P15)
    with pytest.raises(ConfigurationError, match="^t must be finite"):
        packet_position_state(t, PK15, P15, suggest_grid(PK15, P15, 1.0))


def test_nan_tail_fails_the_guard(monkeypatch):
    monkeypatch.setattr(wavepacket, "tail_mass_estimate", lambda *a: math.nan)
    with pytest.raises(NumericalError):
        packet_position_state(1.0, PK15, P15)


def test_nu_must_not_exceed_alpha():
    with pytest.raises(ConfigurationError):
        packet_position_state(0.0, PacketParams(1.0, 2.0, 1.8), P15)


def test_observable_means_closed_form():
    # the closed-form <x>(t) is the group-velocity drift times t
    assert drift_velocity(PK15, P15) * 1.0 == pytest.approx(1.5 * 2.0**0.5, rel=1e-15)
    # alpha=2, D=1/2m with m=1/2: <x> = p0 t / m
    assert drift_velocity(PK2, P2) * 1.0 == pytest.approx(PK2.p0 * 1.0 / 0.5, rel=1e-15)


def test_grid_mean_momentum_matches_carrier():
    _, mean_p = observable_means(packet_position_state(0.7, PK15, P15)[0], PK15, P15)
    assert mean_p == pytest.approx(2.0, abs=1e-8)


def test_grid_mean_position_matches_exact_first_moment():
    t = 1.0
    mean_x_g, _ = observable_means(packet_position_state(t, PK15, P15)[0], PK15, P15)
    assert mean_x_g == pytest.approx(
        drift_velocity(PK15, P15, exact=True) * t, rel=1e-6
    )


def test_mean_momentum_time_invariant_from_evolved_field():
    grid = suggest_grid(PK15, P15, 1.0)
    a, _ = packet_position_state(0.0, PK15, P15, grid)
    b, _ = packet_position_state(1.0, PK15, P15, grid)
    means = []
    for f in (a, b):
        phi2 = np.abs(to_momentum_space(f).values) ** 2
        means.append(float(np.sum(grid_momenta(grid, P15) * phi2) / np.sum(phi2)))
    assert abs(means[0] - means[1]) < 1e-8


def test_momentum_deviation_gamma_anchor():
    # mu=1, nu=2, l=hbar=1: Gamma(1)/Gamma(1/2) = 1/sqrt(pi); mu-root is itself
    val = momentum_deviation(1.0, PK2, P2)
    assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)
    assert gamma_ratio_deviation(1.0, PK2, P2) == pytest.approx(val, rel=1e-9)


def test_position_deviation_gaussian_initial_moment():
    # t=0, nu=alpha=2: E|X|^mu for sigma^2 = l^2/2, mu-rooted
    mu = 1.2
    val = position_deviation(packet_position_state(0.0, PK2, P2)[0], mu, 0.0)
    sigma = 1.0 / math.sqrt(2.0)
    moment = sigma**mu * 2.0 ** (mu / 2.0) * math.gamma((mu + 1.0) / 2.0) / math.sqrt(math.pi)
    assert val == pytest.approx(moment ** (1.0 / mu), rel=1e-5)


def test_deviation_rejects_mu_at_or_above_nu():
    with pytest.raises(ConfigurationError):
        momentum_deviation(1.5, PK15, P15)


@pytest.mark.parametrize("mu,tau,rel", [
    # the sums read 3.1e-10, 1.4e-10 and 8.9e-12 off the closed form
    pytest.param(1.2, 0.0, 5e-9, id="0.0"),
    pytest.param(1.2, 1.0, 5e-9, id="1.0"),
    pytest.param(1.2, 5.0, 5e-9, id="5.0"),
    # the cusp weighs most at small mu, where the sum leans on its cusp
    # subtraction: 1.1e-8 at mu = 0.5 and 2.5e-8 at mu = 0.2, tau = 0
    pytest.param(0.5, 0.0, 1e-7, id="mu0.5-0.0"),
    pytest.param(0.2, 0.0, 2.5e-7, id="mu0.2-0.0"),
])
def test_spread_factor_gaussian_closed_form(mu, tau, rel):
    n = packet_spread_factor(2.0, mu, 2.0, tau, reduced_carrier(PK2, P2))
    assert n == pytest.approx(gaussian_spread_factor(mu, tau), rel=rel)


SPREAD_CASES = (
    [(alpha, 0.6 * alpha, tau) for alpha in (1.2, 1.5, 1.8, 2.0) for tau in (0.0, 0.5, 1.0, 5.0)]
    + [(2.0, mu, 2.0) for mu in (0.2, 0.6, 1.2)]
    # n_fft = 2^19, so the sigma grid is two residues of 2^18 points
    + [(1.8, 1.08, 1e4)]
)


@pytest.mark.parametrize("alpha,mu,tau", SPREAD_CASES,
                         ids=[f"{a}-{m:g}-{t:g}" for a, m, t in SPREAD_CASES])
def test_spread_factor_matches_padded_fft(alpha, mu, tau):
    # the residue-by-residue sums against one zero-padded FFT of the same grid
    eta0 = reduced_carrier(PacketParams(l=1.0, p0=2.0, nu=alpha), PhysicalParams(1.0, 1.0, alpha))
    n = packet_spread_factor(alpha, mu, alpha, tau, eta0)
    assert n == pytest.approx(padded_fft_spread_factor(alpha, mu, alpha, tau, eta0), rel=1e-14)


def test_spread_factor_peak_memory():
    # at the shipped alpha = 1.8, tau = 5 one zero-padded 2^18-point FFT peaks
    # at 10.1 MiB; residue batches of 4 x 8192 points peak near 2 MiB
    eta0 = reduced_carrier(PacketParams(l=1.0, p0=2.0, nu=1.8), PhysicalParams(1.0, 1.0, 1.8))
    packet_spread_factor(1.8, 1.08, 1.8, 0.0, eta0)
    tracemalloc.start()
    try:
        packet_spread_factor(1.8, 1.08, 1.8, 5.0, eta0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("nu", [1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_spread_route_matches_grid_moment(nu, tau):
    # combined tolerance 1e-3 between the double-integral route and the
    # direct grid moment
    params = PhysicalParams(1.0, 1.0, nu) if nu < 2.0 else P2
    packet = PacketParams(l=1.0, p0=2.0, nu=nu)
    mu = 0.6 * nu
    t = tau / reduced_time(1.0, packet, params)
    dx_grid = position_deviation(
        packet_position_state(t, packet, params)[0], mu, drift_velocity(packet, params) * t
    )
    dx_spread = uncertainty_report(mu, tau, packet, params).dx_mu
    assert dx_spread == pytest.approx(dx_grid, rel=1e-3)


def test_spread_factor_validates_exponents():
    with pytest.raises(ConfigurationError):
        packet_spread_factor(1.5, 1.6, 1.5, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        packet_spread_factor(1.5, 0.9, 1.8, 0.0, 1.0)  # nu > alpha


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_non_finite_tau_rejected_naming_tau(tau):
    # unchecked, NaN fails in int() sizing the FFT and inf divides by zero
    with pytest.raises(ConfigurationError, match="^tau must be finite"):
        packet_spread_factor(1.5, 0.9, 1.5, tau, 1.0)
    with pytest.raises(ConfigurationError, match="^tau must be finite"):
        uncertainty_report(0.9, tau, PK15, P15)


def test_spread_factor_refuses_fft_past_cap_before_allocating():
    # at the uncertainty defaults tau = 1e6 would size the FFT at 2^25 points,
    # 512 MiB per complex array; the cap is 2^23, checked before any array
    params = PhysicalParams(1.0, 1.0, 1.8)
    eta0 = reduced_carrier(PacketParams(l=1.0, p0=2.0, nu=1.8), params)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=r"at tau=1000000\.0 needs 2\.76e\+07 FFT"):
            packet_spread_factor(1.8, 1.08, 1.8, 1e6, eta0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_uncertainty_report_fields_and_bound():
    mu = 1.0
    rep = uncertainty_report(mu, 1.0, PK15, P15)
    assert rep.product == pytest.approx(rep.dx_mu * rep.dp_mu, rel=1e-15)
    assert rep.bound == pytest.approx(1.0 / (2.0 * 1.5) ** (1.0 / mu), rel=1e-15)
    assert rep.eta0 == pytest.approx(2.0 / 2.0 ** (1.0 / 1.5), rel=1e-12)


def test_uncertainty_exceeds_bound_for_alpha18_lattice():
    params = PhysicalParams(1.0, 1.0, 1.8)
    packet = PacketParams(l=1.0, p0=2.0, nu=1.8)
    for tau in (0.0, 1.0, 5.0):
        rep = uncertainty_report(1.2, tau, packet, params)
        assert rep.product > rep.bound, f"tau={tau}: product {rep.product} <= {rep.bound}"


# (alpha = nu, tau, dx_mu, product) of criterion 06's lattice at mu = 0.6 alpha,
# as the report gave them when it took t and formed tau = reduced_time(t)
# from t = tau / reduced_time(1)
TIME_ROUTE_REPORTS = [
    (1.2, 0.0, 0.34476145285855997, 0.24626534347907658),
    (1.2, 1.0, 0.3997780394436068, 0.28556404836639854),
    (1.2, 5.0, 0.6301540000400577, 0.4501230922943241),
    (1.5, 0.0, 0.4505817261449593, 0.28728835894059046),
    (1.5, 1.0, 0.51561464862196, 0.32875298231840916),
    (1.5, 5.0, 1.0904432852174457, 0.695260468302085),
    (1.8, 0.0, 0.5410476127008169, 0.3276442807316098),
    (1.8, 1.0, 0.6775956641418128, 0.41033420865931586),
    (1.8, 5.0, 2.0240277982842083, 1.2256982871419144),
    (2.0, 0.0, 0.5953944492118823, 0.3544945500619392),
    (2.0, 1.0, 0.8420149049239798, 0.5013310004175896),
    (2.0, 5.0, 3.035927914064669, 1.807574627780655),
]


@pytest.mark.parametrize("alpha,tau,dx_mu,product", TIME_ROUTE_REPORTS)
def test_uncertainty_report_in_tau_matches_time_route(alpha, tau, dx_mu, product):
    params = P2 if alpha == 2.0 else PhysicalParams(1.0, 1.0, alpha)
    rep = uncertainty_report(0.6 * alpha, tau, PacketParams(l=1.0, p0=2.0, nu=alpha), params)
    assert rep.dx_mu == pytest.approx(dx_mu, rel=1e-14)
    assert rep.product == pytest.approx(product, rel=1e-14)


def test_uncertainty_boundary_probe_recovers_heisenberg_scale():
    # nu = alpha = 2, mu -> 2: the product approaches the Gaussian hbar/2 value
    mu = 2.0 - 1e-3
    rep = uncertainty_report(mu, 0.0, PK2, P2)
    gauss = 0.5 * (
        2.0 ** (mu / 2.0) * math.gamma((mu + 1.0) / 2.0) / math.sqrt(math.pi)
    ) ** (2.0 / mu)
    assert rep.product == pytest.approx(gauss, rel=1e-4)
    assert abs(rep.product - 0.5) < 5e-4


@pytest.mark.parametrize("l,p0,hbar", [(1.0, 2.0, 1.0), (0.3, 5.0, 0.7)])
@pytest.mark.parametrize("mu,rel", [(1.2, 1e-9), (1.8, 1e-11), (1.9, 1e-11), (1.99, 1e-11)])
def test_gaussian_uncertainty_product_closed_form(l, p0, hbar, mu, rel):
    # criterion 06 at alpha = nu = 2, tau = 0: hbar [Gamma((mu+1)/2) / sqrt(pi)]^(2/mu),
    # which crosses the bound hbar / 4^(1/mu) at mu* = 1.847416
    rep = uncertainty_report(mu, 0.0, PacketParams(l=l, p0=p0, nu=2.0),
                             PhysicalParams.gaussian(mass=1.0, hbar=hbar))
    closed = hbar * (math.gamma((mu + 1.0) / 2.0) / math.sqrt(math.pi)) ** (2.0 / mu)
    assert rep.product == pytest.approx(closed, rel=rel)
    assert (rep.product > rep.bound) == (mu < 1.847416)


@pytest.mark.parametrize("alpha,rel", [(1.2, 1e-6), (1.5, 1e-8), (1.8, 1e-8), (2.0, 1e-8)])
def test_spread_factor_at_tau0_matches_stable_law_route(alpha, rel):
    # criterion 06's lattice (nu = alpha, mu = 0.6 alpha) at tau = 0, where
    # g(sigma) = 2 pi f_nu(sigma), f_nu the unit-scale symmetric stable density:
    # N = (2^(1/nu) nu / 4 pi Gamma(1/nu)) (2 pi)^2 int |sigma|^mu f_nu(sigma)^2 dsigma,
    # a route that shares nothing with the FFT-and-cusp rule
    mu, f = 0.6 * alpha, StableParams(alpha, 1.0)
    integral = 2.0 * quadpack(lambda s: s**mu * levy_density(s, f) ** 2, 0.0, math.inf, 1e-11)
    stable_route = (2.0 ** (1.0 / alpha) * alpha / (4.0 * math.pi * math.gamma(1.0 / alpha))
                    * (2.0 * math.pi) ** 2 * integral)
    rep = uncertainty_report(mu, 0.0, PacketParams(l=1.0, p0=2.0, nu=alpha),
                             PhysicalParams(1.0, 1.0, alpha))
    assert rep.n_factor == pytest.approx(stable_route, rel=rel)


def test_position_uncertainty_grows_with_time():
    mu = 0.9
    taus = [0.0, 0.5, 1.0, 2.0, 5.0]
    vals = [
        uncertainty_report(mu, tau, PK15, P15).dx_mu
        for tau in taus
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_suggest_grid_puts_carrier_on_momentum_grid():
    cases = [(PK15, P15, 0.0), (PK2, P2, 0.0), (PK2, P2, 1.0),
             (PacketParams(l=0.3, p0=5.0, nu=2.0), P2, 2.5)]
    for packet, params, t in cases:
        grid = suggest_grid(packet, params, t)
        p = grid_momenta(grid, params)
        k = np.argmin(np.abs(p - packet.p0))
        assert abs(p[k] - packet.p0) < 1e-9
        if packet.nu == 2.0:
            # the Gaussian's image-mass bound sits far below the floor of
            # 40 l on each side of the drifted packet, so the floor decides
            tau = reduced_time(t, packet, params)
            floor = 2.0 * (drift_velocity(packet, params) * t + 40.0 * packet.l * (1.0 + tau))
            dp_unit = 2.0 * math.pi * params.hbar / packet.p0
            assert grid.length == pytest.approx(round(floor / dp_unit) * dp_unit, rel=1e-14)
