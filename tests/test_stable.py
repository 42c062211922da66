import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fracqm import stable
from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import PhysicalParams, adaptive_quadrature, gauss_legendre
from fracqm.stable import (
    StableParams,
    chain_rngs,
    levy_cdf,
    levy_density,
    sample_stable,
    thermal_law,
)
from oracles import bergstrom_tail, quadpack, stable_power_series


def tail_probability(x, params):
    """Leading asymptotic one-sided tail P(X > x) for large x; exact at alpha = 2.

    P(X > x) ~ c Gamma(alpha) sin(pi alpha / 2) / (pi x^alpha) for alpha < 2.
    """
    if params.alpha == 2.0:
        return 0.5 * math.erfc(x / (2.0 * params.scale**0.5))
    return (params.scale * math.gamma(params.alpha) * math.sin(math.pi * params.alpha / 2.0)
            / (math.pi * x**params.alpha))


def interpolated_cdf(params, x_lo, x_hi, n_nodes=1501):
    """Fast vectorized CDF built from levy_cdf on a tan-spaced grid, with the
    asymptotic power tail outside; accurate to ~1e-7, plenty for KS."""
    from scipy.interpolate import PchipInterpolator

    theta = np.linspace(math.atan(x_lo), math.atan(x_hi), n_nodes)
    nodes = np.tan(theta)
    vals = levy_cdf(nodes, params)
    interp = PchipInterpolator(nodes, vals)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        inside = (x >= nodes[0]) & (x <= nodes[-1])
        out[inside] = interp(x[inside])
        hi = x > nodes[-1]
        out[hi] = 1.0 - np.array([tail_probability(v, params) for v in x[hi]])
        lo = x < nodes[0]
        out[lo] = np.array([tail_probability(-v, params) for v in x[lo]])
        return np.clip(out, 0.0, 1.0)

    return cdf


def test_density_anchor_values():
    assert levy_density(0.0, StableParams(2.0, 1.0)) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12
    )
    assert levy_density(0.0, StableParams(1.0, 1.0)) == pytest.approx(
        1.0 / math.pi, rel=1e-12
    )
    # peak law Gamma(1 + 1/alpha)/pi, confirmed value 0.28735275145...
    assert levy_density(0.0, StableParams(1.5, 1.0)) == pytest.approx(
        math.gamma(1.0 + 1.0 / 1.5) / math.pi, rel=1e-12
    )


def test_cauchy_point_matches_closed_forms():
    # alpha = 1 takes the general quadratures; the Cauchy law is their oracle
    p = StableParams(1.0, 1.0)
    zs = np.array([-30.0, -2.0, -0.3, 0.0, 0.7, 1.0, 5.0, 100.0])
    np.testing.assert_allclose(levy_cdf(zs, p), 0.5 + np.arctan(zs) / math.pi,
                               rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(levy_density(zs, p), 1.0 / (math.pi * (1.0 + zs * zs)),
                               rtol=1e-12)


def test_density_even_and_positive():
    p = StableParams(1.4, 0.7)
    xs = np.array([0.1, 0.5, 2.0, 9.0])
    assert np.all(levy_density(xs, p) > 0)
    assert np.array_equal(levy_density(xs, p), levy_density(-xs, p))


# property tests: alpha in (1, 2] with 2.0 itself drawn, c log-uniform on
# [e^-5, e^5], points within 20 c^(1/alpha) of 0; a fixed seed keeps them reproducible
_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_LAWS = st.builds(
    lambda alpha, log_c: StableParams(alpha, math.exp(log_c)),
    st.one_of(st.just(2.0), st.floats(1.0, 2.0, exclude_min=True)),
    st.floats(-5.0, 5.0),
)
_OFFSETS = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=16)


def _width(law):
    return law.scale ** (1.0 / law.alpha)


@_PROPERTY
@given(_LAWS, _OFFSETS)
# far-tail points where the ray sum read below zero, and the two infinities
@example(StableParams(1.2, 1.0), [138690702868073.25])
@example(StableParams(1.05, 1.0), [1.20418597442658e16])
@example(StableParams(1.95, 1.0), [1.2023382832652475e26])
@example(StableParams(1.5, 1.0), [-math.inf, math.inf])
def test_density_non_negative_property(law, offsets):
    assert np.all(levy_density(np.array(offsets) * _width(law), law) >= 0.0)


@_PROPERTY
@given(_LAWS, _OFFSETS)
@example(StableParams(1.2567595692068272, 1.0), [0.0, 8.678741823767524e-195])
# F read 1 + 4 ulp at 1e308, and the sum did not converge at the infinities
@example(StableParams(1.2, 1.0), [1e308])
@example(StableParams(1.5, 1.0), [-math.inf, 0.0, math.inf])
def test_cdf_bounded_and_non_decreasing_property(law, offsets):
    cdf = levy_cdf(np.sort(offsets) * _width(law), law)
    assert np.all((0.0 <= cdf) & (cdf <= 1.0))
    # up to one unit of round-off at 1: the ray's F - 1/2 is a sum near
    # -theta plus theta
    assert np.all(np.diff(cdf) >= -(2.0**-52))


@_PROPERTY
@given(_LAWS, _OFFSETS)
def test_density_even_bitwise_property(law, offsets):
    x = np.array(offsets) * _width(law)
    assert np.array_equal(levy_density(x, law), levy_density(-x, law))


@_PROPERTY
@given(_LAWS, _OFFSETS)
def test_cdf_reflection_property(law, offsets):
    x = np.array(offsets) * _width(law)
    assert np.all(np.abs(levy_cdf(x, law) + levy_cdf(-x, law) - 1.0) <= 2.0**-52)


@settings(_PROPERTY, max_examples=16)
@given(_LAWS, st.floats(0.0, 1.0), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3))
def test_semigroup_property(law, share, offsets):
    # rho_0(beta1) * rho_0(beta2) = rho_0(beta1 + beta2): the scales c add
    first = StableParams(law.alpha, law.scale * (0.1 + 0.8 * share))
    second = StableParams(law.alpha, law.scale - first.scale)
    for x in np.array(offsets) * _width(law):
        conv = adaptive_quadrature(
            lambda y: levy_density(y, first) * levy_density(x - y, second),
            -np.inf, np.inf, rel_tol=1e-10, points=sorted({0.0, x}),
        )
        assert conv == pytest.approx(levy_density(x, law), rel=1e-8)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_limits_at_infinity_and_nan_rejected(alpha):
    law = StableParams(alpha, 0.7)
    assert levy_density(np.array([-math.inf, math.inf]), law).tolist() == [0.0, 0.0]
    assert levy_cdf(np.array([-math.inf, math.inf]), law).tolist() == [0.0, 1.0]
    assert levy_cdf(math.inf, law) == 1.0
    for fn in (levy_density, levy_cdf):
        with pytest.raises(ConfigurationError, match="^x must not be NaN"):
            fn(np.array([0.0, math.nan]), law)
        with pytest.raises(ConfigurationError, match="^x must not be NaN"):
            fn(math.nan, law)


def test_cdf_is_one_half_next_to_zero():
    # F - 1/2 is clamped at zero, so F never dips below F(0) on either side
    law = StableParams(1.2567595692068272, 1.0)
    assert levy_cdf(1e-20, law) == 0.5
    assert levy_cdf(-1e-20, law) == 0.5
    assert levy_cdf(np.array([-1e-20, 0.0, 8.678741823767524e-195]), law).tolist() == [0.5] * 3


@_PROPERTY
@given(_LAWS, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
def test_density_integrates_to_cdf_difference_property(law, u, v):
    # 64-node Gauss-Legendre on each of 8 panels between the two points
    a, b = sorted((u * _width(law), v * _width(law)))
    nodes, weights = gauss_legendre(64)
    half = (b - a) / 16.0
    centres = a + half * (2.0 * np.arange(8) + 1.0)
    x = (centres[:, None] + half * nodes).ravel()
    integral = half * float(np.sum(np.tile(weights, 8) * levy_density(x, law)))
    cdf = levy_cdf(np.array([a, b]), law)
    assert abs(integral - (cdf[1] - cdf[0])) <= 1e-12


def test_density_normalization_with_tail_bound():
    p = StableParams(1.5, 1.0)
    # X from the tail bound c X^-alpha ~ target
    big = (2.0 * math.gamma(1.5) * math.sin(0.75 * math.pi) / (math.pi * 1e-6)) ** (
        1.0 / 1.5
    )
    res = adaptive_quadrature(lambda x: levy_density(x, p), 0.0, big, rel_tol=1e-9)
    assert 2.0 * res == pytest.approx(1.0, abs=2e-6)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_cdf_far_tail_matches_power_law(alpha):
    params = StableParams(alpha)
    assert 1.0 - levy_cdf(1e4, params) == pytest.approx(tail_probability(1e4, params), rel=1e-4)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("z", [30.0, 100.0, 1e3])
def test_tails_relative_accuracy_against_bergstrom(alpha, z):
    density, tail = bergstrom_tail(z, alpha)
    params = StableParams(alpha)
    assert levy_density(z, params) == pytest.approx(density, rel=1e-9)
    assert levy_density(-z, params) == pytest.approx(density, rel=1e-9)
    assert 1.0 - levy_cdf(z, params) == pytest.approx(tail, rel=1e-9)
    assert levy_cdf(-z, params) == pytest.approx(tail, rel=1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_core_against_power_series(alpha):
    params = StableParams(alpha)
    for z in (0.0, 0.4, 1.0, 1.5):
        density, half = stable_power_series(z, alpha)
        assert levy_density(z, params) == pytest.approx(density, rel=1e-12)
        assert levy_cdf(z, params) - 0.5 == pytest.approx(half, rel=1e-12, abs=1e-16)


def test_cdf_at_1e5_matches_bergstrom_tail():
    # 1 - F is 6.3e-9 here, so F's own spacing near 1 (1.1e-16) allows ~2e-8
    _, tail = bergstrom_tail(1e5, 1.5)
    assert 1.0 - levy_cdf(1e5, StableParams(1.5)) == pytest.approx(tail, rel=1e-7)


def test_unconverged_sum_raises_naming_z(monkeypatch):
    # with two panels the half-panel sum is one panel, far from converged
    monkeypatch.setattr(stable, "_RAY_PANELS", 2)
    # the message names the first point that fails, at unit scale
    with pytest.raises(NumericalError, match=r"CDF sum did not converge at z=10\.0 "):
        levy_cdf(np.array([1.0, 3.0, 10.0, 100.0]), StableParams(1.5))
    with pytest.raises(NumericalError, match=r"density sum did not converge at z=10\.0 "):
        levy_density(-20.0, StableParams(1.5, 2.0**1.5))


def test_scalar_and_array_calls_agree_bitwise():
    p = StableParams(1.3, 0.8)
    xs = np.array([-40.0, -2.5, -0.1, 0.0, 0.3, 1.7, 12.0, 900.0])
    for fn in (levy_density, levy_cdf):
        assert np.array_equal(fn(xs, p), [fn(float(x), p) for x in xs])


def test_large_call_equals_its_blocks():
    # sums run block by block, so memory per call stays bounded
    p = StableParams(1.7)
    xs = np.linspace(-60.0, 60.0, 5 * stable._RAY_BLOCK + 37)
    for fn in (levy_density, levy_cdf):
        parts = [fn(xs[i:i + 101], p) for i in range(0, len(xs), 101)]
        assert np.array_equal(fn(xs, p), np.concatenate(parts))


def test_params_validation():
    with pytest.raises(ConfigurationError):
        StableParams(2.3, 1.0)
    with pytest.raises(ConfigurationError):
        StableParams(1.5, 0.0)


@pytest.mark.parametrize("hbar", [1e300, 1e-300])
def test_thermal_scale_off_the_floats_is_a_numerical_error(hbar):
    # a scale past the floats is a failed computation naming the keys behind
    # it; beta = inf is still bad input
    params = PhysicalParams(hbar, 1.0, 1.2)
    with pytest.raises(NumericalError) as exc:
        thermal_law(1.0, params)
    for name in ("beta=1.0", f"hbar={hbar}", "d_alpha=1.0"):
        assert name in str(exc.value)
    with pytest.raises(ConfigurationError, match="^beta must be positive"):
        thermal_law(math.inf, params)


def test_sampler_gaussian_variance():
    # exp(-c k^2) characteristic function is Normal(0, 2c)
    for c, seed, size in ((1.0, 11, 400_000), (0.37, 20261018, 100_000)):
        x = sample_stable(StableParams(2.0, c), np.random.default_rng(seed), size=size)
        se = math.sqrt(2.0) * 2.0 * c / math.sqrt(len(x))  # Var(X^2) = 2 sigma^4
        assert x.var() == pytest.approx(2.0 * c, abs=3.0 * se)


def test_sampler_deterministic():
    a = sample_stable(StableParams(1.5, 1.0), np.random.default_rng(99), size=64)
    b = sample_stable(StableParams(1.5, 1.0), np.random.default_rng(99), size=64)
    assert np.array_equal(a, b)


def test_sampler_scale_property_exact():
    a = sample_stable(StableParams(1.5, 3.0), np.random.default_rng(5), size=32)
    b = sample_stable(StableParams(1.5, 1.0), np.random.default_rng(5), size=32)
    assert np.allclose(a, 3.0 ** (1.0 / 1.5) * b, rtol=0, atol=0)


def test_heavy_tail_moment_refused_by_double_exponential_rule():
    # x^1.2 f(x) decays like x^-1.3, and exp-sinh samples x out to ~1e50, where
    # levy_density is round-off: the rule raises rather than extrapolate
    p = StableParams(1.5, 1.0)
    with pytest.raises(NumericalError, match="did not converge"):
        adaptive_quadrature(lambda x: x**1.2 * levy_density(x, p), 0.0, np.inf, rel_tol=1e-4)


def test_fractional_moment_against_quadrature():
    # E|X|^1.2 for alpha=1.5 is finite (mu < alpha); oracle by QUADPACK, since
    # the double-exponential rule reaches the tail where levy_density is inexact
    p = StableParams(1.5, 1.0)
    oracle = 2.0 * quadpack(lambda x: x**1.2 * levy_density(x, p), 0.0, np.inf, rel_tol=1e-4)
    # closed-form cross-check: 2^mu G((mu+1)/2) G(1-mu/alpha) / (sqrt(pi) G(1-mu/2));
    # the integrand decays like x^-1.3, so the quadrature is only good to ~1e-5
    # (its error estimate, 8.7e-5, meets rel_tol = 1e-4 but not a tighter one)
    closed = (
        2.0**1.2
        * math.gamma(1.1)
        * math.gamma(1.0 - 1.2 / 1.5)
        / (math.sqrt(math.pi) * math.gamma(1.0 - 0.6))
    )
    assert oracle == pytest.approx(closed, rel=1e-5)
    rng = np.random.default_rng(2024)
    x = np.abs(sample_stable(p, rng, size=1_000_000)) ** 1.2
    chain_means = x.reshape(50, -1).mean(axis=1)
    se = chain_means.std(ddof=1) / math.sqrt(len(chain_means))
    assert chain_means.mean() == pytest.approx(oracle, abs=3.0 * se)


@pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5, 1.8, 2.0])
def test_sampler_ks_against_density(alpha):
    p = StableParams(alpha, 1.0)
    rng = np.random.default_rng(int(alpha * 100))
    samples = sample_stable(p, rng, size=30_000)
    cdf = interpolated_cdf(p, -60.0, 60.0)
    res = stats.kstest(samples, cdf)
    assert res.pvalue > 0.01


def test_stability_under_addition():
    rng = np.random.default_rng(8)
    a = sample_stable(StableParams(1.5, 0.7), rng, size=40_000)
    b = sample_stable(StableParams(1.5, 1.1), rng, size=40_000)
    c = sample_stable(StableParams(1.5, 1.8), rng, size=40_000)
    res = stats.ks_2samp(a + b, c)
    assert res.pvalue > 0.01


def test_heavy_moment_diverges_with_sample_size():
    # for mu >= alpha the empirical moment grows without bound
    alpha = 1.5
    rng = np.random.default_rng(3)
    x = np.abs(sample_stable(StableParams(alpha, 1.0), rng, size=1_000_000))
    mus = [np.mean(x[:n] ** (alpha + 0.5)) for n in (10_000, 100_000, 1_000_000)]
    assert mus[0] < mus[1] < mus[2]


def test_chain_rngs_reproducible_and_independent():
    a = [g.standard_normal(4) for g in chain_rngs(77, 3)]
    b = [g.standard_normal(4) for g in chain_rngs(77, 3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], a[1])
