import math

import numpy as np
import pytest
from scipy import stats

from fracqm.errors import ConfigurationError, ContractError
from fracqm.numerics import PhysicalParams, make_grid
from fracqm.pimc import (
    PathConfig,
    estimate_density_matrix,
    fractal_scaling_exponent,
    sample_free_path,
    wander_scale,
)
from fracqm.spectral import Potential
from fracqm.stable import StableParams, chain_rngs, sample_stable
from fracqm.statmech import bloch_density_matrix, free_density_matrix

P15 = PhysicalParams(1.0, 1.0, 1.5)
P2 = PhysicalParams.gaussian(mass=1.0)


def test_path_starts_at_origin_and_cumsums():
    cfg = PathConfig(32, 1.0, 0.7, P15)
    path = sample_free_path(cfg, np.random.default_rng(0))
    # same stream drawn directly: hbar = D = 1, so the increment scale is sigma
    incs = sample_stable(StableParams(1.5, cfg.slice_time), np.random.default_rng(0), size=32)
    assert path.shape == (33,)
    assert path[0] == 0.7
    assert np.allclose(path[1:], 0.7 + np.cumsum(incs))


def test_wiener_reduction_increment_distribution():
    # alpha=2, D=1/2m: increments are Normal with variance hbar*sigma/m
    cfg = PathConfig(64, 1.0, 0.0, P2)
    rng = np.random.default_rng(12)
    incs = np.concatenate(
        [np.diff(sample_free_path(cfg, rng)) for _ in range(800)]
    )
    std = math.sqrt(1.0 * cfg.slice_time / 1.0)
    res = stats.kstest(incs, lambda x: stats.norm.cdf(x, scale=std))
    assert res.pvalue > 0.01


def test_increment_median_scales_with_slice_time():
    # doubling sigma multiplies |increment| quantiles by 2^(1/alpha)
    rng1, rng2 = chain_rngs(31, 2)
    cfg1 = PathConfig(1, 1.0, 0.0, P15)
    cfg2 = PathConfig(1, 2.0, 0.0, P15)
    a = np.abs([np.diff(sample_free_path(cfg1, rng1))[0] for _ in range(20000)])
    b = np.abs([np.diff(sample_free_path(cfg2, rng2))[0] for _ in range(20000)])
    med_a, med_b = np.median(a), np.median(b)
    se = 1.6 * med_a / math.sqrt(len(a))  # rough median standard error
    assert med_b == pytest.approx(2.0 ** (1.0 / 1.5) * med_a, abs=3.0 * 2.0 * se)


def test_paths_bit_identical_for_fixed_master_seed():
    cfg = PathConfig(16, 0.5, 0.0, P15)
    a = sample_free_path(cfg, chain_rngs(123, 1)[0])
    # second draw with the same master seed reproduces the stream exactly
    b = sample_free_path(cfg, chain_rngs(123, 1)[0])
    assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PathConfig(0, 1.0, 0.0, P15)
    with pytest.raises(ConfigurationError):
        PathConfig(8, -1.0, 0.0, P15)


def bin_averaged_free_oracle(grid, beta, params, x0=0.0):
    edges = np.concatenate(
        [grid.positions - grid.spacing / 2.0,
         [grid.positions[-1] + grid.spacing / 2.0]]
    )
    from fracqm.stable import StableParams, levy_cdf

    scale = beta * params.d_alpha * params.hbar**params.alpha
    cdf = levy_cdf(edges - x0, StableParams(params.alpha, scale))
    return np.diff(cdf) / grid.spacing


def test_free_density_matrix_row_alpha15():
    grid = make_grid(64, 30.0)
    est = estimate_density_matrix(
        Potential.free(), 0.0, 1.0, P15, 32, 32, 4000, grid, 991
    )
    oracle = bin_averaged_free_oracle(grid, 1.0, P15)
    cov = est.covered & (est.std_error > 0)
    frac = np.mean(np.abs(est.mean[cov] - oracle[cov]) <= 3.0 * est.std_error[cov])
    assert frac >= 0.95
    # endpoint mass is conserved: histogram integral + overflow = 1
    total = float(np.sum(est.mean) * grid.spacing) + est.overflow_low + est.overflow_high
    assert total == pytest.approx(1.0, abs=1e-12)


def test_free_density_matrix_row_alpha2_gaussian():
    grid = make_grid(64, 24.0)
    est = estimate_density_matrix(
        Potential.free(), 0.3, 1.0, P2, 32, 32, 4000, grid, 17
    )
    oracle = bin_averaged_free_oracle(grid, 1.0, P2, x0=0.3)
    cov = est.covered & (est.std_error > 0)
    frac = np.mean(np.abs(est.mean[cov] - oracle[cov]) <= 3.0 * est.std_error[cov])
    assert frac >= 0.95


def test_harmonic_row_matches_thermal_kernel():
    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    est = estimate_density_matrix(
        pot, 0.0, 1.0, P2, 128, 32, 4000, grid, 55
    )
    fine = make_grid(1024, 20.0)
    row = bloch_density_matrix(pot, 1.0, P2, fine, 0.0)
    cell = grid.spacing
    oracle = np.array(
        [
            np.mean(row[(fine.positions >= x - cell / 2) & (fine.positions < x + cell / 2)])
            for x in grid.positions
        ]
    )
    cov = est.covered & (est.std_error > 0)
    frac = np.mean(np.abs(est.mean[cov] - oracle[cov]) <= 3.0 * est.std_error[cov])
    assert frac >= 0.95


def test_weights_in_unit_interval_for_positive_potential():
    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    est = estimate_density_matrix(pot, 0.0, 1.0, P15, 32, 8, 2000, grid, 7)
    # all bin contents are nonnegative and total weighted mass is below one
    assert np.all(est.mean >= 0.0)
    total = float(np.sum(est.mean) * grid.spacing) + est.overflow_low + est.overflow_high
    assert 0.0 < total <= 1.0 + 1e-12


def test_std_error_shrinks_with_chain_count():
    grid = make_grid(32, 24.0)
    a = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 16, 16, 2000, grid, 5)
    b = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 16, 32, 2000, grid, 5)
    cov = a.covered & b.covered & (a.std_error > 0) & (b.std_error > 0)
    ratio = np.median(a.std_error[cov] / b.std_error[cov])
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)


def test_slice_number_convergence():
    grid = make_grid(32, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    a = estimate_density_matrix(pot, 0.0, 1.0, P2, 64, 24, 4000, grid, 101)
    b = estimate_density_matrix(pot, 0.0, 1.0, P2, 128, 24, 4000, grid, 202)
    cov = a.covered & b.covered & (a.std_error > 0) & (b.std_error > 0)
    comb = np.hypot(a.std_error[cov], b.std_error[cov])
    frac = np.mean(np.abs(a.mean[cov] - b.mean[cov]) <= 3.0 * comb)
    assert frac >= 0.95


def test_unbounded_below_potential_rejected():
    grid = make_grid(32, 20.0)
    sinkhole = Potential(lambda x: -np.asarray(x, dtype=float) ** 4)
    with pytest.raises(ContractError):
        estimate_density_matrix(sinkhole, 0.0, 5.0, P15, 16, 4, 4000, grid, 3)


def test_bin_grid_must_cover_wander_scale():
    grid = make_grid(8, 1.0)
    assert wander_scale(1.0, P15) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 8, 2, 10, grid, 1)


def test_midpoint_slice_rule_accepted():
    grid = make_grid(32, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    est = estimate_density_matrix(
        pot, 0.0, 1.0, P2, 32, 8, 1000, grid, 9, slice_rule="midpoint"
    )
    assert np.all(np.isfinite(est.mean))


@pytest.mark.parametrize(
    "alpha,mu,target",
    [(2.0, 1.0, 0.5), (1.5, 1.0, 2.0 / 3.0), (1.2, 0.6, 0.5)],
)
def test_fractal_scaling_exponent(alpha, mu, target):
    params = PhysicalParams.gaussian(0.5) if alpha == 2.0 else PhysicalParams(1.0, 1.0, alpha)
    ladder = [0.02 * 2.0**k for k in range(6)]
    est = fractal_scaling_exponent(params, mu, ladder, 100_000, 424242)
    assert abs(est.mean - target) <= 3.0 * est.std_error


def test_fractal_scaling_rejects_divergent_moment():
    with pytest.raises(ContractError):
        fractal_scaling_exponent(P15, 1.5, [0.1, 0.2], 100, 1)
    with pytest.raises(ContractError):
        fractal_scaling_exponent(P15, 1.7, [0.1, 0.2], 100, 1)


def test_non_integer_thread_count_rejected(monkeypatch):
    grid = make_grid(32, 24.0)
    monkeypatch.setenv("FRACQM_THREADS", "two")
    with pytest.raises(ConfigurationError) as exc:
        estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 4, 2, 10, grid, 1)
    assert "FRACQM_THREADS" in str(exc.value) and "'two'" in str(exc.value)


def test_deterministic_rows_independent_of_thread_count(monkeypatch):
    grid = make_grid(32, 24.0)
    monkeypatch.setenv("FRACQM_THREADS", "1")
    a = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 16, 8, 500, grid, 77)
    monkeypatch.setenv("FRACQM_THREADS", "4")
    b = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 16, 8, 500, grid, 77)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std_error, b.std_error)
