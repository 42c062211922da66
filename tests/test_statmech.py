import math

import numpy as np
import pytest

from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import PhysicalParams, adaptive_quadrature, grid_momenta, make_grid
from fracqm.spectral import Potential, kinetic_symbol
from fracqm.statmech import (
    _grid_energies,
    _grid_hamiltonian,
    _scaled_bessel,
    bloch_density_matrix,
    bloch_matrix,
    bloch_trace_ladder,
    classical_partition_function,
    free_density_matrix,
    free_partition_function,
)

P15 = PhysicalParams(1.0, 1.0, 1.5)
P2 = PhysicalParams.gaussian(mass=1.0)


def mehler_kernel(x, x0, beta, m=1.0, w=1.0, hbar=1.0):
    s = math.sinh(hbar * w * beta)
    c = math.cosh(hbar * w * beta)
    return math.sqrt(m * w / (2.0 * math.pi * hbar * s)) * math.exp(
        -m * w / (2.0 * hbar * s) * ((x * x + x0 * x0) * c - 2.0 * x * x0)
    )


def test_free_density_matrix_gaussian_reduction():
    for dx in (0.0, 0.4, 1.1, 2.3):
        for beta in (0.5, 1.0, 2.0):
            mine = free_density_matrix(dx, 0.0, beta, P2)
            ref = math.sqrt(1.0 / (2.0 * math.pi * beta)) * math.exp(
                -dx * dx / (2.0 * beta)
            )
            assert mine == pytest.approx(ref, rel=1e-10)


def test_free_density_matrix_diagonal_gamma_value():
    # confirmed: Gamma(1 + 2/3)/pi = 0.28735275145...
    assert free_density_matrix(0.0, 0.0, 1.0, P15) == pytest.approx(
        math.gamma(1.0 + 2.0 / 3.0) / math.pi, rel=1e-10
    )


def test_free_density_matrix_diagonal_beta_scaling():
    r = free_density_matrix(0.0, 0.0, 2.0, P15) / free_density_matrix(0.0, 0.0, 1.0, P15)
    assert r == pytest.approx(2.0 ** (-1.0 / 1.5), rel=1e-10)


def test_free_density_matrix_even_positive_peaked_normalized():
    vals = [free_density_matrix(x, 0.0, 1.0, P15) for x in (-2.0, -0.5, 0.0, 0.5, 2.0)]
    assert all(v > 0 for v in vals)
    assert vals[0] == pytest.approx(vals[-1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[-2], rel=1e-12)
    assert vals[2] == max(vals)
    # one array call gives the scalar calls' bits
    row = free_density_matrix(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), 0.0, 1.0, P15)
    assert np.array_equal(row, vals)
    res = adaptive_quadrature(
        lambda x: free_density_matrix(x, 0.0, 1.0, P15), 0.0, np.inf, rel_tol=1e-8
    )
    assert 2.0 * res == pytest.approx(1.0, abs=1e-6)


def test_free_partition_function_values():
    # alpha=2 reduces to the classical ideal-gas expression
    z2 = free_partition_function(1.0, 3.0, P2)
    assert z2 == pytest.approx(3.0 * math.sqrt(1.0 / (2.0 * math.pi)), rel=1e-12)
    # alpha=1.5: the diagonal value fixes Z/Omega; confirmed 0.28735275...
    z15 = free_partition_function(1.0, 1.0, P15)
    assert z15 == pytest.approx(math.gamma(1.0 + 2.0 / 3.0) / math.pi, rel=1e-12)


def test_partition_function_scalings():
    base = free_partition_function(1.0, 1.0, P15)
    assert free_partition_function(1.0, 2.0, P15) == pytest.approx(
        2.0 * base, rel=1e-14
    )
    assert free_partition_function(2.0, 1.0, P15) == pytest.approx(
        2.0 ** (-1.0 / 1.5) * base, rel=1e-14
    )


def test_classical_partition_free_consistency():
    z_cl = classical_partition_function(Potential.free(), 1.0, P15, (0.0, 5.0))
    z = free_partition_function(1.0, 5.0, P15)
    assert z_cl == pytest.approx(z, rel=1e-10)


def test_classical_partition_harmonic_alpha2():
    z = classical_partition_function(Potential.harmonic(1.0, 1.0), 1.0, P2)
    assert z == pytest.approx(1.0, rel=1e-10)  # 1/(beta hbar omega)
    z2 = classical_partition_function(Potential.harmonic(1.0, 1.0), 2.0, P2)
    assert z2 == pytest.approx(0.5, rel=1e-10)


def test_classical_partition_divergent_integrand_rejected():
    grow = Potential(lambda x: -np.asarray(x, dtype=float) ** 2)
    with pytest.raises(NumericalError):
        classical_partition_function(grow, 1.0, P15)


def test_bloch_free_matches_quadrature():
    grid = make_grid(4096, 200.0)
    row = bloch_density_matrix(Potential.free(), 1.0, P15, grid, 0.0)
    mask = np.abs(grid.positions) < 30.0
    ref = np.array([free_density_matrix(x, 0.0, 1.0, P15) for x in grid.positions[mask]])
    assert np.max(np.abs(row[mask] - ref)) < 1e-5


def test_bloch_free_row_takes_hbar_from_params():
    # a grid carries no hbar: the row's momenta follow params.hbar = 0.7;
    # momenta at hbar = 1 put the centre at 0.2874, 0.12 below the exact 0.4105
    params = PhysicalParams(0.7, 1.0, 1.5)
    grid = make_grid(2048, 120.0)
    row = bloch_density_matrix(Potential.free(), 1.0, params, grid, 0.0)
    centre = row[grid.n_points // 2]  # x = 0
    assert abs(centre - free_density_matrix(0.0, 0.0, 1.0, params)) <= 1e-5


def test_bloch_small_beta_concentrates_at_start():
    grid = make_grid(1024, 60.0)
    second_moments = []
    for beta in (0.2, 0.05, 0.01):
        row = bloch_density_matrix(Potential.free(), beta, P15, grid, 0.0)
        m0 = np.sum(row) * grid.spacing
        second_moments.append(float(np.sum(grid.positions**2 * row) / m0 * grid.spacing))
    assert second_moments[0] > second_moments[1] > second_moments[2]


def test_constant_potential_row_is_shifted_free_row():
    # e^{-beta (H0 + c)} = e^{-beta c} e^{-beta H0}: the Chebyshev series at
    # V = c against the exact V = 0 multiplier, on the statmech free row's grid
    grid = make_grid(2048, 120.0)
    free = bloch_density_matrix(Potential.free(), 1.0, P15, grid, 0.0)
    for c in (0.7, -3.0, 50.0):
        flat = Potential(lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c))
        row = bloch_density_matrix(flat, 1.0, P15, grid, 0.0) * math.exp(c)
        assert np.max(np.abs(row - free)) <= 1e-12 * np.max(free), c


@pytest.mark.parametrize("x0", [10.0, 15.0, -10.1, math.nan])
def test_bloch_off_grid_start_rejected(x0):
    # make_grid(256, 20.0) spans [-10, 10); 15 used to wrap to a row peaked at -5
    with pytest.raises(ConfigurationError, match=r"x0 = .*\[-10.0, 10.0\)"):
        bloch_density_matrix(Potential.free(), 1.0, P15, make_grid(256, 20.0), x0)


def test_bloch_harmonic_row_matches_mehler_on_benchmark_shape():
    # the pimc benchmark's oracle row: the kinetic span is ~5e4, 1311 terms
    grid = make_grid(2048, 20.0)
    row = bloch_density_matrix(Potential.harmonic(1.0, 1.0), 1.0, P2, grid, 0.0)
    ref = np.array([mehler_kernel(x, 0.0, 1.0) for x in grid.positions])
    assert np.max(np.abs(row - ref)) <= 1e-11 * np.max(ref)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_bloch_row_matches_bloch_matrix_column(alpha):
    params = P2 if alpha == 2.0 else PhysicalParams(1.0, 1.0, alpha)
    grid = make_grid(512, 60.0)
    pot = Potential.harmonic(1.0, 1.0)
    col = bloch_matrix(pot, 1.0, params, grid)[:, 256]  # x = 0
    row = bloch_density_matrix(pot, 1.0, params, grid, 0.0)
    assert np.max(np.abs(row - col)) <= 1e-12 * np.max(col)


@pytest.mark.parametrize("z", [0.3, 5.0, 300.0, 1500.0])
def test_scaled_bessel_matches_scipy(z):
    from scipy import special

    vals = _scaled_bessel(z)
    kept = vals[: int(np.argmax(2.0 * vals < 1e-17))]  # the coefficients a row uses
    ref = special.ive(np.arange(kept.size), z)
    assert np.max(np.abs(kept / ref - 1.0)) <= 1e-13


def test_bloch_harmonic_matches_mehler():
    grid = make_grid(512, 40.0)
    x0 = 0.3
    row = bloch_density_matrix(Potential.harmonic(1.0, 1.0), 1.0, P2, grid, x0)
    x0_snap = grid.positions[int(np.argmin(np.abs(grid.positions - x0)))]
    ref = np.array([mehler_kernel(x, x0_snap, 1.0) for x in grid.positions])
    assert np.max(np.abs(row - ref)) < 1e-5


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_bloch_semigroup(alpha):
    params = PhysicalParams.gaussian(mass=1.0) if alpha == 2.0 else PhysicalParams(1.0, 1.0, alpha)
    grid = make_grid(512, 60.0)
    pot = Potential.harmonic(1.0, 1.0)
    # rho(x0, 2 beta | x0) = sum_y rho(x0, beta | y) rho(y, beta | x0) dx, and
    # the grid kernel is symmetric: exact on the grid
    half = bloch_density_matrix(pot, 0.5, params, grid, 0.0)
    full = bloch_density_matrix(pot, 1.0, params, grid, 0.0)
    assert abs(full[256] - np.sum(half**2) * grid.spacing) < 1e-8


def test_bloch_positivity_for_positive_potential():
    grid = make_grid(512, 40.0)
    row = bloch_density_matrix(Potential.harmonic(1.0, 1.0), 1.0, P15, grid, 0.0)
    assert np.min(row) > -1e-10


def test_trace_identity_free():
    grid = make_grid(2048, 120.0)
    tr = bloch_trace_ladder(Potential.free(), 1.0, 0, P15, grid)[0][1]
    z = free_partition_function(1.0, 120.0, P15)
    assert tr == pytest.approx(z, rel=1e-4)


def test_bloch_matrix_symmetric_and_composes():
    grid = make_grid(256, 30.0)
    pot = Potential.harmonic(1.0, 1.0)
    rho = bloch_matrix(pot, 0.5, P15, grid)
    scale = np.max(np.abs(rho))
    assert np.max(np.abs(rho - rho.T)) <= 1e-13 * scale
    # imaginary-time composition rho(2b) = rho(b) rho(b) dx
    rho2 = bloch_matrix(pot, 1.0, P15, grid)
    composed = rho @ rho * grid.spacing
    assert np.max(np.abs(rho2 - composed)) <= 1e-12 * np.max(np.abs(rho2))


def test_free_trace_equals_grid_momentum_sum():
    grid = make_grid(512, 40.0)
    p = grid_momenta(grid, P15)
    closed = float(np.sum(np.exp(-1.0 * P15.d_alpha * np.abs(p) ** P15.alpha)))
    tr = bloch_trace_ladder(Potential.free(), 1.0, 0, P15, grid)[0][1]
    assert tr == pytest.approx(closed, rel=1e-12)


def test_harmonic_ladder_alpha2_matches_oscillator_partition_function():
    grid = make_grid(512, 50.0)
    ladder = bloch_trace_ladder(Potential.harmonic(1.0, 1.0), 0.125, 4, P2, grid)
    assert [b for b, _ in ladder] == [0.125, 0.25, 0.5, 1.0, 2.0]
    for beta, tr in ladder:
        assert tr == pytest.approx(1.0 / (2.0 * math.sinh(beta / 2.0)), rel=1e-10)


@pytest.mark.parametrize("params", [P15, P2])
def test_grid_hamiltonian_is_circulant_plus_diagonal(params):
    from scipy import linalg

    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    col = np.fft.ifft(kinetic_symbol(grid, params)).real
    ref = linalg.circulant(col) + np.diag(pot.on_grid(grid))
    assert np.array_equal(_grid_hamiltonian(pot, params, grid), ref)


# the parity blocks and the full solve are each backward stable, so each
# misses the exact spectrum by a few eps ||H||_2: against each other they
# read at most 29.4 eps ||H||_2 on the shipped grid (alpha 1.2, 1.5, 2), and
# against a 30-digit solve at most 6.1 eps ||H||_2 on n = 32
BLOCK_VS_FULL, VS_EXACT = 64.0, 16.0
SHIPPED_GRID = (512, 50.0)


def _eps_norm(h):
    return np.finfo(float).eps * np.linalg.norm(h, 2)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_parity_block_energies_match_full_solve(alpha):
    params = PhysicalParams(1.0, 0.5 if alpha == 2.0 else 1.0, alpha)
    grid, pot = make_grid(*SHIPPED_GRID), Potential.harmonic(1.0, 1.0)
    h = _grid_hamiltonian(pot, params, grid)
    gap = np.max(np.abs(_grid_energies(pot, params, grid) - np.linalg.eigvalsh(h)))
    assert gap <= BLOCK_VS_FULL * _eps_norm(h)


def test_both_routes_match_a_30_digit_solve():
    import mpmath

    grid, pot = make_grid(32, 12.0), Potential.harmonic(1.0, 1.0)
    h = _grid_hamiltonian(pot, P15, grid)
    lower = np.tril(h) + np.tril(h, -1).T  # the triangle eigvalsh reads
    with mpmath.workdps(30):
        exact = np.sort([float(e) for e in mpmath.eigsy(mpmath.matrix(lower.tolist()),
                                                          eigvals_only=True)])
    for energies in (_grid_energies(pot, P15, grid), np.linalg.eigvalsh(h)):
        assert np.max(np.abs(energies - exact)) <= VS_EXACT * _eps_norm(h)


def _eigvalsh_shapes(monkeypatch):
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def test_shipped_ladder_solves_two_parity_blocks(monkeypatch):
    shapes = _eigvalsh_shapes(monkeypatch)
    bloch_trace_ladder(Potential.harmonic(1.0, 1.0), 0.125, 4, P15, make_grid(*SHIPPED_GRID))
    assert shapes == [(257, 257), (255, 255)]


@pytest.mark.parametrize("pot, n, length", [
    (Potential(lambda x: 0.5 * np.asarray(x) ** 2 + 0.3 * np.asarray(x)), *SHIPPED_GRID),
    (Potential.harmonic(1.0, 1.0), 1024, 37.3),  # x_{n-j} != -x_j in the last bits
])
def test_uneven_potential_keeps_the_full_solve(monkeypatch, pot, n, length):
    grid = make_grid(n, length)
    full = np.linalg.eigvalsh(_grid_hamiltonian(pot, P15, grid))
    shapes = _eigvalsh_shapes(monkeypatch)
    assert np.array_equal(_grid_energies(pot, P15, grid), full)
    assert shapes == [(n, n)]


def test_bloch_trace_unbounded_below_potential_rejected():
    grid = make_grid(64, 20.0)
    sinkhole = Potential(lambda x: -1e4 * np.asarray(x, dtype=float) ** 2)
    with pytest.raises(NumericalError):
        bloch_trace_ladder(sinkhole, 10.0, 0, P15, grid)


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_bloch_non_finite_beta_rejected(beta):
    # beta = inf used to get past the check and be blamed on the potential
    grid = make_grid(64, 20.0)
    with pytest.raises(ConfigurationError, match="beta must be positive"):
        bloch_trace_ladder(Potential.free(), beta, 1, P15, grid)
    with pytest.raises(ConfigurationError, match="beta must be positive"):
        bloch_matrix(Potential.free(), beta, P15, grid)
    with pytest.raises(ConfigurationError, match="beta must be positive"):
        bloch_density_matrix(Potential.free(), beta, P15, grid, 0.0)


def test_classical_ratio_monotone_on_beta_ladder():
    grid = make_grid(512, 50.0)
    pot = Potential.harmonic(1.0, 1.0)
    ladder = bloch_trace_ladder(pot, 0.125, 4, P15, grid)
    ratios = [classical_partition_function(pot, b, P15) / tr for b, tr in ladder][::-1]
    gaps = [abs(r - 1.0) for r in ratios]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=5e-3)


def test_free_partition_function_validation():
    with pytest.raises(ConfigurationError, match="beta must be positive"):
        free_partition_function(-1.0, 1.0, P15)
    with pytest.raises(ConfigurationError, match="omega must be positive"):
        free_partition_function(1.0, 0.0, P15)
