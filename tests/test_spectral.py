import math
import pathlib

import numpy as np
import pytest

from fracqm import cli, spectral, statmech
from fracqm.cli import parse_flat, validate_config
from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import ComplexField, PhysicalParams, apply_symbol, grid_momenta, make_grid
from fracqm.spectral import (
    EvolverConfig,
    Potential,
    energy_expectation,
    evolve,
    kinetic_symbol,
    refine_time_step,
)
from fracqm.statmech import bloch_density_matrix
from oracles import hermiticity_residual, inner_product


def plane_wave(grid, k_index, params, normalized=True):
    p0 = grid_momenta(grid, params)[k_index]
    psi = np.exp(1j * p0 * grid.positions / params.hbar)
    if normalized:
        psi = psi / math.sqrt(grid.length)
    return ComplexField(psi, grid), p0


def gaussian_state(grid, x0=0.0, sigma=1.0, p0=0.0):
    # every PhysicalParams in this module has hbar = 1, so e^{i p0 x / hbar} = e^{i p0 x}
    psi = np.exp(
        -((grid.positions - x0) ** 2) / (4.0 * sigma**2)
        + 1j * p0 * grid.positions
    ).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.spacing))
    return ComplexField(psi, grid)


def test_riesz_plane_wave_eigenfunction():
    grid = make_grid(256, 32.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    field, p0 = plane_wave(grid, 9, params, normalized=False)
    out = apply_symbol(field.values, kinetic_symbol(grid, params))
    expected = abs(p0) ** 1.5 * field.values
    assert np.max(np.abs(out - expected)) < 1e-11 * abs(p0) ** 1.5


def test_riesz_annihilates_constants():
    grid = make_grid(64, 8.0)
    params = PhysicalParams(1.0, 1.0, 1.7)
    out = apply_symbol(np.ones(64, dtype=complex), kinetic_symbol(grid, params))
    assert np.max(np.abs(out)) < 1e-13


def test_riesz_alpha2_matches_finite_difference_second_order():
    params = PhysicalParams(1.0, 1.0, 2.0)
    errs = []
    for n in (256, 512, 1024):
        grid = make_grid(n, 30.0)
        psi = np.exp(-(grid.positions**2)).astype(complex)
        spectral = apply_symbol(psi, kinetic_symbol(grid, params))  # -psi'' at alpha 2, D 1
        dx = grid.spacing
        fd = -(np.roll(psi, -1) - 2.0 * psi + np.roll(psi, 1)) / dx**2
        errs.append(np.max(np.abs(spectral - fd)))
    # central difference error is O(dx^2): halving dx divides the error by ~4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_riesz_alpha2_spectrally_exact_for_band_limited_field():
    grid = make_grid(128, 16.0)
    params = PhysicalParams(1.0, 1.0, 2.0)
    p = grid_momenta(grid, params)
    ks = [p[2], p[5], p[-7]]
    psi = sum(np.exp(1j * k * grid.positions) for k in ks)
    exact = sum(k**2 * np.exp(1j * k * grid.positions) for k in ks)
    out = apply_symbol(psi, kinetic_symbol(grid, params))
    assert np.max(np.abs(out - exact)) < 1e-10


def test_riesz_linear():
    grid = make_grid(128, 16.0)
    params = PhysicalParams(1.0, 1.0, 1.3)
    rng = np.random.default_rng(1)
    a = ComplexField(rng.normal(size=128) + 1j * rng.normal(size=128), grid)
    b = ComplexField(rng.normal(size=128) + 1j * rng.normal(size=128), grid)
    kin = kinetic_symbol(grid, params)
    lhs = apply_symbol(2.0 * a.values - 3j * b.values, kin)
    rhs = 2.0 * apply_symbol(a.values, kin) - 3j * apply_symbol(b.values, kin)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_free_evolution_equals_spectral_multiplier(alpha):
    grid = make_grid(512, 40.0)
    params = PhysicalParams(1.0, 1.0, alpha)
    field = gaussian_state(grid, sigma=1.2, p0=1.0)
    t = 0.8
    stepped = evolve(field, Potential.free(), params, EvolverConfig(t / 40, 40))
    phi = np.fft.fft(field.values)
    phase = np.exp(-1j * np.abs(grid_momenta(grid, params)) ** alpha * t)
    direct = np.fft.ifft(phase * phi)
    assert np.max(np.abs(stepped.values - direct)) < 1e-12


@pytest.mark.parametrize("alpha", ["1.2", "1.5", "2"])
def test_shipped_evolve_runs_forward_for_its_time(alpha):
    # the shipped config (D = 1/(2m) at alpha 2) against the exact propagator
    # of the grid Hamiltonian the Strang steps split, U e^{-iEt/hbar} U^T.
    # Strang's global error is C dt^2: the runs at dt, dt/2 and dt/4 must show
    # that order, and (4/3) |psi_dt - psi_dt/2| then estimates the error, so
    # the gap to the exact state is held to twice it.  Both read 7.2e-6,
    # 1.02e-5 and 7.6e-6; a time-reversed phase reads gaps of 1.10-1.41, and
    # half the time 1.41-1.53, while both pass the CLI's norm and energy rows.
    raw = parse_flat((pathlib.Path(__file__).parents[1] / "configs" / "evolve.cfg").read_text())
    p = validate_config({**raw, "alpha": alpha}).parameters
    params, pot = cli._physical(p), cli._potential(p)
    grid = make_grid(p["n_points"], p["length"])
    field = gaussian_state(grid, x0=p["x0"], sigma=p["sigma"])
    t = p["dt"] * p["n_steps"]
    psi = [evolve(field, pot, params, EvolverConfig(p["dt"] / k, k * p["n_steps"])).values
           for k in (1, 2, 4)]
    energies, vecs = np.linalg.eigh(statmech._grid_hamiltonian(pot, params, grid))
    exact = vecs @ (np.exp(-1j * energies * t / params.hbar) * (vecs.T @ field.values))

    def l2(d):
        return math.sqrt(float(np.sum(np.abs(d) ** 2) * grid.spacing))

    assert l2(psi[0] - psi[1]) / l2(psi[1] - psi[2]) == pytest.approx(4.0, rel=0.1)
    estimate = 4.0 / 3.0 * l2(psi[0] - psi[1])
    assert l2(psi[0] - exact) <= 2.0 * estimate
    if alpha == "2":
        # Ehrenfest in V = x^2 / 2: <x>(t) = x0 cos t; Strang reads 0.2836671799.
        # |<x>_a - <x>_b| <= |a - b| (|x a| + |x b|), with |x psi| the rms position
        rho = np.abs(psi[0]) ** 2 * grid.spacing
        rms = math.sqrt(float(np.sum(grid.positions**2 * rho)))
        mean_x = float(np.sum(grid.positions * rho))
        assert abs(mean_x - p["x0"] * math.cos(t)) <= 2.0 * rms * 2.0 * estimate


def test_zero_steps_returns_input_bit_identical():
    grid = make_grid(64, 8.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    field = gaussian_state(grid)
    out = evolve(field, Potential.free(), params, EvolverConfig(0.1, 0))
    assert np.array_equal(out.values, field.values)
    assert out is not field and not np.shares_memory(out.values, field.values)


def test_in_place_steps_match_written_out_steps_bitwise():
    # evolve reuses its buffers; each step must still equal, bit for bit, the
    # step written with a new array per product and transform
    grid = make_grid(256, 24.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    pot = Potential.harmonic(1.0, 1.0)
    field = gaussian_state(grid, x0=0.5, p0=1.0)
    before = field.values.copy()
    dt = 0.01
    out = evolve(field, pot, params, EvolverConfig(dt, 200))
    half_v = np.exp(-0.5j * pot.on_grid(grid) * dt)
    kin_fac = np.exp(-1j * kinetic_symbol(grid, params) * dt)
    psi = field.values.copy()
    for _ in range(200):
        psi = half_v * psi
        psi = np.fft.ifft(kin_fac * np.fft.fft(psi))
        psi = half_v * psi
    assert np.array_equal(out.values, psi)
    assert np.array_equal(field.values, before)


def test_zero_steps_still_validate_the_potential():
    grid = make_grid(64, 8.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    pot = Potential(lambda x: np.where(np.abs(x) < 1.0, np.inf, 0.0))
    with pytest.raises(ConfigurationError, match="potential is not finite"):
        evolve(gaussian_state(grid), pot, params, EvolverConfig(0.1, 0))


def test_coherent_state_oscillates_classically():
    # alpha=2 harmonic oscillator: <x>(t) = x0 cos(w t)
    m = omega = 1.0
    params = PhysicalParams.gaussian(mass=m)
    grid = make_grid(1024, 40.0)
    pot = Potential.harmonic(m, omega)
    x0 = 1.0
    sigma = math.sqrt(1.0 / (2.0 * m * omega))
    field = gaussian_state(grid, x0=x0, sigma=sigma)
    period = 2.0 * math.pi / omega
    for frac, expect in ((0.25, 0.0), (0.5, -x0), (1.0, x0)):
        out = evolve(
            field, pot, params, EvolverConfig(period / 2000.0, int(2000 * frac))
        )
        xs = float(np.sum(grid.positions * np.abs(out.values) ** 2) * grid.spacing)
        assert xs == pytest.approx(expect, abs=1e-4 * x0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_norm_conserved_over_thousand_steps(alpha):
    params = (
        PhysicalParams.gaussian(mass=1.0)
        if alpha == 2.0
        else PhysicalParams(1.0, 1.0, alpha)
    )
    grid = make_grid(512, 40.0)
    pot = Potential.harmonic(1.0, 1.0)
    field = gaussian_state(grid, x0=0.5)
    out = evolve(field, pot, params, EvolverConfig(0.002, 1000))
    assert abs(out.norm() - 1.0) < 1e-10


def test_free_semigroup_property():
    grid = make_grid(512, 40.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    field = gaussian_state(grid, sigma=1.0, p0=2.0)
    one = evolve(field, Potential.free(), params, EvolverConfig(0.01, 30))
    two = evolve(one, Potential.free(), params, EvolverConfig(0.01, 50))
    direct = evolve(field, Potential.free(), params, EvolverConfig(0.01, 80))
    assert np.max(np.abs(two.values - direct.values)) < 1e-11


def test_plane_wave_phase_law():
    grid = make_grid(256, 32.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    field, p0 = plane_wave(grid, 7, params)
    t = 0.6
    out = evolve(field, Potential.free(), params, EvolverConfig(t / 12, 12))
    expected = field.values * np.exp(-1j * abs(p0) ** 1.5 * t)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def normalized_row(pot, beta, params, grid, x0):
    row = ComplexField(bloch_density_matrix(pot, beta, params, grid, x0), grid)
    return ComplexField(row.values / row.norm(), grid)


def test_thermal_row_projects_ground_state():
    m = omega = 1.0
    params = PhysicalParams.gaussian(mass=m)
    grid = make_grid(512, 30.0)
    pot = Potential.harmonic(m, omega)
    out = normalized_row(pot, 9.0, params, grid, 0.8)
    assert energy_expectation(out, pot, params) == pytest.approx(0.5, abs=1e-5)


def test_imaginary_projection_matches_dense_diagonalization():
    # independent oracle: assemble the dense Hamiltonian column by column
    # and diagonalize; no closed form exists for the fractional oscillator
    params = PhysicalParams(1.0, 1.0, 1.5)
    grid = make_grid(256, 30.0)
    pot = Potential.harmonic(1.0, 1.0)
    v = pot.on_grid(grid)
    kin = params.d_alpha * np.abs(grid_momenta(grid, params)) ** params.alpha
    h = np.fft.ifft(kin[:, None] * np.fft.fft(np.eye(256), axis=0), axis=0)
    h += np.diag(v)
    e0_dense = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])

    ground = normalized_row(pot, 16.0, params, grid, 0.0)
    e0_projected = energy_expectation(ground, pot, params)
    assert e0_projected == pytest.approx(e0_dense, rel=1e-6)


def test_thermal_row_mass_nonincreasing_for_positive_potential():
    # d/dbeta of the row mass is -sum V rho dx <= 0; the spike has unit mass
    params = PhysicalParams(1.0, 1.0, 1.6)
    grid = make_grid(256, 30.0)
    pot = Potential.harmonic(1.0, 1.0)
    masses = [1.0] + [
        float(np.sum(bloch_density_matrix(pot, 0.05 * 2.0**k, params, grid, 0.5)) * grid.spacing)
        for k in range(6)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_dispersion_relation(alpha):
    grid = make_grid(256, 32.0)
    params = PhysicalParams(1.0, 0.9, alpha)
    field, p0 = plane_wave(grid, 11, params)
    e = energy_expectation(field, Potential.free(), params)
    assert e == pytest.approx(0.9 * abs(p0) ** alpha, rel=1e-12)


def test_energy_ground_state_harmonic():
    m = omega = 1.0
    params = PhysicalParams.gaussian(mass=m)
    grid = make_grid(512, 30.0)
    sigma = math.sqrt(1.0 / (2.0 * m * omega))
    field = gaussian_state(grid, sigma=sigma)
    e = energy_expectation(field, Potential.harmonic(m, omega), params)
    assert e == pytest.approx(0.5, abs=1e-6)


def test_energy_shifts_linearly_with_constant_potential():
    params = PhysicalParams(1.0, 1.0, 1.5)
    grid = make_grid(256, 30.0)
    field = gaussian_state(grid, sigma=1.1)
    base = energy_expectation(field, Potential.free(), params)
    shifted = energy_expectation(
        field, Potential(lambda x: np.full_like(np.asarray(x, float), 2.5)), params
    )
    assert shifted - base == pytest.approx(2.5, abs=1e-12)


def test_energy_rejects_unnormalized_state():
    params = PhysicalParams(1.0, 1.0, 1.5)
    grid = make_grid(64, 8.0)
    field = ComplexField(np.ones(64, dtype=complex), grid)
    with pytest.raises(ConfigurationError):
        energy_expectation(field, Potential.free(), params)
    # a NaN norm is not within 1e-6 of one either
    field = ComplexField(np.full(64, np.nan, dtype=complex), grid)
    with pytest.raises(ConfigurationError, match="got norm nan"):
        energy_expectation(field, Potential.free(), params)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_hermiticity_residual_random_pairs(alpha):
    grid = make_grid(256, 20.0)
    params = PhysicalParams(1.0, 1.0, alpha)
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = ComplexField(rng.normal(size=256) + 1j * rng.normal(size=256), grid)
        b = ComplexField(rng.normal(size=256) + 1j * rng.normal(size=256), grid)
        scale = a.norm() * b.norm() * np.max(np.abs(grid_momenta(grid, params))) ** alpha
        assert hermiticity_residual(a, b, params) < 1e-12 * scale


def test_self_inner_product_is_real():
    grid = make_grid(128, 16.0)
    params = PhysicalParams(1.0, 1.0, 1.5)
    rng = np.random.default_rng(5)
    a = ComplexField(rng.normal(size=128) + 1j * rng.normal(size=128), grid)
    val = inner_product(a, ComplexField(apply_symbol(a.values, kinetic_symbol(grid, params)), grid))
    assert abs(val.imag) < 1e-12 * abs(val.real)


def test_refine_time_step_halves_until_defect_met(monkeypatch):
    params = PhysicalParams.gaussian(mass=1.0)
    grid = make_grid(256, 30.0)
    field = gaussian_state(grid, x0=0.5)
    dt = refine_time_step(field, Potential.harmonic(1.0, 1.0), params, 0.2)
    assert dt < 0.2
    assert dt > 0.0
    # a budget too small to reach that dt is a failed computation, not bad input
    monkeypatch.setattr(spectral, "_MAX_HALVINGS", 1)
    with pytest.raises(NumericalError, match="^could not meet splitting defect") as exc:
        refine_time_step(field, Potential.harmonic(1.0, 1.0), params, 0.2)
    assert exc.value.residual >= 1e-8


def test_divergent_row_names_beta_and_non_finite_field_rejected():
    params = PhysicalParams(1.0, 1.0, 1.5)
    grid = make_grid(64, 8.0)
    deep_well = Potential(lambda x: np.full_like(np.asarray(x, float), -1e6))
    with pytest.raises(NumericalError, match="beta=1.0"):
        bloch_density_matrix(deep_well, 1.0, params, grid, 0.0)
    field = gaussian_state(grid)
    field.values[3] = np.nan
    with pytest.raises(ConfigurationError, match="not finite"):
        evolve(field, Potential.free(), params, EvolverConfig(0.1, 5))


def test_evolve_rejects_overflowing_phase():
    # dt V = 1e300 * 1e10 overflows, so the half-step factor e^{-i V dt / 2 hbar} is nan
    params = PhysicalParams(1.0, 1.0, 1.5)
    grid = make_grid(64, 8.0)
    steep = Potential(lambda x: np.full_like(np.asarray(x, float), 1e300))
    with pytest.raises(ConfigurationError, match="not finite"):
        evolve(gaussian_state(grid), steep, params, EvolverConfig(1e10, 1))


def test_potential_must_be_finite_on_grid():
    grid = make_grid(64, 8.0)
    bad = Potential(lambda x: np.where(x > 0, np.inf, 0.0))
    with pytest.raises(ConfigurationError):
        bad.on_grid(grid)


@pytest.mark.parametrize("mass,omega,match", [
    (math.inf, 1.0, "^mass must be finite"), (math.nan, 1.0, "^mass must be finite"),
    (1.0, -math.inf, "^omega must be finite"), (1.0, math.nan, "^omega must be finite"),
    (1.0, 1e200, "overflows"), (1e308, 10.0, "overflows"),
])
def test_harmonic_rejects_coefficient_that_is_not_finite(mass, omega, match):
    # a chain reads the coefficient, not V on its paths, so it must be finite
    with pytest.raises(ConfigurationError, match=match):
        Potential.harmonic(mass, omega)


def test_potential_kind_is_read_from_q2():
    assert Potential(lambda x: x).kind == "custom"
    assert Potential.free().kind == "free" and Potential.free().q2 == 0.0
    assert Potential.harmonic(1.0, 0.0).kind == "free"
    assert Potential.harmonic(1.0, 1.0).kind == "harmonic"
    assert Potential.harmonic(1.0, 1.0).q2 == 0.5


@pytest.mark.parametrize("q2", ["free", "harmonic", math.inf, math.nan])
def test_potential_rejects_q2_that_is_not_a_finite_float(q2):
    # the old Potential(func, "free") call would otherwise be read as a coefficient
    with pytest.raises(ConfigurationError, match="^q2 must be None or a finite float"):
        Potential(lambda x: x, q2)
