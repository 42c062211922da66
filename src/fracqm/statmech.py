"""Analytic fractional statistical mechanics and the thermal-kernel solver.

Free thermal density matrix (the imaginary-time analogue of the free
kernel: the stable density of `stable.thermal_law`), its partition
function, the classical-limit partition function, and grid solutions of
the thermal-kernel equation

    -d rho / d beta = H rho,   H = -D_alpha (hbar nabla)^alpha + V,
    rho(x, 0 | x0) = delta(x - x0),

on a periodic grid of n points.  Kernel matrices and traces diagonalize
the Fourier-grid Hamiltonian H = U diag(E) U^T once (Marston & Balint-Kurti,
J. Chem. Phys. 91, 3571 (1989)): rho(beta) = U e^{-beta E} U^T / dx and
Z(beta) = sum e^{-beta E}, exact on the grid for every beta.  Single rows,
wanted at n = 2048-4096 where a dense eigh needs O(n^2) memory and O(n^3)
time, step a delta spike by imaginary-time split-operator evolution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericalError
from .numerics import ComplexField, GridSpec, PhysicalParams, adaptive_quadrature
from .spectral import EvolverConfig, Potential, evolve, kinetic_symbol, refine_time_step
from .stable import levy_density, peak_density, thermal_law

__all__ = [
    "free_density_matrix",
    "free_partition_function",
    "classical_partition_function",
    "bloch_density_matrix",
    "bloch_matrix",
    "bloch_trace_ladder",
]


def free_density_matrix(x, x0: float, beta: float, params: PhysicalParams):
    """rho_0(x, beta | x0) = (1/2 pi hbar) integral dp e^{ip(x-x0)/hbar - beta D |p|^alpha}.

    The symmetric stable density of x - x0 with scale beta D_alpha hbar^alpha
    (`stable.thermal_law`): even in x - x0, maximal on the diagonal, and
    integrates to one over x.  x is a scalar or an array, as in `levy_density`.
    """
    return levy_density(x - x0, thermal_law(beta, params))


def free_partition_function(beta: float, omega: float, params: PhysicalParams) -> float:
    """Z = Omega * (1/2 pi hbar) integral dp e^{-beta D |p|^alpha} at inverse
    temperature beta (1/erg) and linear system size omega (cm).

    Linear in Omega, scaling as beta^(-1/alpha); reduces to the classical
    ideal-gas Omega sqrt(m / 2 pi beta hbar^2) at alpha = 2.
    """
    if not (0 < omega < math.inf):
        raise ConfigurationError(f"omega must be positive, got {omega}")
    return omega * peak_density(thermal_law(beta, params))


def classical_partition_function(
    potential: Potential,
    beta: float,
    params: PhysicalParams,
    domain: tuple[float, float] | None = None,
) -> float:
    """Z_cl = [free-kernel diagonal] * integral e^{-beta V} over the domain.

    Valid when V changes little over the thermal wander scale; with V = 0 on
    a finite domain this reproduces free_partition_function.  Raises
    NumericalError when e^{-beta V} is not integrable on the domain.
    """
    law = thermal_law(beta, params)
    lo, hi = domain if domain is not None else (-np.inf, np.inf)
    val = adaptive_quadrature(
        lambda x: np.exp(-beta * potential.func(x)),
        lo, hi, rel_tol=1e-11, abs_tol=1e-12,
    )
    return peak_density(law) * val


def _delta_field(grid: GridSpec, x0: float) -> ComplexField:
    # Kronecker spike of height 1/dx at the node nearest x0: unit grid mass
    if not (-grid.length / 2.0 <= x0 < grid.length / 2.0):
        raise ConfigurationError(
            f"x0 = {x0} lies off the grid domain [{-grid.length / 2.0}, {grid.length / 2.0})")
    values = np.zeros(grid.n_points, dtype=complex)
    idx = int(round((x0 + grid.length / 2.0) / grid.spacing)) % grid.n_points
    values[idx] = 1.0 / grid.spacing
    return ComplexField(values, grid)


def bloch_density_matrix(
    potential: Potential,
    beta: float,
    params: PhysicalParams,
    grid: GridSpec,
    x0: float,
) -> np.ndarray:
    """Row rho(., beta | x0) from split-operator imaginary-time evolution.

    The delta initial condition is a unit-mass grid spike; for V = 0 the
    splitting is exact and the result matches the free stable density up to
    grid truncation.  The step is `refine_time_step`'s on that spike from
    beta / 16; it only halves, so beta / dt is a power of two, 16 or more.
    Raises ConfigurationError when x0 lies off the domain [-L/2, L/2).
    """
    spike = _delta_field(grid, x0)
    dt = refine_time_step(spike, potential, params, beta / 16.0, mode="imaginary_time")
    cfg = EvolverConfig(dt=dt, n_steps=round(beta / dt), mode="imaginary_time")
    out = evolve(spike, potential, params, cfg)
    imag_max = float(np.max(np.abs(out.values.imag)))
    real_max = float(np.max(np.abs(out.values.real)))
    if imag_max > 1e-10 * max(real_max, 1e-300):
        raise NumericalError(
            f"thermal kernel row acquired an imaginary part ({imag_max:.2e})",
            residual=imag_max,
        )
    return out.values.real.copy()


def _grid_hamiltonian(
    potential: Potential, params: PhysicalParams, grid: GridSpec
) -> np.ndarray:
    """H = C + diag(V) (erg), C the circulant matrix of the kinetic multiplier:
    its first column is the inverse FFT of the real, even symbol D |p|^alpha,
    and C[i, j] = col[(i - j) mod n]."""
    col = np.fft.ifft(kinetic_symbol(grid, params)).real
    idx = np.arange(grid.n_points)
    h = col[(idx[:, None] - idx) % grid.n_points]
    h[np.diag_indices_from(h)] += potential.on_grid(grid)
    return h


def _boltzmann_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """e^{-beta E} for the grid energies; overflow means V is unbounded below."""
    if not (0 < beta < math.inf):
        raise ConfigurationError(f"beta must be positive, got {beta}")
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * energies)
    if not np.all(np.isfinite(weights)):
        raise NumericalError(
            f"thermal kernel diverged at beta={beta}: "
            f"lowest grid energy {float(energies[0]):.3e}"
        )
    return weights


def bloch_matrix(
    potential: Potential,
    beta: float,
    params: PhysicalParams,
    grid: GridSpec,
) -> np.ndarray:
    """Kernel matrix rho[i, j] = rho(x_i, beta | x_j) = [U e^{-beta E} U^T]_ij / dx."""
    energies, vecs = np.linalg.eigh(_grid_hamiltonian(potential, params, grid))
    weights = _boltzmann_weights(energies, beta)
    return (vecs * weights) @ vecs.T / grid.spacing


def bloch_trace_ladder(
    potential: Potential,
    beta_min: float,
    n_doublings: int,
    params: PhysicalParams,
    grid: GridSpec,
) -> list[tuple[float, float]]:
    """Traces at beta_min * 2^k, k = 0..n_doublings, from one set of grid energies."""
    energies = np.linalg.eigvalsh(_grid_hamiltonian(potential, params, grid))
    betas = [beta_min * 2.0**k for k in range(n_doublings + 1)]
    return [(b, float(np.sum(_boltzmann_weights(energies, b)))) for b in betas]

