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
Z(beta) = sum e^{-beta E}, exact on the grid for every beta.  H commutes with
the parity x_j -> x_{n-j} = -x_j when V is bit-even on the grid (V[j] == V[n-j],
j = 1..n/2 - 1), so the traces take E from two blocks of size n/2 +- 1, about a
quarter of the full solve's cost (`_grid_energies`); any other V keeps that
solve bit for bit.  Single rows, wanted at n = 2048-4096 where a dense eigh
needs O(n^2) memory and O(n^3) time, apply a Chebyshev series of e^{-beta H}
to a delta spike; a row's cell means (`bin_averaged_row`) are what a PIMC
endpoint histogram estimates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, require_positive, within_floats
from .numerics import (GridSpec, PhysicalParams, _cell_edges, adaptive_quadrature, apply_symbol,
                       grid_momenta, make_grid)
from .spectral import Potential, kinetic_symbol
from .stable import levy_cdf, levy_density, peak_density, thermal_law

__all__ = [
    "free_density_matrix",
    "free_partition_function",
    "classical_partition_function",
    "bloch_density_matrix",
    "bin_averaged_row",
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
    ideal-gas Omega sqrt(m / 2 pi beta hbar^2) at alpha = 2.  A Z that
    leaves the floats raises NumericalError.
    """
    require_positive("omega", omega)
    return within_floats("partition function Z of system size omega",
                         lambda: omega * peak_density(thermal_law(beta, params)), positive=True,
                         beta=beta, omega=omega, hbar=params.hbar, d_alpha=params.d_alpha)


def classical_partition_function(potential: Potential, beta: float,
                                 params: PhysicalParams) -> float:
    """Z_cl = [free-kernel diagonal] * integral e^{-beta V} over the line.

    Valid when V changes little over the thermal wander scale.  Raises
    NumericalError when e^{-beta V} is not integrable.
    """
    law = thermal_law(beta, params)
    val = adaptive_quadrature(
        lambda x: np.exp(-beta * potential.func(x)),
        -np.inf, np.inf, rel_tol=1e-11, abs_tol=1e-12,
    )
    return peak_density(law) * val


def _scaled_bessel(z: float) -> np.ndarray:
    """e^{-z} I_k(z), k = 0..10 sqrt(z) + 40, by Miller's backward recurrence
    I_{k-1} = (2k / z) I_k + I_{k+1}, kept as the ratios I_k / I_{k-1} so
    nothing overflows, and normalised by I_0 + 2 sum I_k = e^z."""
    ratios, r = [], 0.0
    for k in range(int(10.0 * math.sqrt(z)) + 40, 0, -1):
        r = 1.0 / (2.0 * k / z + r)
        ratios.append(r)
    rel = np.cumprod([1.0] + ratios[::-1])
    return rel / (2.0 * rel.sum() - 1.0)


def bloch_density_matrix(
    potential: Potential,
    beta: float,
    params: PhysicalParams,
    grid: GridSpec,
    x0: float,
) -> np.ndarray:
    """Row rho(., beta | x0): e^{-beta H} on a unit-mass delta at x0 itself.

    The delta is the spike on the node nearest x0, its spectrum times
    e^{-2 pi i k (x0 - x_node) / L}, k = 0..n/2: the band-limited delta at x0
    (irfft keeps the Nyquist term's real part); on a node the factor is exactly 1.
    V = 0 on the grid is the exact multiplier e^{-beta D |p|^alpha}.  Otherwise
    the spectrum of H lies in [lo, hi] = [min V, max D|p|^alpha + max V]; with
    centre a, half-width b and z = beta b, e^{-beta H} = e^{-beta lo} sum_k
    c_k T_k((H - a) / b), c_0 = e^{-z} I_0(z), c_k = 2 (-1)^k e^{-z} I_k(z)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), cut where c_k < 1e-17.
    |T_k| <= 1 on the spectrum, so the dropped c_k bound the error in advance.
    Raises ConfigurationError when x0 lies off [-L/2, L/2) or beta is not
    positive and finite, and NumericalError when e^{-beta lo} overflows.
    """
    if not (-grid.length / 2.0 <= x0 < grid.length / 2.0):
        raise ConfigurationError(
            f"x0 = {x0} lies off the grid domain [{-grid.length / 2.0}, {grid.length / 2.0})")
    require_positive("beta", beta)
    n, v = grid.n_points, potential.on_grid(grid)
    node = round((x0 + grid.length / 2.0) / grid.spacing)
    spike = np.zeros(n)
    spike[node % n] = 1.0 / grid.spacing
    # the factor that moves the spike from its node to x0
    shift = x0 + grid.length / 2.0 - node * grid.spacing
    start = np.fft.rfft(spike) * np.exp(-2j * np.pi * np.arange(n // 2 + 1) * shift / grid.length)
    kin = kinetic_symbol(grid, params)[: n // 2 + 1]  # rfft layout
    if not v.any():
        return np.fft.irfft(np.exp(-beta * kin) * start, n)
    lo, hi = float(v.min()), float(kin.max() + v.max())
    e_lo = within_floats(f"thermal kernel's factor e^(-beta min V), min V = {lo:.3e},",
                         lambda: math.exp(-beta * lo), beta=beta)
    a, b = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coef = 2.0 * _scaled_bessel(beta * b)  # c_0 doubled, halved in row's start
    # the series in y = (a - H) / b: T_k(-y) = (-1)^k T_k(y) absorbs the signs of c_k
    kin_b, v_b = -kin / b, (a - v) / b
    delta = np.fft.irfft(start, n)
    prev, cur, row = np.zeros(n), delta, 0.5 * coef[0] * delta
    for k, c in enumerate(coef[1:int(np.argmax(coef < 1e-17))]):
        y_cur = np.fft.irfft(kin_b * np.fft.rfft(cur), n) + v_b * cur
        prev, cur = cur, (2.0 if k else 1.0) * y_cur - prev
        row += c * cur
    return e_lo * row


def bin_averaged_row(potential: Potential, beta: float, params: PhysicalParams,
                     bin_grid: GridSpec, x0: float) -> np.ndarray:
    """rho(., beta | x0) averaged over each cell of bin_grid.

    V = 0 (kind "free", from q2 = 0) gives the exact `levy_cdf` differences of
    `thermal_law(beta)` at the cell edges.  Otherwise the row is
    `bloch_density_matrix`, started at x0 itself whether or not x0 is one of
    its nodes, on a grid 8 bin-grid lengths long, at least 1024
    nodes per length, so the power tails' periodic images stay small at
    alpha < 2; a cell of width w multiplies its spectrum by
    sin(p w / 2 hbar) / (p w / 2 hbar), read at the bin centres.
    """
    if potential.kind == "free":
        cdf = levy_cdf(_cell_edges(bin_grid) - x0, thermal_law(beta, params))
        return np.diff(cdf) / bin_grid.spacing
    n_per = max(1024, bin_grid.n_points)
    fine = make_grid(8 * n_per, 8 * bin_grid.length)
    row = bloch_density_matrix(potential, beta, params, fine, x0)
    box = np.sinc(grid_momenta(fine, params) * bin_grid.spacing / (2.0 * math.pi * params.hbar))
    first = 7 * n_per // 2
    return apply_symbol(row, box).real[first:first + n_per:n_per // bin_grid.n_points]


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


def _grid_energies(potential: Potential, params: PhysicalParams, grid: GridSpec) -> np.ndarray:
    """Sorted eigenvalues of `_grid_hamiltonian`.  A V bit-even on the grid
    splits H by the parity j -> n - j (fixed nodes 0 and n/2) into an even
    block, col[|j - k|] + col[j + k] with the fixed nodes' rows and columns over
    sqrt 2, and an odd block, col[|j - k|] - col[j + k] on j, k = 1..n/2 - 1."""
    n, v = grid.n_points, potential.on_grid(grid)
    if not np.array_equal(v[1:n // 2], v[:n // 2:-1]):
        return np.linalg.eigvalsh(_grid_hamiltonian(potential, params, grid))
    col = np.fft.ifft(kinetic_symbol(grid, params)).real
    j = np.arange(n // 2 + 1)
    toeplitz, hankel = col[np.abs(j[:, None] - j)], col[(j[:, None] + j) % n]
    even, odd = toeplitz + hankel, (toeplitz - hankel)[1:-1, 1:-1]
    even[[0, -1]] *= math.sqrt(0.5)
    even[:, [0, -1]] *= math.sqrt(0.5)
    even[np.diag_indices_from(even)] += v[:n // 2 + 1]
    odd[np.diag_indices_from(odd)] += v[1:n // 2]
    return np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))


def _boltzmann_weights(energies: np.ndarray, beta: float, params: PhysicalParams) -> np.ndarray:
    """e^{-beta E} for the ascending grid energies, checked at the largest, E_0's: its
    overflow means V is unbounded below, and its underflow leaves a zero trace."""
    require_positive("beta", beta)
    e_0 = float(energies[0])
    within_floats(f"thermal weight e^(-beta E_0) at the lowest grid energy {e_0:.3e}",
                  lambda: math.exp(-beta * e_0), positive=True,
                  beta=beta, hbar=params.hbar, d_alpha=params.d_alpha)
    return np.exp(-beta * energies)


def bloch_matrix(
    potential: Potential,
    beta: float,
    params: PhysicalParams,
    grid: GridSpec,
) -> np.ndarray:
    """Kernel matrix rho[i, j] = rho(x_i, beta | x_j) = [U e^{-beta E} U^T]_ij / dx."""
    energies, vecs = np.linalg.eigh(_grid_hamiltonian(potential, params, grid))
    weights = _boltzmann_weights(energies, beta, params)
    return (vecs * weights) @ vecs.T / grid.spacing


def bloch_trace_ladder(
    potential: Potential,
    beta_min: float,
    n_doublings: int,
    params: PhysicalParams,
    grid: GridSpec,
) -> list[tuple[float, float]]:
    """Traces at beta_min * 2^k, k = 0..n_doublings, from one set of grid
    energies (`_grid_energies`: parity blocks when V is bit-even on the grid)."""
    energies = _grid_energies(potential, params, grid)
    betas = [beta_min * 2.0**k for k in range(n_doublings + 1)]
    return [(b, float(np.sum(_boltzmann_weights(energies, b, params)))) for b in betas]

