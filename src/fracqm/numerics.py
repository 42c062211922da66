"""Grids, Fourier transforms, adaptive quadrature and Gauss-Legendre nodes
shared by every module.

Transform convention (the hbar-scaled physics pair):

    phi(p) = integral dx  e^{-i p x / hbar} psi(x)          (forward)
    psi(x) = (1 / 2 pi hbar) integral dp e^{+i p x / hbar} phi(p)   (inverse)

A grid is geometry only: n points over [-L/2, L/2).  Its conjugate momenta
p_k = 2 pi hbar k / L, k in the symmetric integer range (FFT layout, exactly
one zero entry, one unpaired Nyquist value), take hbar from PhysicalParams
and are formed in one place, `grid_momenta`.  Parseval then reads

    sum |psi_j|^2 dx == (1 / 2 pi hbar) sum |phi_k|^2 dp
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericalError, QuadraturePointError, require_positive

__all__ = [
    "GridSpec",
    "PhysicalParams",
    "ComplexField",
    "make_grid",
    "grid_momenta",
    "to_momentum_space",
    "to_position_space",
    "apply_symbol",
    "adaptive_quadrature",
    "gauss_legendre",
]


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform periodic position grid, geometry only; `grid_momenta` gives its momenta."""

    n_points: int
    length: float
    spacing: float
    positions: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PhysicalParams:
    """Constants defining the fractional dynamics.

    hbar in erg*s, d_alpha in erg^(1-alpha)*cm^alpha*s^(-alpha), alpha the
    Levy index in (1, 2].  At alpha == 2, d_alpha = 1/(2 mass); `gaussian`
    builds that case from a mass, and the CLI config applies the same rule.
    """

    hbar: float = 1.0
    d_alpha: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        require_positive("hbar", self.hbar)
        require_positive("d_alpha", self.d_alpha)
        if not (1.0 < self.alpha <= 2.0):
            raise ConfigurationError(
                f"alpha must lie in (1, 2], got {self.alpha}"
            )

    @staticmethod
    def gaussian(mass: float = 1.0, hbar: float = 1.0) -> "PhysicalParams":
        """alpha=2 parameters with the conventional d_2 = 1/(2m)."""
        return PhysicalParams(hbar=hbar, d_alpha=1.0 / (2.0 * mass), alpha=2.0)


@dataclass
class ComplexField:
    """A complex-valued function sampled on a GridSpec."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"field has shape {self.values.shape}, "
                f"grid expects ({self.grid.n_points},)"
            )

    def norm_sq(self) -> float:
        """L^2 norm squared, sum |psi_j|^2 dx."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))


def make_grid(n_points: int, length: float) -> GridSpec:
    """Build the periodic grid [-length/2, length/2) of n_points points."""
    if n_points < 8 or (n_points & (n_points - 1)) != 0:
        raise ConfigurationError(
            f"n_points must be a power of two >= 8, got {n_points}"
        )
    require_positive("length", length)
    spacing = length / n_points
    if spacing == 0.0:
        raise ConfigurationError(
            f"length {length} over n_points {n_points} gives a spacing that underflows to 0")
    return GridSpec(n_points, length, spacing, -length / 2.0 + spacing * np.arange(n_points))


def _cell_edges(grid: GridSpec) -> np.ndarray:
    """The n + 1 edges of the grid's cells, each node a cell's centre."""
    return np.append(grid.positions, grid.length / 2.0) - grid.spacing / 2.0


def grid_momenta(grid: GridSpec, params: PhysicalParams) -> np.ndarray:
    """p_k = 2 pi hbar k / length, k in FFT layout {0,..,n/2-1,-n/2,..,-1}."""
    return 2.0 * np.pi * params.hbar * np.fft.fftfreq(grid.n_points, d=grid.spacing)


def _phase_signs(n: int) -> np.ndarray:
    # e^{+/- i p_k x_0 / hbar} with x_0 = -L/2 reduces to (-1)^k
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def to_momentum_space(psi: ComplexField) -> ComplexField:
    """Forward transform: phi(p_k) = sum_j e^{-i p_k x_j/hbar} psi_j dx."""
    n = psi.grid.n_points
    phi = psi.grid.spacing * _phase_signs(n) * np.fft.fft(psi.values)
    return ComplexField(phi, psi.grid)


def to_position_space(phi: ComplexField) -> ComplexField:
    """Inverse transform: psi(x_j) = (1/2 pi hbar) sum_k e^{i p_k x_j/hbar} phi_k dp."""
    n = phi.grid.n_points
    psi = np.fft.ifft(_phase_signs(n) * phi.values) / phi.grid.spacing
    return ComplexField(psi, phi.grid)


def apply_symbol(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Fourier multiplier ifft(symbol * fft(values)), symbol on the grid momenta.

    The transform pair's grid factors, dx (-1)^k forward and (-1)^k / dx
    inverse, cancel around a diagonal multiplier, so the bare FFTs suffice.
    The product and the inverse transform reuse the one spectrum array.
    """
    spec = np.fft.fft(values)
    np.multiply(symbol, spec, out=spec)
    return np.fft.ifft(spec, out=spec)


def _de_nodes(t: np.ndarray, pieces) -> np.ndarray:
    """Abscissae and weights dx/dt, stacked, of each piece's map at t."""
    u, du = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    xw = []
    for a, b in pieces:
        if a == -math.inf and b == math.inf:  # sinh-sinh
            xw.append((np.sinh(u), np.cosh(u) * du))
        elif a == -math.inf or b == math.inf:  # exp-sinh, mirrored on (-inf, b]
            s = np.exp(u)
            xw.append((a + s if b == math.inf else b - s, s * du))
        else:  # tanh-sinh; d is the distance to the nearer end
            d = (b - a) / (1.0 + np.exp(2.0 * np.abs(u)))
            xw.append((np.where(t < 0, a + d, b - d), 2.0 * d * (1.0 - d / (b - a)) * du))
    return np.concatenate(xw, axis=1)


def adaptive_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    rel_tol: float = 1e-10,
    *,
    abs_tol: float = 0.0,
    points: list[float] | None = None,
) -> float:
    """Double-exponential quadrature (Takahasi & Mori, Publ. RIMS 9, 721 (1974)).

    `integrand` maps an array of abscissae to an array of values, one call
    per level.  `points` marks interior break points (kinks, cusps).  Each
    piece maps t in [-5, 5]: tanh-sinh if finite (nodes placed by their
    distance to the nearer end, so an end at 0 is never evaluated), exp-sinh
    on a half line, sinh-sinh on the whole line.  The step halves from 1 at
    most 8 times, reusing the earlier nodes.  A point named twice is one
    break.  Raises NumericalError, naming the interval and the error (its
    `residual`), unless the error max(|S_h - S_2h|, largest |f dx/dt| at
    t = +-5) <= max(rel_tol |value|, abs_tol).  A non-finite value, overflow included, raises
    QuadraturePointError naming the first such abscissa.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise ConfigurationError(f"rel_tol must lie in (1e-14, 1e-2), got {rel_tol}")
    edges = [lower, *sorted({p for p in points or () if lower < p < upper}), upper]
    pieces = list(zip(edges[:-1], edges[1:]))

    def terms(t):
        x, w = _de_nodes(t, pieces)
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.asarray(integrand(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise QuadraturePointError(float(x[np.argmin(np.isfinite(f))]))
        return f * w

    # t = +-5, not 4: exp-sinh must reach x = e^-117 for x^-0.7 at 1e-12 (4 gives 2e-19)
    g = terms(np.arange(-5.0, 6.0))
    ends = float(np.abs(g.reshape(len(pieces), -1)[:, [0, -1]]).max())
    value = total = g.sum()
    for k in range(1, 9):
        h = 0.5**k
        total += terms(np.arange(h - 5.0, 5.0, 2.0 * h)).sum()
        value, prev = h * total, value
        err = max(abs(value - prev), ends)
        if err <= max(rel_tol * abs(value), abs_tol):
            return float(value)
    raise NumericalError(
        f"quadrature over [{lower}, {upper}] did not converge "
        f"(error {err:.2e}, value {value:.6e})", residual=err,
    )


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], built
    once per n; numpy.polynomial (~5 ms to import) loads on the first call."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)
