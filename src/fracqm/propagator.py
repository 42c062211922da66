"""Free-particle kernels in real time and the composition rule.

The kernel is the conditionally convergent Fourier integral

    K(dx, t) = (1/2 pi hbar) integral dp
               exp{i p dx / hbar - i D_alpha |p|^alpha t / hbar}

evaluated by damping the integrand with exp(-eps |p|^alpha) for a decreasing
ladder of eps and Richardson-extrapolating eps -> 0.  The extrapolation
spread plus an aliasing bound is reported as the error bar.  State
propagation never goes through the position-space kernel: it is
`spectral.evolve`, whose V = 0 step is the exact spectral multiplier
exp(-i D |p|^alpha t / hbar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .numerics import (
    ComplexField,
    GridSpec,
    PhysicalParams,
    make_grid,
    to_position_space,
)
from .stable import StableParams, peak_density

__all__ = [
    "KernelQuery",
    "KernelEstimate",
    "free_kernel",
    "kernel_row",
    "composition_grid",
    "chapman_kolmogorov_residual",
]

# relative (to D t / hbar) regularization strengths, strongest first
_EPS_LADDER = (0.04, 0.02, 0.01, 0.005, 0.0025)
_TRUNC_LOG = 30.0  # keep exp(-eps p^alpha) above e^-30 on the p grid
# free_kernel's aliasing budget, relative to the on-axis kernel magnitude
_ALIAS_REL_TOL = 1e-8


@dataclass(frozen=True)
class KernelQuery:
    x_b: float
    x_a: float
    t: float
    params: PhysicalParams

    def __post_init__(self):
        if not (self.t > 0):
            raise ConfigurationError(f"kernel time must be strictly positive, got {self.t}")


@dataclass(frozen=True)
class KernelEstimate:
    value: complex
    error: float


def _richardson_to_zero(eps: np.ndarray, values: np.ndarray):
    """Neville polynomial extrapolation of values(eps) to eps = 0.

    `values` may carry trailing array dimensions; returns (limit, spread)
    where spread is the magnitude of the last diagonal correction.
    """
    m = len(eps)
    table = [np.asarray(v, dtype=complex) for v in values]
    prev_diag = table[-1]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            table[i] = (eps[i - j] * table[i] - eps[i] * table[i - 1]) / (
                eps[i - j] - eps[i]
            )
        if j == m - 2:
            prev_diag = table[-1].copy()
    return table[-1], np.abs(table[-1] - prev_diag)


def _char_scales(t: float, params: PhysicalParams):
    """Phase strength A = D t / hbar and the kernel length scale."""
    a_phase = params.d_alpha * t / params.hbar
    x_c = params.hbar * a_phase ** (1.0 / params.alpha)
    return a_phase, x_c


def _alias_bound(dist: float, eps_min: float, t: float, params: PhysicalParams) -> float:
    """Magnitude of the nearest periodic image of the damped kernel at distance dist."""
    a_phase, _ = _char_scales(t, params)
    alpha, hbar = params.alpha, params.hbar
    if dist <= 0:
        return math.inf
    if alpha == 2.0:
        # Gaussian tail of the eps-damped closed form at the weakest damping
        mod2 = eps_min * eps_min + a_phase * a_phase
        pref = (1.0 / (2.0 * math.pi * hbar)) * math.sqrt(math.pi / math.sqrt(mod2))
        return 2.0 * pref * math.exp(-dist * dist * eps_min / (4.0 * hbar * hbar * mod2))
    # images on both sides of the periodic window
    coeff = 2.0 * a_phase * hbar**alpha * math.gamma(1.0 + alpha) / math.pi
    return coeff / dist ** (1.0 + alpha)


def _eps_sensitivity(dx: float, t: float, params: PhysicalParams) -> float:
    """Scale of d(log K_eps)/d(eps): |p|^alpha at the stationary-phase point,
    floored by the 1/A scale of the undeflected integrand."""
    a_phase, _ = _char_scales(t, params)
    alpha, hbar = params.alpha, params.hbar
    base = 1.0 / a_phase
    if dx == 0.0:
        return base
    p_star = (dx / (hbar * alpha * a_phase)) ** (1.0 / (alpha - 1.0))
    return max(base, p_star**alpha)


def _grid_points(eps_min: float, alias_length: float, params: PhysicalParams) -> int:
    """Power-of-two point count at momentum spacing 2 pi hbar / alias_length
    whose reach holds exp(-eps_min |p|^alpha) down to e^-30; at most 2^23."""
    p_max = (_TRUNC_LOG / eps_min) ** (1.0 / params.alpha)
    dp = 2.0 * math.pi * params.hbar / alias_length
    n = 1 << max(8, int(math.ceil(2.0 * p_max / dp)) - 1).bit_length()
    if n > (1 << 23):
        raise NumericalError(f"kernel momentum grid would need {n} points")
    return n


def _free_kernel_grid(dx: float, t: float, params: PhysicalParams):
    """free_kernel's damping ladder, periodic domain length and point count at
    offset |dx| and time t; raises NumericalError past 2^23 points."""
    alpha, hbar = params.alpha, params.hbar
    a_phase, x_c = _char_scales(t, params)
    eps = np.array(_EPS_LADDER) / _eps_sensitivity(dx, t, params)
    if alpha == 2.0:
        need = math.log(1.0 / _ALIAS_REL_TOL) + 4.0
        alias_length = dx + 2.0 * hbar * math.sqrt(a_phase**2 * need / eps[-1])
    else:
        # |K(0, t)| is the stable peak at the modulus (D t / hbar) hbar^alpha of its scale
        target_abs = _ALIAS_REL_TOL * peak_density(StableParams(alpha, a_phase * hbar**alpha))
        coeff = 2.0 * a_phase * hbar**alpha * math.gamma(1.0 + alpha) / math.pi
        alias_length = dx + (4.0 * coeff / target_abs) ** (1.0 / (1.0 + alpha))
    alias_length = max(alias_length, 40.0 * x_c + 4.0 * dx)
    return eps, alias_length, _grid_points(eps[-1], alias_length, params)


def free_kernel(query: KernelQuery) -> KernelEstimate:
    """Free kernel amplitude at (x_b - x_a, t); translation invariant, even.

    The periodic domain holds aliasing below 1e-8 of the on-axis kernel
    magnitude (`_ALIAS_REL_TOL`) and spans at least 40 x_c + 4 |dx|, x_c
    the kernel length scale; the returned error adds the Richardson spread
    to the aliasing bound.
    """
    params = query.params
    alpha, hbar = params.alpha, params.hbar
    dx = abs(query.x_b - query.x_a)
    a_phase, _ = _char_scales(query.t, params)
    eps, alias_length, n = _free_kernel_grid(dx, query.t, params)
    dp = 2.0 * math.pi * hbar / alias_length
    p = dp * (np.arange(n) - n // 2)
    r = np.abs(p) ** alpha
    base = np.exp(1j * p * dx / hbar - 1j * a_phase * r)
    vals = np.array(
        [np.sum(base * np.exp(-e * r)) * dp / (2.0 * math.pi * hbar) for e in eps]
    )
    value, spread = _richardson_to_zero(eps, vals)
    err = float(spread) + _alias_bound(alias_length - dx, float(eps[-1]), query.t, params)
    return KernelEstimate(complex(value), err)


def kernel_row(
    t: float, params: PhysicalParams, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel K(dx, t) for every grid offset dx = grid.positions.

    Returns (values, spreads); spreads are the per-point Richardson spreads.
    The grid's momentum range must cover the damped integrand: callers
    should build the grid with `composition_grid`.
    """
    a_phase, _ = _char_scales(t, params)
    eps = np.array(_EPS_LADDER) * a_phase
    r = np.abs(grid.momenta) ** params.alpha
    rows = []
    for e in eps:
        phi = ComplexField(np.exp(-(e + 1j * a_phase) * r), grid)
        rows.append(to_position_space(phi).values)
    value, spread = _richardson_to_zero(eps, np.array(rows))
    trunc = math.exp(-float(eps[-1]) * float(np.max(r)))
    if trunc > 1e-10:
        raise NumericalError(
            f"kernel factor at t={t}: momentum grid too small "
            f"(damping floor {trunc:.2e})", residual=trunc,
        )
    return value, spread


def composition_grid(t_min: float, params: PhysicalParams, *, t_alias: float) -> GridSpec:
    """Grid for kernel rows: momentum reach sized by the shortest leg time
    t_min (weakest damping), domain length 400 kernel length scales of the
    longest, t_alias (widest kernel)."""
    n, length = _composition_size(t_min, t_alias, params)
    return make_grid(n, length, params.hbar)


def _composition_size(t_min: float, t_alias: float, params: PhysicalParams):
    """composition_grid's point count and length, without building the grid;
    raises NumericalError past 2^23 points."""
    a_min, _ = _char_scales(t_min, params)
    _, x_c = _char_scales(t_alias, params)
    alias_length = 400.0 * x_c
    return _grid_points(_EPS_LADDER[-1] * a_min, alias_length, params), alias_length


def chapman_kolmogorov_residual(
    x_b: float,
    x_a: float,
    t_total: float,
    t_split: float,
    params: PhysicalParams,
) -> float:
    """|K(x_b, t_total | x_a) - int dx' K(x_b, t_total - t_split | x') K(x', t_split | x_a)|.

    Both sides are evaluated on a shared `composition_grid` (endpoints
    snapped to grid nodes); the intermediate integral is the periodic
    convolution sum.
    """
    if not (0.0 < t_split < t_total):
        raise ConfigurationError("need 0 < t_split < t_total")
    grid = composition_grid(min(t_split, t_total - t_split), params, t_alias=t_total)
    n, dx = grid.n_points, grid.spacing
    ib = int(round((x_b + grid.length / 2.0) / dx)) % n
    ia = int(round((x_a + grid.length / 2.0) / dx)) % n

    rows = {}
    for tag, t in (("first leg", t_split), ("second leg", t_total - t_split), ("direct", t_total)):
        try:
            rows[tag] = kernel_row(t, params, grid)
        except NumericalError as exc:
            raise NumericalError(f"{tag} kernel failed: {exc}", residual=exc.residual) from exc

    j = np.arange(n)
    second = rows["second leg"][0][(ib - j + n // 2) % n]
    first = rows["first leg"][0][(j - ia + n // 2) % n]
    composed = np.sum(second * first) * dx
    direct = rows["direct"][0][(ib - ia + n // 2) % n]
    return float(abs(direct - composed))
