"""Free-particle kernels in real time and the composition rule.

The kernel is the conditionally convergent Fourier integral

    K(dx, t) = (1/2 pi hbar) integral dp
               exp{i p dx / hbar - i D_alpha |p|^alpha t / hbar}

A point (`free_kernel`) is a Gauss-Legendre sum on a momentum ray rotated
into the lower half plane, where the integral converges absolutely.  Rows
(`kernel_row`) and the composition check use one grid multiplier per time:
the integrand damped by exp(-eps |p|^alpha) on a fixed ladder of eps and
Richardson-extrapolated to eps -> 0 by one constant weight vector.  A row is
that multiplier's inverse transform, and the composition residual is a sum
of multipliers over the grid momenta.  State propagation never goes through
the position-space kernel: it is `spectral.evolve`, whose V = 0 step is the
exact spectral multiplier exp(-i D |p|^alpha t / hbar).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .numerics import (
    ComplexField,
    GridSpec,
    PhysicalParams,
    gauss_legendre,
    grid_momenta,
    make_grid,
    to_position_space,
)

__all__ = [
    "KernelEstimate",
    "free_kernel",
    "kernel_row",
    "composition_grid",
    "chapman_kolmogorov_residual",
]

# relative (to D t / hbar) regularization strengths, strongest first
_EPS_LADDER = (0.04, 0.02, 0.01, 0.005, 0.0025)
_TRUNC_LOG = 30.0  # keep exp(-eps p^alpha) above e^-30 on the p grid
# free_kernel's nodes per panel, fewest panels, panels per block, ray cut e^-40
_GL_NODES = 40
_MIN_PANELS = 48
_PANEL_BLOCK = 1024
_RAY_CUT_LOG = 40.0


def _extrapolation_weights(eps) -> np.ndarray:
    """w_i = prod_{j != i} eps_j / (eps_j - eps_i), so that sum_i w_i f(eps_i)
    is the polynomial through the points (eps_i, f(eps_i)) at eps = 0: the
    limit of Neville's table."""
    return np.array([math.prod(e / (e - ei) for j, e in enumerate(eps) if j != i)
                     for i, ei in enumerate(eps)])


# The ladder scales with D t / hbar, so the weights do not depend on t.  A
# spread is the change from dropping the strongest rung.
_LIMIT_WEIGHTS = _extrapolation_weights(_EPS_LADDER)
_SPREAD_WEIGHTS = _LIMIT_WEIGHTS - np.concatenate(([0.0], _extrapolation_weights(_EPS_LADDER[1:])))


@dataclass(frozen=True)
class KernelEstimate:
    value: complex
    error: float


def _char_scales(t: float, params: PhysicalParams):
    """Phase strength A = D t / hbar and the kernel length scale; raises
    NumericalError when either leaves the positive finite floats."""
    a_phase = params.d_alpha * t / params.hbar
    x_c = params.hbar * a_phase ** (1.0 / params.alpha)
    if not (0.0 < a_phase < math.inf and 0.0 < x_c < math.inf):
        raise NumericalError(f"kernel scales at t={t} are not finite and positive "
                             f"(A = {a_phase:.3g}, length {x_c:.3g})")
    return a_phase, x_c


def _kernel_ray(dx: float, t: float, params: PhysicalParams):
    """free_kernel's ray angle phi, reach r_max and panel count at offset |dx|
    and time t; raises NumericalError past 2^23 nodes or with no finite reach.
    On p = r e^{-i phi} the integrand is at most e^{s1 r - s2 r^alpha},
    s1 = |dx| sin(phi) / hbar, s2 = A sin(alpha phi); phi is pi / (2 alpha)
    tilted by f = min(1, 2 / g), g that exponent's peak there, and the ray ends
    where it falls to -40."""
    alpha = params.alpha
    a_phase, _ = _char_scales(t, params)
    b = dx / params.hbar
    phi_full = math.pi / (2.0 * alpha)
    log_g = -math.inf if b == 0.0 else (
        math.log(1.0 - 1.0 / alpha) + alpha / (alpha - 1.0) * math.log(b * math.sin(phi_full))
        - math.log(alpha * a_phase) / (alpha - 1.0))
    inv_tilt = math.exp(min(max(0.0, log_g - math.log(2.0)), 700.0))  # 1 / f, kept finite
    phi, panels = phi_full / inv_tilt, max(_MIN_PANELS, math.ceil(inv_tilt))
    if _GL_NODES * panels > (1 << 23):
        raise NumericalError(f"kernel ray at dx={dx}, t={t} needs {_GL_NODES * panels:.3g} nodes")
    s1, s2 = b * math.sin(phi), a_phase * math.sin(alpha * phi)
    y, step = math.log(_RAY_CUT_LOG / s2) / alpha, 1.0
    # Newton in y = log r on the rising, concave alpha y - log((s1 r + 40) / s2)
    while step > 1e-12:
        q = s1 * math.exp(y) + _RAY_CUT_LOG
        step = (math.log(q / s2) - alpha * y) / (alpha - 1.0 + _RAY_CUT_LOG / q)
        y += step
    r_max = math.exp(y)
    if not 0.0 < r_max < math.inf:
        raise NumericalError(f"kernel ray at dx={dx}, t={t} has no finite reach ({r_max})")
    return phi, r_max, panels


def free_kernel(dx: float, t: float, params: PhysicalParams) -> KernelEstimate:
    """Free kernel amplitude at offset dx = x_b - x_a and time t > 0; even in dx.

    K = (1/pi hbar) int_0^inf cos(p |dx| / hbar) e^{-i A p^alpha} dp,
    A = D t / hbar, converges absolutely on the ray of `_kernel_ray`, where
    40-node Gauss-Legendre panels on r = u^2 (smoothing the r^alpha cusp)
    sum it; the error is the change from the sum on half the panels.
    """
    if not (t > 0):
        raise ConfigurationError(f"kernel time must be strictly positive, got {t}")
    dx = abs(dx)
    a_phase, _ = _char_scales(t, params)
    phi, r_max, panels = _kernel_ray(dx, t, params)
    # on the ray dp = 2 u e^{-i phi} du, and cos z = (e^{iz} + e^{-iz}) / 2
    rot = cmath.exp(-1j * phi)
    c1, c3 = 1j * dx / params.hbar * rot, -1j * a_phase * rot**params.alpha
    x, w = gauss_legendre(_GL_NODES)
    sums = []
    for n in (panels, panels // 2):
        width, total = math.sqrt(r_max) / n, 0j
        for start in range(0, n, _PANEL_BLOCK):
            k = np.arange(start, min(start + _PANEL_BLOCK, n), dtype=float)
            u = (k[:, None] + 0.5 * (x + 1.0)) * width
            phase = c3 * u ** (2.0 * params.alpha)
            total += np.sum((u * (np.exp(phase + c1 * u * u) + np.exp(phase - c1 * u * u))) @ w)
        sums.append(complex(total) * width * rot / (2.0 * math.pi * params.hbar))
    return KernelEstimate(sums[0], abs(sums[0] - sums[1]))


def _ladder_symbol(t: float, params: PhysicalParams, momenta: np.ndarray,
                   weights: np.ndarray = _LIMIT_WEIGHTS) -> np.ndarray:
    """Grid multiplier e^{-i A |p|^alpha} sum_i w_i e^{-eps_i A |p|^alpha},
    A = D t / hbar, eps_i = _EPS_LADDER; raises NumericalError when the
    weakest rung is not damped below 1e-10 at the largest momentum."""
    a_phase, _ = _char_scales(t, params)
    r = a_phase * np.abs(momenta) ** params.alpha
    floor = math.exp(-_EPS_LADDER[-1] * float(np.max(r)))
    if floor > 1e-10:
        raise NumericalError(f"kernel factor at t={t}: momentum grid too small "
                             f"(damping floor {floor:.2e})", residual=floor)
    return np.exp(-1j * r) * sum(w * np.exp(-eps * r) for w, eps in zip(weights, _EPS_LADDER))


def kernel_row(t: float, params: PhysicalParams, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Kernel K(dx, t) for every grid offset dx = grid.positions.

    Returns (values, spreads).  A spread is the change from dropping the
    strongest eps rung; it does not bound the periodic-image offset, which
    near the centre of `composition_grid(1.0, params, t_alias=1.0)` is about
    2.5e-7 at alpha 1.5 and 2.1e-8 at alpha 1.8.
    The grid's momentum range must cover the damped integrand: callers
    should build the grid with `composition_grid`.
    """
    momenta = grid_momenta(grid, params)
    rows = [to_position_space(ComplexField(_ladder_symbol(t, params, momenta, w), grid)).values
            for w in (_LIMIT_WEIGHTS, _SPREAD_WEIGHTS)]
    return rows[0], np.abs(rows[1])


def composition_grid(t_min: float, params: PhysicalParams, *, t_alias: float) -> GridSpec:
    """Grid for kernel rows: momentum reach sized by the shortest leg time
    t_min (weakest damping), domain length 400 kernel length scales of the
    longest, t_alias (widest kernel)."""
    n, length = _composition_size(t_min, t_alias, params)
    return make_grid(n, length)


def _composition_size(t_min: float, t_alias: float, params: PhysicalParams):
    """composition_grid's point count and length, without building the grid:
    the power of two at momentum spacing 2 pi hbar / length whose reach holds
    exp(-eps |p|^alpha) of the weakest rung at t_min down to e^-30; raises
    NumericalError past 2^23 points or when the count is not finite."""
    a_min, _ = _char_scales(t_min, params)
    _, x_c = _char_scales(t_alias, params)
    length = 400.0 * x_c
    eps_min = _EPS_LADDER[-1] * a_min
    p_max = (_TRUNC_LOG / eps_min) ** (1.0 / params.alpha) if eps_min > 0.0 else math.inf
    dp = 2.0 * math.pi * params.hbar / length
    count = 2.0 * p_max / dp if dp > 0.0 else math.inf
    if not count <= (1 << 23):
        raise NumericalError(f"kernel momentum grid would need {count:.3g} points")
    return 1 << max(8, int(math.ceil(count)) - 1).bit_length(), length


def chapman_kolmogorov_residual(t_total: float, t_split: float, params: PhysicalParams) -> float:
    """|K(0, t_total) - int dx' K(-x', t_total - t_split) K(x', t_split)|.

    Both sides are the `kernel_row` values at the middle of a shared
    `composition_grid` of length L, taken in momentum space: by Parseval on
    the grid a row's middle value is (1/L) sum_k phi_t(p_k), and the periodic
    convolution at the middle is (1/L) sum_k phi_{t_a}(p_k) phi_{t_b}(p_k),
    with phi_t the `_ladder_symbol`.  No row is formed, and one multiplier is
    built per distinct time.  Each eps rung composes exactly on the grid, and
    the periodic images cancel between the two sides, so the residual
    measures the Richardson cross terms only.
    """
    if not (0.0 < t_split < t_total):
        raise ConfigurationError("need 0 < t_split < t_total")
    t_second = t_total - t_split
    grid = composition_grid(min(t_split, t_second), params, t_alias=t_total)
    momenta = grid_momenta(grid, params)
    phi = {t: _ladder_symbol(t, params, momenta)
           for t in dict.fromkeys((t_split, t_second, t_total))}
    composed = np.sum(phi[t_second] * phi[t_split])
    return float(abs(np.sum(phi[t_total]) - composed)) / grid.length
