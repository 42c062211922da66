"""Free-particle kernels in real time and the composition rule.

The kernel is the conditionally convergent Fourier integral

    K(dx, t) = (1/2 pi hbar) integral dp
               exp{i p dx / hbar - i D_alpha |p|^alpha t / hbar}

A point (`free_kernel`) is a Gauss-Legendre sum on a momentum ray rotated
into the lower half plane, where the integral converges absolutely.  K is
also the stable density at the complex scale i c, c = `thermal_law(t /
hbar).scale`: the paper's continuation beta = i t / hbar of the free density
matrix.  On the line dx = s e^{i pi / (2 alpha)} it is e^{-i pi / (2 alpha)}
f_c(s), f_c the real density, so the composition check is the thermal
semigroup at zero offset, one quadrature of `levy_density` with no grid.
Rows (`kernel_row`) use one grid multiplier per time: the integrand damped
by exp(-eps |p|^alpha) on a fixed ladder of eps and Richardson-extrapolated
to eps -> 0 by one constant weight vector; a row is that multiplier's
inverse transform.  State propagation never goes through the position-space
kernel: it is `spectral.evolve`, whose V = 0 step is the exact spectral
multiplier exp(-i D |p|^alpha t / hbar).
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
    adaptive_quadrature,
    gauss_legendre,
    grid_momenta,
    to_position_space,
)
from .stable import levy_density, peak_density, thermal_law

__all__ = [
    "KernelEstimate",
    "free_kernel",
    "kernel_row",
    "chapman_kolmogorov_residual",
]

# relative (to D t / hbar) regularization strengths, strongest first
_EPS_LADDER = (0.04, 0.02, 0.01, 0.005, 0.0025)
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
    """Kernel K(dx, t) for every grid offset dx = grid.positions: the inverse
    transform of the `_ladder_symbol` multiplier.

    Returns (values, spreads).  A spread is the change from dropping the
    strongest eps rung; it does not bound the periodic-image offset, which
    near the centre of a grid 400 kernel lengths long is about 2.5e-7 at
    alpha 1.5 and 2.1e-8 at alpha 1.8 (t = 1).  The grid's momentum reach
    must damp the weakest rung below 1e-10, or `_ladder_symbol` raises
    NumericalError.
    """
    momenta = grid_momenta(grid, params)
    rows = [to_position_space(ComplexField(_ladder_symbol(t, params, momenta, w), grid)).values
            for w in (_LIMIT_WEIGHTS, _SPREAD_WEIGHTS)]
    return rows[0], np.abs(rows[1])


def _composition_legs(t_total: float, t_split: float, params: PhysicalParams):
    """The legs (t_split, t_total - t_split) of a composition at t_total;
    raises NumericalError when a leg is shorter than 2^-52 t_total, below
    which t_total - t_split rounds to t_total, or when the kernel ray at
    dx = 0 does not exist at a leg's time or at t_total."""
    legs = (t_split, t_total - t_split)
    if not min(legs) >= 2.0**-52 * t_total:
        raise NumericalError(f"composition leg {min(legs):.3g} is below 2^-52 of "
                             f"t_total={t_total}")
    for t in (*legs, t_total):
        _kernel_ray(0.0, t, params)
    return legs


def chapman_kolmogorov_residual(t_total: float, t_split: float, params: PhysicalParams) -> float:
    """|K(0, t_total) - int dx' K(-x', t_total - t_split) K(x', t_split)|, in
    kernel units.

    The integral runs on the line x' = s e^{i pi / (2 alpha)}, where
    K(x', t) = e^{-i pi / (2 alpha)} f_{c(t)}(s), f_c the real stable density
    and c(t) = `thermal_law(t / hbar).scale`.  Both sides carry the same unit
    phase, so the residual is

        |peak_density(c(t_total)) - 2 int_0^inf f_{c_a}(s) f_{c_b}(s) ds|,

    the thermal semigroup at zero offset, by one `adaptive_quadrature` at
    rel_tol 1e-12.  (On the real axis the integral does not converge
    absolutely below alpha 2.)  An error in the density's values shows; the
    scale D does not, since any D composes, so the closed-form rows hold it.
    Raises NumericalError where `_composition_legs` does.
    """
    if not (0.0 < t_split < t_total):
        raise ConfigurationError("need 0 < t_split < t_total")
    law_a, law_b = (thermal_law(t / params.hbar, params)
                    for t in _composition_legs(t_total, t_split, params))
    composed = 2.0 * adaptive_quadrature(
        lambda s: levy_density(s, law_a) * levy_density(s, law_b), 0.0, math.inf, 1e-12)
    return abs(peak_density(thermal_law(t_total / params.hbar, params)) - composed)
