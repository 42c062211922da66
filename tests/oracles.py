"""Closed-form oracles, and the kernel-row grid sizer, shared by several test modules."""

import math

import mpmath
import numpy as np
from scipy import integrate

from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import ComplexField, apply_symbol, make_grid
from fracqm.propagator import _EPS_LADDER, _char_scales
from fracqm.spectral import kinetic_symbol

_TRUNC_LOG = 30.0  # keep exp(-eps p^alpha) above e^-30 on the p grid


def inner_product(a, b):
    """(a, b) = sum conj(a_j) b_j dx for two ComplexFields on the same grid."""
    if a.grid is not b.grid and (
        a.grid.n_points != b.grid.n_points
        or a.grid.length != b.grid.length
    ):
        raise ConfigurationError("inner product requires fields on the same grid")
    return complex(np.vdot(a.values, b.values) * a.grid.spacing)


def hermiticity_residual(phi, chi, params):
    """|(phi, K chi) - (K phi, chi)| for the grid kinetic operator K, the
    multiplier `kinetic_symbol`; zero in exact arithmetic."""
    def kinetic(field):
        return ComplexField(apply_symbol(field.values, kinetic_symbol(field.grid, params)),
                            field.grid)

    lhs = inner_product(phi, kinetic(chi))
    rhs = np.conj(inner_product(chi, kinetic(phi)))
    return abs(lhs - rhs)


def mehler_bin_averages(centers, width, beta):
    """Cell averages of Mehler's kernel rho(x, beta | 0) at alpha = 2, m = omega = hbar = 1.

    rho(x, beta | 0) = exp(-x^2 / (2 tanh beta)) / sqrt(2 pi sinh beta), so its
    average over [x - width/2, x + width/2] is an erf difference: the same
    kind of number a PIMC endpoint histogram estimates.
    """
    sd = math.sqrt(math.tanh(beta))
    amp = math.sqrt(1.0 / (2.0 * math.pi * math.sinh(beta)))
    cdf = [math.erf((x + s * width / 2.0) / (math.sqrt(2.0) * sd))
           for x in centers for s in (-1.0, 1.0)]
    return amp * math.sqrt(math.pi / 2.0) * sd * np.diff(cdf)[::2] / width


def fraction_within_3se(mean, oracle, std_error, covered):
    """Share of the covered bins whose estimate lies within 3 std errors of
    its oracle; 0 when no bin is covered."""
    if not np.any(covered):
        return 0.0
    return float(np.mean(np.abs(mean[covered] - oracle[covered]) <= 3.0 * std_error[covered]))


def _cusp_moment(u, h, du, mu):
    """Normalised moment sum |u|^mu h(u) du / sum h(u) du, each sum with the
    |u|^mu cusp removed by subtraction.

    Plain midpoint converges only as du^(1+mu) because of the cusp at u=0.
    Subtracting h(0) * gaussian(u), built once for both sums, cancels the
    cusp coefficient; the subtracted piece integrates in closed form against
    |u|^mu.
    """
    au = np.abs(u)
    j = int(np.argmin(au))
    lo = max(0, min(j - 1, len(u) - 4))
    # cubic Lagrange interpolation of h at u = 0 from the four nearest cells
    h0 = 0.0
    for i in range(lo, lo + 4):
        weight = 1.0
        for k in range(lo, lo + 4):
            if k != i:
                weight *= (0.0 - u[k]) / (u[i] - u[k])
        h0 += weight * h[i]
    w = 16.0 * du
    smooth = h - h0 * np.exp(-(u * u) / (2.0 * w * w))

    def moment(m, weighted):
        closed = h0 * (math.sqrt(2.0) * w) ** (m + 1.0) * math.gamma((m + 1.0) / 2.0)
        return float(np.sum(weighted)) * du + closed

    return moment(mu, au**mu * smooth) / moment(0.0, smooth)


def position_deviation(psi, mu, center):
    """mu-root of the grid moment <|x - center|^mu> of the density |psi|^2.

    The moment is self-normalized and uses the spread factor's cusp rule, so
    it is a direct check on that route when center is the closed-form drift
    drift_velocity(packet, params) * t, the origin of its reduction.
    """
    rho = np.abs(psi.values) ** 2
    return _cusp_moment(psi.grid.positions - center, rho, psi.grid.spacing, mu) ** (1.0 / mu)


def padded_fft_spread_factor(alpha, mu, nu, tau, eta0):
    """The spread factor N on `packet_spread_factor`'s sigma grid, the direct
    way: one zero-padded n_fft-point inverse FFT of the eta window, then the
    cusp-subtracted midpoint moment of |g|^2 by `_cusp_moment` (arguments
    unchecked)."""
    c0 = alpha * tau * eta0 ** (alpha - 1.0)
    half_width = math.log(1e16) ** (1.0 / nu) + 2.0
    d_eta = math.pi / (1024.0 + abs(c0))
    n_phys = int(math.ceil(2.0 * half_width / d_eta))
    n_fft = max(1 << 18, 1 << (2 * n_phys - 1).bit_length())
    eta = eta0 - half_width + d_eta * np.arange(n_phys)
    f = np.exp(1j * eta * c0 - 1j * tau * np.abs(eta) ** alpha - np.abs(eta - eta0) ** nu)
    g_mag2 = np.abs(d_eta * n_fft * np.fft.ifft(f, n_fft)) ** 2
    sigma = 2.0 * math.pi * np.fft.fftfreq(n_fft, d=d_eta)
    return _cusp_moment(sigma, g_mag2, 2.0 * math.pi / (n_fft * d_eta), mu)


def bergstrom_tail(z, alpha, terms=30):
    """Unit-scale symmetric stable density f(z) and upper tail 1 - F(z) at
    large z > 0 from Bergstrom's series (Ark. Mat. 2, 1952), alpha in (1, 2):

        f(z)     = (1/pi) sum_n (-1)^(n+1) Gamma(n alpha + 1) / n! sin(n pi alpha / 2) z^(-n alpha - 1)
        1 - F(z) = (1/pi) sum_n (-1)^(n+1) Gamma(n alpha) / n! sin(n pi alpha / 2) z^(-n alpha)

    The series is asymptotic; 30 terms at 40 digits leave it far below
    double round-off from z = 30 on.
    """
    with mpmath.workdps(40):
        z, a = mpmath.mpf(z), mpmath.mpf(alpha)
        dens = tail = mpmath.mpf(0)
        for n in range(1, terms + 1):
            term = (-1) ** (n + 1) * mpmath.sin(n * mpmath.pi * a / 2) / mpmath.factorial(n)
            dens += term * mpmath.gamma(n * a + 1) * z ** (-n * a - 1)
            tail += term * mpmath.gamma(n * a) * z ** (-n * a)
        return float(dens / mpmath.pi), float(tail / mpmath.pi)


def stable_power_series(z, alpha, terms=80):
    """Unit-scale symmetric stable density f(z) and F(z) - 1/2 from their
    power series in z, entire for alpha in (1, 2]:

        f(z)       = (1/(pi alpha)) sum_n (-1)^n Gamma((2n+1)/alpha) z^(2n) / (2n)!
        F(z) - 1/2 = (1/(pi alpha)) sum_n (-1)^n Gamma((2n+1)/alpha) z^(2n+1) / (2n+1)!

    summed at 40 digits, so for |z| up to a few it is exact to double
    precision; it shares no contour or quadrature with `stable`.
    """
    with mpmath.workdps(40):
        z, a = mpmath.mpf(z), mpmath.mpf(alpha)
        dens = half = mpmath.mpf(0)
        for n in range(terms):
            g = (-1) ** n * mpmath.gamma((2 * n + 1) / a)
            dens += g * z ** (2 * n) / mpmath.factorial(2 * n)
            half += g * z ** (2 * n + 1) / mpmath.factorial(2 * n + 1)
        return float(dens / (mpmath.pi * a)), float(half / (mpmath.pi * a))


def quadpack(integrand, lower, upper, rel_tol):
    """QUADPACK's adaptive Gauss-Kronrod value of a scalar integrand (absolute
    floor 1.49e-13, at most 400 subintervals); asserts its error estimate
    meets rel_tol.

    For integrands with a slow algebraic tail whose far values are inexact,
    such as x^1.2 times the stable density: QUADPACK's extrapolation stops
    short of the range where `levy_density` loses relative accuracy, while
    `numerics.adaptive_quadrature` samples out to x ~ 1e50 and refuses.
    """
    value, err, *_ = integrate.quad(integrand, lower, upper, epsabs=1.49e-13,
                                    epsrel=rel_tol, limit=400, full_output=True)
    assert err <= max(rel_tol * abs(value), 1.49e-13), f"QUADPACK error {err:.2e}"
    return value


def composition_grid(t_min, params, *, t_alias):
    """Grid for kernel rows: momentum reach sized by the shortest leg time
    t_min (weakest damping), domain length 400 kernel length scales of the
    longest, t_alias (widest kernel)."""
    n, length = _composition_size(t_min, t_alias, params)
    return make_grid(n, length)


def _composition_size(t_min, t_alias, params):
    """composition_grid's point count and length, without building the grid:
    the power of two at momentum spacing 2 pi hbar / length whose reach holds
    exp(-eps |p|^alpha) of the weakest rung at t_min down to e^-30; raises
    NumericalError past 2^23 points or when the count is not finite."""
    a_min = _char_scales(t_min, params)
    length = 400.0 * params.hbar * _char_scales(t_alias, params) ** (1.0 / params.alpha)
    eps_min = _EPS_LADDER[-1] * a_min
    p_max = (_TRUNC_LOG / eps_min) ** (1.0 / params.alpha) if eps_min > 0.0 else math.inf
    dp = 2.0 * math.pi * params.hbar / length
    count = 2.0 * p_max / dp if dp > 0.0 else math.inf
    if not count <= (1 << 23):
        raise NumericalError(f"kernel momentum grid would need {count:.3g} points")
    return 1 << max(8, int(math.ceil(count)) - 1).bit_length(), length
