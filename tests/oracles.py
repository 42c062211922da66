"""Closed-form oracles, and the kernel-row grid sizer, shared by several test modules."""

import math

import mpmath
import numpy as np
from scipy import integrate

from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import apply_symbol, grid_momenta, make_grid
from fracqm.propagator import _EPS_LADDER, _char_scales
from fracqm.spectral import apply_riesz
from fracqm.statmech import bloch_density_matrix
from fracqm.wavepacket import _cusp_moment

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
    """|(phi, R chi) - (R phi, chi)| for the Riesz operator R; zero in exact arithmetic."""
    lhs = inner_product(phi, apply_riesz(chi, params))
    rhs = np.conj(inner_product(chi, apply_riesz(phi, params)))
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


def thermal_row_bin_averages(potential, beta, params, bin_grid, x0, domain=8):
    """Cell means of the grid thermal kernel row rho(., beta | x0) on bin_grid's cells.

    The row is `bloch_density_matrix` on a grid `domain` bin-grid lengths
    long, with at least 1024 nodes per bin-grid length, so the power tails'
    periodic images stay small at alpha < 2.  Averaging over a cell of width
    w multiplies the row's spectrum by sin(p w / 2 hbar) / (p w / 2 hbar);
    the bin grid is the fine grid's middle length, and every r-th node from
    the first bin's centre is a bin centre.
    """
    n_per = max(1024, bin_grid.n_points)
    fine = make_grid(domain * n_per, domain * bin_grid.length)
    row = bloch_density_matrix(potential, beta, params, fine, x0)
    box = np.sinc(grid_momenta(fine, params) * bin_grid.spacing / (2.0 * math.pi * params.hbar))
    first = (domain - 1) * n_per // 2
    return apply_symbol(row, box).real[first:first + n_per:n_per // bin_grid.n_points]


def position_deviation(psi, mu, center):
    """mu-root of the grid moment <|x - center|^mu> of the density |psi|^2.

    The moment is self-normalized and uses the spread factor's cusp rule, so
    it is a direct check on that route when center is the closed-form drift
    drift_velocity(packet, params) * t, the origin of its reduction.
    """
    rho = np.abs(psi.values) ** 2
    return _cusp_moment(psi.grid.positions - center, rho, psi.grid.spacing, mu) ** (1.0 / mu)


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
