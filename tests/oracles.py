"""Closed-form oracles shared by several test modules."""

import math

import numpy as np

from fracqm.errors import GridMismatchError
from fracqm.spectral import apply_riesz
from fracqm.wavepacket import _cusp_weighted_sum


def inner_product(a, b):
    """(a, b) = sum conj(a_j) b_j dx for two ComplexFields on the same grid."""
    if a.grid is not b.grid and (
        a.grid.n_points != b.grid.n_points
        or a.grid.length != b.grid.length
        or a.grid.hbar != b.grid.hbar
    ):
        raise GridMismatchError("inner product requires fields on the same grid")
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


def position_deviation(psi, mu, center):
    """mu-root of the grid moment <|x - center|^mu> of the density |psi|^2.

    The moment is self-normalized and uses the spread factor's cusp rule, so
    it is a direct check on that route when center is the closed-form drift
    drift_velocity(packet, params) * t, the origin of its reduction.
    """
    rho = np.abs(psi.values) ** 2
    du = psi.grid.spacing
    moment = _cusp_weighted_sum(psi.grid.positions - center, rho, du, mu) / (
        float(np.sum(rho)) * du
    )
    return moment ** (1.0 / mu)
