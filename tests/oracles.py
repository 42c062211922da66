"""Closed-form oracles shared by several test modules."""

import math

import numpy as np


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
