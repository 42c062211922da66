"""Symmetric Levy alpha-stable law: density, distribution function, sampler.

The target law has characteristic function exp(-c |k|^alpha); the density is
its Fourier inversion

    f(x) = (1/2 pi) integral dk e^{i k x} e^{-c |k|^alpha}
         = (1/pi) integral_0^inf cos(k x) e^{-c k^alpha} dk

evaluated on |x| (the law is even).  alpha exactly 2 dispatches to the
Gaussian closed form; every other alpha, the Cauchy point alpha = 1
included, goes through the same quadratures.  Sampling uses the Chambers,
Mallows and Stuck (1976) transform specialized to the symmetric case, which
is exact at every alpha (at alpha = 1 it is tan V) and needs two uniforms
per variate; at alpha = 2 it draws one standard normal per variate instead.

The free thermal density matrix rho_0(x, beta | x0) (the paper's Fox H
function) is this density at x - x0 with c = beta D_alpha hbar^alpha, and a
Levy path's increment over imaginary time hbar * tau is a draw of the same
law at beta = tau; `thermal_law` is the one place that scale is written.

scipy.integrate is imported by `_quad` on the first density or CDF
quadrature, never at import time, so the sampler loads numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .numerics import PhysicalParams

__all__ = [
    "StableParams",
    "thermal_law",
    "levy_density",
    "peak_density",
    "levy_cdf",
    "sample_stable",
    "chain_rngs",
]


@dataclass(frozen=True)
class StableParams:
    """Levy index alpha in (0, 2] and scale c > 0 of exp(-c |k|^alpha).

    The physics modules restrict alpha to (1, 2]; the full (0, 2] range is
    kept here so tests can check the quadratures against the Cauchy law.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ConfigurationError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (self.scale > 0.0):
            raise ConfigurationError(f"scale must be positive, got {self.scale}")


def thermal_law(beta: float, params: PhysicalParams) -> StableParams:
    """Law of x - x0 under the free thermal kernel: scale beta D_alpha hbar^alpha."""
    if not (beta > 0):
        raise ConfigurationError(f"beta must be positive, got {beta}")
    return StableParams(params.alpha, beta * params.d_alpha * params.hbar**params.alpha)


def _quad(func, lower: float, upper: float, **weight) -> tuple[float, float]:
    """QUADPACK (value, error) at the stable law's tolerances, warnings off:
    every caller tests the error with `_check_converged`.  scipy.integrate is
    imported here, on the first quadrature, so sampling never loads it."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(
            func, lower, upper, epsabs=1e-13, epsrel=1e-12, limit=2000, **weight
        )


def _check_converged(what: str, z: float, val: float, err: float) -> None:
    if not math.isfinite(val) or (err > 1e-8 * abs(val) and err > 1e-12):
        raise NumericalError(
            f"stable {what} quadrature did not converge at z={z} (error {err:.2e})",
            residual=err,
        )


def _std_density(z: float, alpha: float) -> float:
    """Unit-scale density at z >= 0."""
    if alpha == 2.0:
        return math.exp(-z * z / 4.0) / (2.0 * math.sqrt(math.pi))
    # truncate where the damping reaches e^-45; the finite-interval
    # oscillatory rule is more robust than the infinite-interval one
    k_max = 45.0 ** (1.0 / alpha)
    val, err = _quad(lambda k: math.exp(-(k ** alpha)), 0.0, k_max, weight="cos", wvar=z)
    _check_converged("density", z, val, err)
    return val / math.pi


def levy_density(x, params: StableParams):
    """Probability density of the symmetric stable law at displacement x.

    Even in x by construction (evaluated on |x|); accepts scalars or arrays.
    """
    s = params.scale ** (1.0 / params.alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_std_density(abs(z), params.alpha) for z in xs / s]) / s
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def peak_density(params: StableParams) -> float:
    """Density at x = 0: (1/pi) integral_0^inf e^{-c k^alpha} dk
    = Gamma(1 + 1/alpha) / (pi c^(1/alpha)).

    At `thermal_law` scale this is the free thermal kernel's diagonal.  Mind
    the constant: 2 Gamma(1 + 1/alpha) = (2/alpha) Gamma(1/alpha), and
    dropping the 2/alpha (invisible at alpha = 2) would break the trace
    identity.
    """
    return math.gamma(1.0 + 1.0 / params.alpha) / (
        math.pi * params.scale ** (1.0 / params.alpha)
    )


def _std_cdf(z: float, alpha: float) -> float:
    """Unit-scale distribution function at z (any sign)."""
    if alpha == 2.0:
        return 0.5 * (1.0 + math.erf(z / 2.0))
    if z == 0.0:
        return 0.5
    if z < 0.0:
        return 1.0 - _std_cdf(-z, alpha)
    # F(z) = 1/2 + (1/pi) int_0^inf e^{-k^alpha} sin(k z) / k dk,
    # split at k=1 so the oscillatory tail can use the sine-weighted rule
    head, head_err = _quad(lambda k: math.exp(-(k ** alpha)) * math.sin(k * z) / k, 0.0, 1.0)
    k_max = 45.0 ** (1.0 / alpha)
    tail, tail_err = _quad(lambda k: math.exp(-(k ** alpha)) / k, 1.0, k_max, weight="sin", wvar=z)
    _check_converged("CDF", z, head + tail, head_err + tail_err)
    return 0.5 + (head + tail) / math.pi


def levy_cdf(x, params: StableParams):
    """Distribution function of the symmetric stable law."""
    s = params.scale ** (1.0 / params.alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_std_cdf(z, params.alpha) for z in xs / s])
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def sample_stable(params: StableParams, rng: np.random.Generator, size=None):
    """Draw symmetric stable variates with characteristic exp(-c |k|^alpha).

    Chambers-Mallows-Stuck: with V uniform on (-pi/2, pi/2) and W unit
    exponential,

        X = sin(alpha V) / cos(V)^(1/alpha)
            * (cos((1-alpha) V) / W)^((1-alpha)/alpha)

    is standard (c=1); the scale-c variate is c^(1/alpha) * X.  At alpha
    exactly 2 the law is the Gaussian of variance 2c (the transform reduces
    to 2 sin(V) sqrt(W)), drawn as sqrt(2c) times one standard normal batch.
    The draw order is fixed per branch (one normal batch at alpha = 2, else a
    V batch, then a W batch), so a given generator state yields the same
    sequence at any call site.
    """
    alpha = params.alpha
    if alpha == 2.0:
        x = rng.standard_normal(size)
        x *= math.sqrt(2.0 * params.scale)  # in place: no second temporary
        return x
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    x = (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )
    return params.scale ** (1.0 / alpha) * x


def chain_rngs(master_seed: int, n_chains: int) -> list[np.random.Generator]:
    """Per-chain generators derived from one master seed.

    Splitting rule: numpy SeedSequence(master_seed).spawn(n_chains), chain i
    taking child i.  Reproducible at any parallelism degree.
    """
    children = np.random.SeedSequence(master_seed).spawn(n_chains)
    return [np.random.default_rng(child) for child in children]
