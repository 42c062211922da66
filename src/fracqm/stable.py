"""Symmetric Levy alpha-stable law: density, distribution function, sampler.

The target law has characteristic function exp(-c |k|^alpha); the density is
its Fourier inversion

    f(x) = (1/2 pi) integral dk e^{i k x} e^{-c |k|^alpha}
         = (1/pi) integral_0^inf cos(k x) e^{-c k^alpha} dk

evaluated on |x| (the law is even).  alpha exactly 2 dispatches to the
Gaussian closed forms; there e^{-z^2/4} falls faster than any sum can
cancel, and the ray sum below is 4e-11 off at z = 8 and 11% off at z = 12.
Every other alpha, the Cauchy point alpha = 1 included, takes one fixed
composite Gauss-Legendre rule on the ray k = r e^{i pi / (4 alpha)}, where
e^{ikz} and e^{-k^alpha} both decay (`_ray_sums`), for a whole array of
points at once; the CDF comes from the same ray with no second quadrature.
Sampling uses the Chambers, Mallows and Stuck (1976) transform specialized
to the symmetric case, which is exact at every alpha (at alpha = 1 it is
tan V) and needs two uniforms per variate; at alpha = 2 it draws one
standard normal per variate instead.

The free thermal density matrix rho_0(x, beta | x0) (the paper's Fox H
function) is this density at x - x0 with c = beta D_alpha hbar^alpha, a Levy
path's increment over imaginary time hbar * tau is a draw of the same law at
beta = tau, and the real-time kernel's diagonal is its peak continued to
beta = i t / hbar; `thermal_law` is the one place that scale is written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, require_positive, within_floats
from .numerics import PhysicalParams, gauss_legendre

__all__ = [
    "StableParams",
    "thermal_law",
    "levy_density",
    "peak_density",
    "levy_cdf",
    "sample_stable",
    "chain_rngs",
]

# _ray_sums: Gauss-Legendre nodes per panel, panels, r = reach t^4, the ray's
# cut at modulus e^-40, and points per block (temporaries of ~0.3 MB each)
_RAY_NODES = 24
_RAY_PANELS = 8
_RAY_POWER = 4
_RAY_CUT_LOG = 40.0
_RAY_BLOCK = 128


@dataclass(frozen=True)
class StableParams:
    """Levy index alpha in (0, 2] and scale c > 0 of exp(-c |k|^alpha).

    The physics modules restrict alpha to (1, 2]; the full (0, 2] range is
    kept here so tests can check the ray sums against the Cauchy law.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ConfigurationError(f"alpha must lie in (0, 2], got {self.alpha}")
        require_positive("scale", self.scale)


def thermal_law(beta: float, params: PhysicalParams) -> StableParams:
    """Law of x - x0 under the free thermal kernel: scale beta D_alpha hbar^alpha;
    a scale that overflows or underflows the floats raises NumericalError."""
    require_positive("beta", beta)
    return StableParams(params.alpha, within_floats(
        "thermal scale", lambda: beta * params.d_alpha * params.hbar**params.alpha,
        positive=True, beta=beta, hbar=params.hbar, d_alpha=params.d_alpha))


@functools.cache
def _ray_rule(panels: int):
    """The composite rule of `_ray_sums`: s = t^4 at the nodes t in (0, 1) of
    `panels` Gauss-Legendre panels and then of panels // 2, side by side, and
    each node's weight times dr / (r dt) = 4 / t."""
    x, w = gauss_legendre(_RAY_NODES)
    t, wt = [], []
    for n in (panels, panels // 2):
        t.append(((np.arange(n)[:, None] + 0.5 * (x + 1.0)) / n).ravel())
        wt.append(np.tile(w, n) / (2.0 * n))
    t, wt = np.concatenate(t), np.concatenate(wt)
    return t**_RAY_POWER, _RAY_POWER * wt / t


def _ray_sums(what: str, z: np.ndarray, alpha: float) -> np.ndarray:
    """Unit-scale density ("density") or F - 1/2 ("CDF") at every z >= 0 of
    a 1-D array, block by block, and their limits 0 and 1/2 at z = inf;
    raises NumericalError naming the first z whose sum is not finite or
    misses max(1e-8 |value|, 1e-12).

    On k = r e^{i theta}, theta = pi / (4 alpha), e^{ikz - k^alpha} has
    modulus e^{-r z sin(theta) - r^alpha cos(alpha theta)}: both factors decay,
    and neither turns through more than 2.5 radians per e-fold (at most
    cot(pi / 8) for e^{ikz}, 1 for e^{-k^alpha}).  The density is
    (1/pi) Re int e^{i theta} e^{ikz - k^alpha} dr; F - 1/2 is
    (1/pi) [int Im e^{ikz - k^alpha} dr / r + theta], the theta being
    -Im int e^{-k^alpha} dr / r.  The sum in r = reach t^4 ends where one
    factor alone reaches e^-40, the nearer of the two reaches; its error is
    the change from the sum on half the panels.
    """
    far = np.isinf(z)
    if far.any():
        out = np.full(len(z), 0.0 if what == "density" else 0.5)
        out[~far] = _ray_sums(what, z[~far], alpha)
        return out
    theta = math.pi / (4.0 * alpha)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    cos_a, sin_a = math.cos(alpha * theta), math.sin(alpha * theta)
    # the reach where r^alpha cos(alpha theta) alone reaches the cut, as a rate
    rate_floor = _RAY_CUT_LOG / (_RAY_CUT_LOG / cos_a) ** (1.0 / alpha)
    s, weight = _ray_rule(_RAY_PANELS)
    n_full = _RAY_NODES * _RAY_PANELS
    out = np.empty(len(z))
    for start in range(0, len(z), _RAY_BLOCK):
        zb = z[start:start + _RAY_BLOCK, None]
        decay = zb * sin_t
        r = _RAY_CUT_LOG / np.maximum(decay, rate_floor) * s
        r_alpha = r**alpha
        modulus = np.exp(-decay * r - cos_a * r_alpha)
        phase = (zb * cos_t) * r - sin_a * r_alpha
        if what == "density":
            terms = modulus * np.cos(phase + theta) * r * weight
        else:
            terms = modulus * np.sin(phase) * weight
        full, half = terms[:, :n_full].sum(axis=1), terms[:, n_full:].sum(axis=1)
        if what == "CDF":
            full, half = full + theta, half + theta
        val, err = full / math.pi, np.abs(full - half) / math.pi
        bad = ~np.isfinite(val) | ((err > 1e-8 * np.abs(val)) & (err > 1e-12))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalError(
                f"stable {what} sum did not converge at z={float(zb[i, 0])} "
                f"(error {err[i]:.2e})", residual=float(err[i]),
            )
        out[start:start + _RAY_BLOCK] = val
    return out


def _unit_offsets(x, params: StableParams) -> np.ndarray:
    """x / c^(1/alpha) as a float array; a NaN x raises ConfigurationError."""
    z = np.asarray(x, dtype=float)
    if np.isnan(z).any():
        raise ConfigurationError("x must not be NaN")
    return z / params.scale ** (1.0 / params.alpha)


def levy_density(x, params: StableParams):
    """Probability density of the symmetric stable law at displacement x.

    Even in x by construction (evaluated on |x|); accepts scalars or arrays.
    It is 0 at +-inf, clamped at 0 where the far-tail ray sum is round-off,
    and a NaN x raises ConfigurationError.
    """
    s = params.scale ** (1.0 / params.alpha)
    z = np.abs(_unit_offsets(x, params))
    if params.alpha == 2.0:
        out = np.exp(-z * z / 4.0) / (2.0 * math.sqrt(math.pi))
    else:
        out = np.maximum(_ray_sums("density", z.ravel(), params.alpha), 0.0).reshape(z.shape)
    out = out / s
    return float(out) if out.ndim == 0 else out


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


def levy_cdf(x, params: StableParams):
    """Distribution function of the symmetric stable law, in [0, 1] and exact
    at +-inf; scalars or arrays.  A NaN x raises ConfigurationError."""
    z = _unit_offsets(x, params)
    if params.alpha == 2.0:
        half = 0.5 * np.vectorize(math.erf, otypes=[float])(np.abs(z) / 2.0)
    else:
        half = _ray_sums("CDF", np.abs(z).ravel(), params.alpha).reshape(z.shape)
    # the ray's F - 1/2 can round past 0 next to z = 0 and past 1/2 far out
    out = 0.5 + np.sign(z) * np.clip(half, 0.0, 0.5)
    return float(out) if out.ndim == 0 else out


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
