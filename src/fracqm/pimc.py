"""Imaginary-time Levy path-integral Monte Carlo.

Paths are sampled forward from x0 under the free Levy measure: with N time
slices of imaginary duration sigma = hbar * beta / N, each increment is an
independent symmetric stable(alpha) variate with characteristic scale
hbar^(alpha-1) * D_alpha * sigma (the alpha=2 case reduces to the Wiener
measure with increment variance hbar * sigma / m).  The external potential
enters as the per-path importance weight exp{-(beta/N) sum_j V(x_j)}
(right-endpoint Riemann rule; midpoint available as an option), and the
density-matrix row rho(x, beta | x0) is the weighted endpoint histogram.

Chains are independent: chain i uses SeedSequence(master_seed).spawn child i,
and the reduction over chains is done in chain-index order, so results are
bit-reproducible at any parallelism degree (cap workers with FRACQM_THREADS).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .numerics import GridSpec, PhysicalParams
from .spectral import Potential
from .stable import StableParams, chain_rngs, sample_stable

__all__ = [
    "PathConfig",
    "McEstimate",
    "sample_free_path",
    "estimate_density_matrix",
    "fractal_scaling_exponent",
    "wander_scale",
]


@dataclass(frozen=True)
class PathConfig:
    """N imaginary-time slices over total duration hbar*beta, starting at x0."""

    n_slices: int
    beta: float
    start: float
    params: PhysicalParams

    def __post_init__(self):
        if self.n_slices < 1:
            raise ConfigurationError(f"n_slices must be >= 1, got {self.n_slices}")
        if not (self.beta > 0):
            raise ConfigurationError(f"beta must be positive, got {self.beta}")

    @property
    def slice_time(self) -> float:
        """sigma = hbar * beta / N (seconds of imaginary time)."""
        return self.params.hbar * self.beta / self.n_slices


@dataclass
class McEstimate:
    """Monte Carlo estimate; std_error is across chain means.

    `covered` marks bins with enough raw hits for the chain-based error to
    be meaningful; rare-event bins (a handful of hits across all chains)
    carry deceptively small chain-spread errors and are flagged out.
    """

    mean: np.ndarray | float
    std_error: np.ndarray | float
    n_chains: int
    n_samples_per_chain: int
    master_seed: int
    covered: np.ndarray | None = None
    effective_counts: np.ndarray | None = None
    overflow_low: float = 0.0
    overflow_high: float = 0.0


def wander_scale(beta: float, params: PhysicalParams) -> float:
    """Typical free-path excursion hbar * (beta * D_alpha)^(1/alpha)."""
    return params.hbar * (beta * params.d_alpha) ** (1.0 / params.alpha)


def _increment_scale(params: PhysicalParams, sigma: float) -> float:
    """Stable scale of one increment over slice time sigma: hbar^(alpha-1) D sigma."""
    return params.hbar ** (params.alpha - 1.0) * params.d_alpha * sigma


def sample_free_path(config: PathConfig, rng: np.random.Generator) -> np.ndarray:
    """Positions (N + 1,) of one free Levy path of N increments from config.start."""
    incs = sample_stable(
        StableParams(config.params.alpha, _increment_scale(config.params, config.slice_time)),
        rng,
        size=config.n_slices,
    )
    return config.start + np.concatenate(([0.0], np.cumsum(incs)))


def _max_workers() -> int:
    env = os.environ.get("FRACQM_THREADS", "")
    if not env.strip():
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigurationError(
            f"FRACQM_THREADS must be an integer, got {env!r}"
        ) from None


def _chain_histogram(
    rng: np.random.Generator,
    potential: Potential,
    x0: float,
    beta: float,
    params: PhysicalParams,
    n_slices: int,
    n_samples: int,
    edges: np.ndarray,
    slice_rule: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    incs = sample_stable(
        StableParams(params.alpha, _increment_scale(params, params.hbar * beta / n_slices)),
        rng,
        size=(n_samples, n_slices),
    )
    positions = x0 + np.cumsum(incs, axis=1)
    if potential.kind == "free":
        weights = np.ones(n_samples)
    else:
        if slice_rule == "endpoint":
            v_nodes = positions
        elif slice_rule == "midpoint":
            left = np.empty_like(positions)
            left[:, 0] = x0
            left[:, 1:] = positions[:, :-1]
            v_nodes = 0.5 * (left + positions)
        else:
            raise ConfigurationError(f"slice_rule must be 'endpoint' or 'midpoint', got {slice_rule!r}")
        v_vals = potential.func(v_nodes)
        with np.errstate(over="ignore"):
            weights = np.exp(-(beta / n_slices) * np.sum(v_vals, axis=1))
        if not np.all(np.isfinite(weights)):
            bad = int(np.sum(~np.isfinite(weights)))
            raise ContractError(
                "potential appears unbounded below on the sampled support: "
                f"{bad} of {n_samples} path weights overflowed "
                f"(min sampled V = {float(np.min(v_vals)):.3e})"
            )
    endpoints = positions[:, -1]
    hist, _ = np.histogram(endpoints, bins=edges, weights=weights)
    w_sq, _ = np.histogram(endpoints, bins=edges, weights=weights * weights)
    low = float(np.sum(weights[endpoints < edges[0]]))
    high = float(np.sum(weights[endpoints >= edges[-1]]))
    width = edges[1] - edges[0]
    return hist / (n_samples * width), hist, w_sq, low / n_samples, high / n_samples


def estimate_density_matrix(
    potential: Potential,
    x0: float,
    beta: float,
    params: PhysicalParams,
    n_slices: int,
    n_chains: int,
    n_samples_per_chain: int,
    bin_grid: GridSpec,
    master_seed: int,
    *,
    slice_rule: str = "endpoint",
    min_effective: float = 16.0,
) -> McEstimate:
    """Monte Carlo estimate of the density-matrix row rho(., beta | x0).

    Endpoint binning on bin_grid cells; mass landing outside the grid is
    accumulated in the overflow fields, never silently dropped.  Bins that
    fewer than two chains ever hit are marked uncovered (their std_error is
    meaningless), not zero-filled silently.
    """
    if bin_grid.length / 2.0 < 2.0 * wander_scale(beta, params):
        raise ConfigurationError(
            "bin grid must cover the free-path spread "
            f"(need half-length >= {2*wander_scale(beta, params):.3g})"
        )
    edges = np.concatenate(
        [bin_grid.positions - bin_grid.spacing / 2.0,
         [bin_grid.positions[-1] + bin_grid.spacing / 2.0]]
    )
    rngs = chain_rngs(master_seed, n_chains)

    def run(i: int):
        return _chain_histogram(
            rngs[i], potential, x0, beta, params,
            n_slices, n_samples_per_chain, edges, slice_rule,
        )

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(n_chains)))
    else:
        results = [run(i) for i in range(n_chains)]

    rows = np.stack([r[0] for r in results])
    w_sum = np.stack([r[1] for r in results]).sum(axis=0)
    w_sq_sum = np.stack([r[2] for r in results]).sum(axis=0)
    mean = rows.mean(axis=0)
    std_error = rows.std(axis=0, ddof=1) / math.sqrt(n_chains)
    # a bin is statistically usable once several chains hit it and the
    # effective sample size of its weights, (sum w)^2 / sum w^2, is large
    # enough for the chain spread to estimate the error; with V = 0 this is
    # the raw hit count, while skewed importance weights (rare low-action
    # excursions dominating a far bin) collapse it toward one
    with np.errstate(invalid="ignore", divide="ignore"):
        ess = np.where(w_sq_sum > 0.0, w_sum * w_sum / w_sq_sum, 0.0)
    covered = ((rows > 0).sum(axis=0) >= 2) & (ess >= min_effective)
    return McEstimate(
        mean=mean,
        std_error=std_error,
        n_chains=n_chains,
        n_samples_per_chain=n_samples_per_chain,
        master_seed=master_seed,
        covered=covered,
        effective_counts=ess,
        overflow_low=float(np.mean([r[3] for r in results])),
        overflow_high=float(np.mean([r[4] for r in results])),
    )


def fractal_scaling_exponent(
    params: PhysicalParams,
    mu: float,
    slice_ladder: list[float],
    n_samples: int,
    master_seed: int,
    *,
    n_chains: int = 16,
) -> McEstimate:
    """Slope of log E|dx|^mu against log sigma over a ladder of slice times.

    The free-measure increments scale as sigma^(1/alpha), so the fitted
    slope estimates mu / alpha.  Requires mu < alpha (higher moments of the
    stable law diverge).  The fit is weighted least squares with per-rung
    errors taken across chains.
    """
    if not (0.0 < mu < params.alpha):
        raise ContractError(
            f"need 0 < mu < alpha for finite moments, got mu={mu}, alpha={params.alpha}"
        )
    if len(slice_ladder) < 2:
        raise ConfigurationError("slice ladder needs at least two rungs")
    per_chain = max(1, n_samples // n_chains)
    rngs = chain_rngs(master_seed, n_chains)
    log_s, y, y_err = [], [], []
    for sigma in slice_ladder:
        scale = _increment_scale(params, sigma)
        chain_means = np.array(
            [
                np.mean(
                    np.abs(sample_stable(StableParams(params.alpha, scale), rng, per_chain))
                    ** mu
                )
                for rng in rngs
            ]
        )
        m = chain_means.mean()
        se = chain_means.std(ddof=1) / math.sqrt(n_chains)
        log_s.append(math.log(sigma))
        y.append(math.log(m))
        y_err.append(se / m)
    x = np.array(log_s)
    y = np.array(y)
    w = 1.0 / np.array(y_err) ** 2
    xbar = np.sum(w * x) / np.sum(w)
    ybar = np.sum(w * y) / np.sum(w)
    denom = np.sum(w * (x - xbar) ** 2)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / denom)
    stderr = float(1.0 / math.sqrt(denom))
    return McEstimate(
        mean=slope,
        std_error=stderr,
        n_chains=n_chains,
        n_samples_per_chain=per_chain * len(slice_ladder),
        master_seed=master_seed,
    )
