"""Imaginary-time Levy path-integral Monte Carlo.

Paths are sampled forward from x0 under the free Levy measure: with N time
slices of imaginary duration hbar * beta / N, each increment is an
independent draw of the free thermal law at beta / N (`stable.thermal_law`,
stable(alpha) of scale (beta / N) D_alpha hbar^alpha; the alpha=2 case
reduces to the Wiener measure with increment variance hbar^2 beta / (N m)).
The external potential enters as the per-path importance weight
exp{-(beta/N) [V(x0)/2 + V(x_1) + ... + V(x_{N-1}) + V(x_N)/2]}, the
symmetric (trapezoid) slice rule of the primitive approximation, and the
density-matrix row rho(x, beta | x0) is the weighted endpoint histogram.

With V = 0 every weight is one and only the endpoint is binned; a sum of N
free increments is one draw of the same law at the full beta, so a free
chain draws each endpoint directly, x0 + one `thermal_law(beta)` variate.
Otherwise paths are sampled, weighted and binned `_BLOCK_PATHS` at a time,
so memory per worker does not grow as paths x slices.  Paths come in
families of four that share one set of increments (antithetic variates;
Hammersley & Morton, Proc. Camb. Phil. Soc. 52, 449 (1956)).  A reflection
at slice k copies a path up to x_k and reflects the rest about it,
x'_j = 2 x_k - x_j for j > k, which negates every later increment.  The
symmetric stable increments have the same law as their negatives, so the
reflected path is another exact free sample.  Each drawn path is reflected
at the middle slice N // 2, and then both are reflected at N // 4: split at
those slices into increment segments A | B | C, the family is (A, B, C),
(A, B, -C), (A, -B, -C) and (A, -B, C), and a block of m paths draws
ceil(m / 4) increment sets.  Below four slices N // 4 is 0, so only the
middle reflection is made (pairs, ceil(m / 2) draws).  Each chain's row is
still unbiased, and families never cross chains, so the chain means stay
independent and their spread is still a valid error bar.  Segment A is never
negated: reflecting whole paths about x0 makes the row of a potential even
about x0 exactly mirror-symmetric, so half its bins would repeat the other
half.

Chains are independent: chain i uses SeedSequence(master_seed).spawn child i,
and the reduction over chains is done in chain-index order, so results are
bit-reproducible at any parallelism degree.  Chains run on every available
core by default; FRACQM_THREADS caps the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .numerics import GridSpec, PhysicalParams
from .spectral import Potential
from .stable import chain_rngs, sample_stable, thermal_law

__all__ = [
    "McEstimate",
    "sample_free_paths",
    "estimate_density_matrix",
    "fractal_scaling_exponent",
    "wander_scale",
]

# least effective sample size (sum w)^2 / sum w^2 of a covered bin
_MIN_EFFECTIVE = 16.0
# independent chains behind each rung of fractal_scaling_exponent
_SCALING_CHAINS = 16
# paths sampled, weighted and binned together; fixed, so a chain's random
# stream never depends on the worker count
_BLOCK_PATHS = 256


@dataclass
class McEstimate:
    """A PIMC density-matrix row per bin; std_error is across chain means.

    `covered` is the one usable-bin rule: two or more chains hit the bin, its
    effective sample size is 16 or more and not every chain reads alike, so
    rare-event bins and bins with no error bar are flagged out.
    `effective_counts` is (sum w)^2 / sum w^2 per bin over every binned path,
    so every member of a path family counts.
    """

    mean: np.ndarray
    std_error: np.ndarray
    master_seed: int
    covered: np.ndarray
    effective_counts: np.ndarray
    overflow_low: float
    overflow_high: float


def wander_scale(beta: float, params: PhysicalParams) -> float:
    """Typical free-path excursion hbar * (beta * D_alpha)^(1/alpha)."""
    return thermal_law(beta, params).scale ** (1.0 / params.alpha)


def sample_free_paths(
    params: PhysicalParams,
    beta: float,
    n_slices: int,
    x0: float,
    rng: np.random.Generator,
    n_paths: int,
) -> np.ndarray:
    """Positions (n_paths, n_slices) of free Levy paths from x0 after each slice.

    The increments are one `sample_stable` draw of the thermal law at
    beta / n_slices; x0 itself is not a column.
    """
    paths = sample_stable(thermal_law(beta / n_slices, params), rng, size=(n_paths, n_slices))
    np.cumsum(paths, axis=1, out=paths)
    paths += x0
    return paths


def _max_workers() -> int:
    """FRACQM_THREADS if set, else the cores this process may run on."""
    env = os.environ.get("FRACQM_THREADS", "")
    if not env.strip():
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(
            f"FRACQM_THREADS must be a positive integer, got {env!r}"
        )
    return workers


def _binned(endpoints: np.ndarray, weights: np.ndarray | None, edges: np.ndarray):
    """Sums of w and of w^2 in slot i for cell [edges[i-1], edges[i]); slot 0
    holds the mass below edges[0], the last slot the mass at or above edges[-1]."""
    slot = np.searchsorted(edges, endpoints, side="right")
    if weights is None:
        counts = np.bincount(slot, minlength=len(edges) + 1).astype(float)
        return counts, counts
    return (np.bincount(slot, weights, minlength=len(edges) + 1),
            np.bincount(slot, weights * weights, minlength=len(edges) + 1))


def _chain_histogram(
    rng: np.random.Generator,
    potential: Potential,
    x0: float,
    beta: float,
    params: PhysicalParams,
    n_slices: int,
    n_samples: int,
    edges: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One chain's raw (sum w, sum w^2) in `_binned`'s slots, under- and
    overflow included; with V = 0 every w is one and the slots sum to n_samples."""
    if potential.kind == "free":
        endpoints = x0 + sample_stable(thermal_law(beta, params), rng, n_samples)
        w_sum, w_sq = _binned(endpoints, None, edges)
    else:
        eps = beta / n_slices
        v0 = 0.5 * float(potential.func(np.array(x0)))
        w_sum, w_sq = np.zeros(len(edges) + 1), np.zeros(len(edges) + 1)
        block = np.empty((min(_BLOCK_PATHS, n_samples), n_slices))
        # reflection pivots: the middle slice, then the quarter slice once
        # it lies strictly between x0 and the middle
        pivots = (n_slices // 2, n_slices // 4) if n_slices >= 4 else (n_slices // 2,)
        for start in range(0, n_samples, _BLOCK_PATHS):
            m = min(_BLOCK_PATHS, n_samples - start)
            rows = -(-m // 2 ** len(pivots))
            positions = block[:m]
            positions[:rows] = sample_free_paths(params, beta, n_slices, x0, rng, rows)
            for k in pivots:
                # rows [rows, rows + c) follow rows [0, c) to slice k, then
                # reflect about the position there; the last families of a
                # block whose size is not a multiple of 2 ** len(pivots) are
                # cut short
                c = min(rows, m - rows)
                source, partner = positions[:c], positions[rows:rows + c]
                pivot = source[:, k - 1:k] if k else x0
                partner[:, :k] = source[:, :k]
                np.subtract(2.0 * pivot, source[:, k:], out=partner[:, k:])
                rows += c
            v_vals = potential.func(positions)
            action = v0 + np.sum(v_vals[:, :-1], axis=1) + 0.5 * v_vals[:, -1]
            with np.errstate(over="ignore"):
                weights = np.exp(-eps * action)
            if not np.all(np.isfinite(weights)):
                if math.isnan(v0) or np.isnan(v_vals).any():
                    raise ConfigurationError("potential is not finite on the sampled paths")
                bad = int(np.sum(~np.isfinite(weights)))
                raise NumericalError(
                    "potential appears unbounded below on the sampled support: "
                    f"{bad} of {m} path weights in a block overflowed "
                    f"(min sampled V = {float(np.min(v_vals)):.3e})"
                )
            block_sum, block_sq = _binned(positions[:, -1], weights, edges)
            w_sum += block_sum
            w_sq += block_sq
    return w_sum, w_sq


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
) -> McEstimate:
    """Monte Carlo estimate of the density-matrix row rho(., beta | x0).

    Endpoint binning on bin_grid cells; mass landing outside the grid is
    accumulated in the overflow fields, never silently dropped.  Bins without
    a usable error bar are marked uncovered (`McEstimate.covered`), not
    zero-filled silently.  The error bar is the spread of the chain means, so
    n_chains must be at least 2, and x0 must be finite.
    """
    if not math.isfinite(x0):
        raise ConfigurationError(f"x0 must be finite, got {x0}")
    if n_slices < 1:
        raise ConfigurationError(f"n_slices must be >= 1, got {n_slices}")
    if n_chains < 2:
        raise ConfigurationError(f"n_chains must be >= 2, got {n_chains}")
    if n_samples_per_chain < 1:
        raise ConfigurationError(
            f"n_samples_per_chain must be >= 1, got {n_samples_per_chain}")
    spread = 2.0 * wander_scale(beta, params)
    if bin_grid.length / 2.0 < spread:
        raise ConfigurationError(
            f"bin grid must cover the free-path spread (need half-length >= {spread:.3g})"
        )
    edges = np.concatenate(
        [bin_grid.positions - bin_grid.spacing / 2.0,
         [bin_grid.positions[-1] + bin_grid.spacing / 2.0]]
    )
    rngs = chain_rngs(master_seed, n_chains)

    def run(i: int):
        return _chain_histogram(
            rngs[i], potential, x0, beta, params,
            n_slices, n_samples_per_chain, edges,
        )

    with ThreadPoolExecutor(max_workers=min(_max_workers(), n_chains)) as pool:
        results = list(pool.map(run, range(n_chains)))

    sums, sq_sums = (np.stack(chain_sums) for chain_sums in zip(*results))
    rows = sums[:, 1:-1] / (n_samples_per_chain * (edges[1] - edges[0]))
    overflow = sums[:, [0, -1]] / n_samples_per_chain
    w_sum, w_sq_sum = sums[:, 1:-1].sum(axis=0), sq_sums[:, 1:-1].sum(axis=0)
    mean = rows.mean(axis=0)
    std_error = rows.std(axis=0, ddof=1) / math.sqrt(n_chains)
    # a bin is statistically usable once several chains hit it and the
    # effective sample size of its weights, (sum w)^2 / sum w^2, is large
    # enough for the chain spread to estimate the error; with V = 0 this is
    # the raw hit count, while skewed importance weights (rare low-action
    # excursions dominating a far bin) collapse it toward one
    with np.errstate(invalid="ignore", divide="ignore"):
        ess = np.where(w_sq_sum > 0.0, w_sum * w_sum / w_sq_sum, 0.0)
    covered = ((rows > 0).sum(axis=0) >= 2) & (ess >= _MIN_EFFECTIVE) & (np.ptp(rows, axis=0) > 0)
    return McEstimate(
        mean=mean,
        std_error=std_error,
        master_seed=master_seed,
        covered=covered,
        effective_counts=ess,
        overflow_low=float(np.mean(overflow[:, 0])),
        overflow_high=float(np.mean(overflow[:, 1])),
    )


def fractal_scaling_exponent(
    params: PhysicalParams,
    mu: float,
    slice_ladder: list[float],
    n_samples: int,
    master_seed: int,
) -> tuple[float, float]:
    """(slope, std_error) of log E|dx|^mu against log sigma over slice times.

    The free-measure increments scale as sigma^(1/alpha), so the fitted
    slope estimates mu / alpha.  Requires mu < alpha (higher moments of the
    stable law diverge).  The fit is `np.polyfit` weighted by the inverse
    per-rung errors, taken across 16 chains (`_SCALING_CHAINS`); its
    std_error comes from the unscaled covariance, those errors propagated.
    """
    if not (0.0 < mu < params.alpha):
        raise ConfigurationError(
            f"need 0 < mu < alpha for finite moments, got mu={mu}, alpha={params.alpha}"
        )
    if len(slice_ladder) < 2 or not min(slice_ladder) > 0:
        raise ConfigurationError(f"slice ladder needs two or more positive rungs, got {slice_ladder}")
    per_chain = max(1, n_samples // _SCALING_CHAINS)
    rngs = chain_rngs(master_seed, _SCALING_CHAINS)
    log_s, y, y_err = [], [], []
    for sigma in slice_ladder:
        law = thermal_law(sigma / params.hbar, params)
        chain_means = np.array(
            [np.mean(np.abs(sample_stable(law, rng, per_chain)) ** mu) for rng in rngs]
        )
        m = chain_means.mean()
        se = chain_means.std(ddof=1) / math.sqrt(_SCALING_CHAINS)
        log_s.append(math.log(sigma))
        y.append(math.log(m))
        y_err.append(se / m)
    (slope, _), cov = np.polyfit(log_s, y, 1, w=1.0 / np.array(y_err), cov="unscaled")
    return float(slope), math.sqrt(cov[0, 0])
