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

With V = 0 (q2 = 0: `Potential.free`, or `harmonic` at omega = 0) every
weight is one and only the endpoint is binned; a sum of N free increments is
one draw of the same law at the full beta, so a free chain draws each
endpoint directly, x0 + one `thermal_law(beta)` variate.  That law is
symmetric, so the row is even about x0, and each endpoint x is binned at x
and at its mirror 2 x0 - x with weight 1/2 each (`_mirror_binned`): the
expectation of its bin count given |x - x0|, a Rao-Blackwellisation over
the reflection.  It is unbiased at any x0 and on any bin grid, and it halves
the variance of the core bins of criterion 10's free row.

With V != 0 paths are sampled `_BLOCK_PATHS` at a time, so memory per worker
does not grow as paths x slices.  Paths come in families of four that share
one set of increments (antithetic variates; Hammersley & Morton,
Proc. Camb. Phil. Soc. 52, 449 (1956)).  A reflection
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
about x0 exactly mirror-symmetric, so half its bins repeat the other half.
The V = 0 mirror does that on purpose, and the CLI judges a free row on its
bins at or right of x0 alone.  For V != 0 it waits for an unbiased harmonic
oracle in the benchmark: at x0 = 0 it would pair the harmonic core bins that
the benchmark holds to a grid row with a small bias, and each pair would
count that bias twice in the benchmark's RMS z check, which would then fail
an estimated 2e-4 of its passes.

Under V = q2 x^2 (`Potential.harmonic`, which carries q2) no partner path is
written out: on each segment a member is sign * x + shift, so its action
follows from three moments of the drawn path, its weighted sum of squares
and its weighted sums over segments B and C (`_quadratic_family`).  Any other
V writes each block's families out and evaluates V on them
(`_materialised_family`).

The work is split by what needs a chain's generator.  Worker threads only
draw: `_chain_histogram` returns one chain's endpoints (V = 0), its drawn
paths' moments (V = q2 x^2) or its family members' endpoints and actions.
The calling thread takes the chains in index order, `_GROUP_CHAINS` at a
time, and forms the mirrors, the family actions, the weights
exp(-(beta/N) action) and the histogram (`_group_sums`), its bins found by
arithmetic on the evenly spaced edges (`_slots`).  That tail is many small
numpy calls that hold the interpreter lock; run in the workers, it
serialised them.  At most two groups of chains are queued ahead of the one
being binned (`_in_order`), so finished draws do not wait in memory.

Chains are independent: chain i uses SeedSequence(master_seed).spawn child i,
and the reduction over chains is done in chain-index order, so results are
bit-reproducible at any parallelism degree.  Chains run on every available
core by default; FRACQM_THREADS caps the worker count.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, within_floats
from .numerics import GridSpec, PhysicalParams, _cell_edges
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
# paths sampled together; fixed, so a chain's random stream never depends on
# the worker count
_BLOCK_PATHS = 256
# chains weighted and binned together in the calling thread; fixed and small,
# so only a few chains' rows are held at once
_GROUP_CHAINS = 4


@dataclass
class McEstimate:
    """A PIMC density-matrix row per bin; std_error is across chain means.

    `covered` is the one usable-bin rule: two or more chains hit the bin, its
    effective sample size is 16 or more and not every chain reads alike, so
    rare-event bins and bins with no error bar are flagged out.
    `effective_counts` is (sum w)^2 / sum w^2 per bin over every binned path,
    so every member of a path family counts; with V = 0 a sample's w in a bin
    is 1/2 per point of the endpoint and its mirror that lands there, so it
    counts samples.
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


def _slots(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, x, side="right") for evenly spaced edges.  The
    arithmetic guess is off by at most one next to an edge, and one comparison
    each way settles it, as on np.histogram's equal-bin path; a binary search
    over random x is several times slower."""
    n = len(edges)
    guess = np.floor((x - edges[0]) * ((n - 1) / (edges[-1] - edges[0])))
    np.clip(guess, -1.0, n - 2.0, out=guess)
    slot = guess.astype(np.intp) + 1  # in [0, n - 1]; the last step may add one
    bounds = np.concatenate([[-np.inf], edges])  # bounds[i] = edges[i - 1]
    slot -= x < bounds[slot]
    slot += x >= bounds[slot + 1]
    return slot


def _row_slots(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`_slots` of each row of `x`, flattened, each row's slots offset past the
    last row's so that one bincount spans every row.  Slot i of a row is cell
    [edges[i-1], edges[i]) of the evenly spaced `edges`; slot 0 holds the mass
    below edges[0], the last slot the mass at or above edges[-1]."""
    slot = _slots(x, edges)
    slot += (len(edges) + 1) * np.arange(len(x))[:, None]
    return slot.ravel()


def _binned(endpoints: np.ndarray, weights: np.ndarray, edges: np.ndarray):
    """Sums of w and of w^2 in `_row_slots`, one row per row of `endpoints`."""
    shape = len(endpoints), len(edges) + 1
    size = math.prod(shape)
    slot, weights = _row_slots(endpoints, edges), weights.ravel()
    return (np.bincount(slot, weights, minlength=size).reshape(shape),
            np.bincount(slot, weights * weights, minlength=size).reshape(shape))


def _mirror_binned(endpoints: np.ndarray, x0: float, edges: np.ndarray):
    """`_binned`'s sums for V = 0 endpoints x, each counted at x and at its
    mirror 2 x0 - x with weight 1/2.  A sample whose two points share a slot
    is one entry of weight 1 there, so its w^2 is 1, not 1/4 + 1/4, and
    (sum w)^2 / sum w^2 counts samples.  The mirrors overwrite `endpoints`."""
    shape = len(endpoints), len(edges) + 1
    size = math.prod(shape)
    slot = _row_slots(endpoints, edges)
    np.subtract(2.0 * x0, endpoints, out=endpoints)
    mirror = _row_slots(endpoints, edges)
    hits = np.bincount(slot, minlength=size) + np.bincount(mirror, minlength=size)
    shared = np.bincount(slot[slot == mirror], minlength=size)
    return (0.5 * hits).reshape(shape), (0.25 * hits + 0.5 * shared).reshape(shape)


def _family_layout(n_slices: int, n_samples: int):
    """Reflection pivots, and per path block its path count m and drawn path count."""
    # the middle slice, then the quarter slice once it lies strictly between
    # x0 and the middle
    pivots = (n_slices // 2, n_slices // 4) if n_slices >= 4 else (n_slices // 2,)
    sizes = [min(_BLOCK_PATHS, n_samples - start) for start in range(0, n_samples, _BLOCK_PATHS)]
    drawn = [-(-m // 2 ** len(pivots)) for m in sizes]
    return pivots, sizes, drawn


def _materialised_family(positions, drawn, x0, pivots, potential, v0):
    """Endpoints and trapezoid actions of one block's m family rows, each
    member written out in full in the (m, n_slices) array `positions`, whose
    first `drawn` rows hold the drawn paths, and V evaluated on it."""
    m, rows = len(positions), drawn
    for k in pivots:
        # rows [rows, rows + c) follow rows [0, c) to slice k, then reflect
        # about the position there; the last families of a block whose size
        # is not a multiple of 2 ** len(pivots) are cut short
        c = min(rows, m - rows)
        source, partner = positions[:c], positions[rows:rows + c]
        pivot = source[:, k - 1:k] if k else x0
        partner[:, :k] = source[:, :k]
        np.subtract(2.0 * pivot, source[:, k:], out=partner[:, k:])
        rows += c
    v_vals = potential.func(positions)
    action = v0 + np.sum(v_vals[:, :-1], axis=1) + 0.5 * v_vals[:, -1]
    if np.isnan(action).any():
        raise ConfigurationError("potential is not finite on the sampled paths")
    return positions[:, -1], action


def _moment_weights(n_slices: int, pivots) -> np.ndarray:
    """(5, n_slices) slice weights whose product with a drawn path gives its x
    at the last, middle and quarter slices, S1_B and 2 S1_C (`_quadratic_family`);
    a row that does not apply (a middle slice at x0, no quarter level) is zero."""
    mid, quarter = pivots[0], pivots[-1]
    weights = np.zeros((5, n_slices))
    weights[0, -1] = 1.0
    if mid:
        weights[1, mid - 1] = 1.0
    if len(pivots) == 2:
        weights[2, quarter - 1] = 1.0
        weights[3, quarter:mid] = 1.0
    weights[4, mid:] = 2.0
    weights[4, -1] = 1.0
    return weights


def _quadratic_family(moments, n_samples, x0, n_slices, q2, v0):
    """Endpoints and trapezoid actions, (chains, n_samples) each, of the family
    rows of consecutive chains under V = q2 x^2, from the (6, chains, drawn)
    moments of their drawn paths: x at the last, middle and quarter slices,
    S1_B, 2 S1_C and S2 less the last slice's term.

    With slice weights w_j (1, and 1/2 at the last slice), a member equals
    sign x + shift on each increment segment, so its action is
    v0 + q2 (S2 + sum over segments of [2 sign shift S1_seg + shift^2 W_seg]):
    S2 = sum w_j x_j^2, S1_seg = sum over the segment of w_j x_j, W_seg = sum
    of its w_j.  With a = x at the quarter slice and b at the middle one
    (x0 for a middle slice of 0), segment C (after the middle) is
    (x, 2b - x, 2a - x, x + 2a - 2b) across the family, and segment B
    (quarter to middle) is x for the first two members and 2a - x for the
    last two.  Endpoints are reflected as in `_materialised_family`, so each
    lands in the same bin, and each block's last families are cut short the
    same way.
    """
    pivots, sizes, drawn = _family_layout(n_slices, n_samples)
    levels = len(pivots)
    mid, quarter = pivots[0], pivots[-1]
    end, b, a, s1_b, s1_c2, s2 = moments
    # member k of a block's drawn row r is binned when k d + r < m
    keep = np.concatenate([np.arange(0, 2 ** levels * d, d)[:, None] + np.arange(d) < m
                           for m, d in zip(sizes, drawn)], axis=1)
    s2 += 0.5 * end * end
    b2, w_c = 2.0 * (b if mid else x0), n_slices - mid - 0.5
    # chain-major, then member-major rows; quads holds each member's
    # correction to S2
    ends, quads = np.empty((2, len(end), 2 ** levels, end.shape[1]))
    ends[:, 0] = end
    np.subtract(b2, end, out=ends[:, 1])
    quads[:, 0] = 0.0
    quads[:, 1] = b2 * (b2 * w_c - s1_c2)
    if levels == 2:
        a2 = 2.0 * a
        np.subtract(a2, end, out=ends[:, 2])
        np.subtract(a2, ends[:, 1], out=ends[:, 3])
        shift = a2 - b2  # member 4's on segment C
        g_b = a2 * (a2 * (mid - quarter) - 2.0 * s1_b)
        quads[:, 2] = g_b + a2 * (a2 * w_c - s1_c2)
        quads[:, 3] = g_b + shift * (shift * w_c + s1_c2)
    quads += s2[:, None]
    return ends[:, keep], v0 + q2 * quads[:, keep]


def _chain_histogram(
    rng: np.random.Generator,
    potential: Potential,
    x0: float,
    beta: float,
    params: PhysicalParams,
    n_slices: int,
    n_samples: int,
) -> np.ndarray:
    """One chain's draws, reduced only as far as a worker must: with V = 0
    its n_samples endpoints; under V = q2 x^2 the (6, drawn paths) moments
    `_quadratic_family` reads, one matmul and one vecdot per block; otherwise
    the (2, n_samples) endpoints and trapezoid actions of every family member.
    `_group_sums` weights and bins them in the calling thread.
    """
    if potential.kind == "free":
        return x0 + sample_stable(thermal_law(beta, params), rng, n_samples)
    pivots, sizes, drawn = _family_layout(n_slices, n_samples)
    if potential.q2 is not None:
        slice_weights = _moment_weights(n_slices, pivots)
        moments = np.empty((6, sum(drawn)))
        start = 0
        for d in drawn:
            x = sample_free_paths(params, beta, n_slices, x0, rng, d)
            np.matmul(slice_weights, x.T, out=moments[:5, start:start + d])
            np.vecdot(x[:, :-1], x[:, :-1], out=moments[5, start:start + d])
            start += d
        return moments
    v0 = 0.5 * float(potential.func(np.array(x0)))
    # one buffer per chain, each draw copied in and freed before V is
    # evaluated: fresh rows per block would fault their pages in anew
    buffer = np.empty((sizes[0], n_slices))
    out = np.empty((2, n_samples))
    start = 0
    for m, d in zip(sizes, drawn):
        buffer[:d] = sample_free_paths(params, beta, n_slices, x0, rng, d)
        out[:, start:start + m] = _materialised_family(buffer[:m], d, x0, pivots, potential, v0)
        start += m
    return out


def _group_sums(draws, potential, x0, beta, n_slices, n_samples, edges):
    """Raw (sum w, sum w^2) in `_row_slots`, under- and overflow included,
    one row per chain, of consecutive chains' `_chain_histogram` draws; with
    V = 0 each endpoint and its mirror weigh 1/2, and each row sums to
    n_samples."""
    if potential.kind == "free":
        return _mirror_binned(np.stack(draws), x0, edges)
    if potential.q2 is None:
        endpoints, action = np.stack(draws, axis=1)
    else:
        v0 = 0.5 * float(potential.func(np.array(x0)))
        endpoints, action = _quadratic_family(np.stack(draws, axis=1), n_samples, x0, n_slices,
                                              potential.q2, v0)
    with np.errstate(over="ignore"):
        weights = np.exp(-(beta / n_slices) * action)
    finite = np.isfinite(weights)
    if not finite.all():
        chain = int(np.argmin(finite.all(axis=1)))  # the first chain that overflowed
        raise NumericalError(
            "potential appears unbounded below on the sampled support: "
            f"{int(np.sum(~finite[chain]))} of {n_samples} path weights overflowed "
            f"(least action {float(np.min(action[chain])):.3e})"
        )
    return _binned(endpoints, weights, edges)


def _in_order(pool: ThreadPoolExecutor, fn, n: int):
    """fn(0), ..., fn(n - 1) from the pool, in order.  At most two groups of
    chains are submitted past the one being read: with all submitted at once,
    workers ran up to 20 free chains ahead of the calling thread, whose draws
    waited in memory."""
    pending = collections.deque()
    for i in range(n):
        pending.append(pool.submit(fn, i))
        if len(pending) > 2 * _GROUP_CHAINS:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


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
            f"bin grid must cover the free-path spread (need half-length >= {spread:.3g}) "
            f"at beta={beta}, hbar={params.hbar}, d_alpha={params.d_alpha}"
        )
    edges = _cell_edges(bin_grid)
    rngs = chain_rngs(master_seed, n_chains)

    def run(i: int):
        return _chain_histogram(rngs[i], potential, x0, beta, params, n_slices, n_samples_per_chain)

    with ThreadPoolExecutor(max_workers=min(_max_workers(), n_chains)) as pool:
        draws = _in_order(pool, run, n_chains)
        groups = [
            _group_sums(list(itertools.islice(draws, _GROUP_CHAINS)), potential, x0, beta,
                        n_slices, n_samples_per_chain, edges)
            for _ in range(0, n_chains, _GROUP_CHAINS)
        ]

    sums, sq_sums = (np.concatenate(part) for part in zip(*groups))
    rows = sums[:, 1:-1] / (n_samples_per_chain * (edges[1] - edges[0]))
    overflow = sums[:, [0, -1]] / n_samples_per_chain
    w_sum, w_sq_sum = sums[:, 1:-1].sum(axis=0), sq_sums[:, 1:-1].sum(axis=0)
    mean = rows.mean(axis=0)
    std_error = rows.std(axis=0, ddof=1) / math.sqrt(n_chains)
    # a bin is statistically usable once several chains hit it and the
    # effective sample size of its weights, (sum w)^2 / sum w^2, is large
    # enough for the chain spread to estimate the error; with V = 0 this is
    # the count of samples with a point in the bin (less in x0's bin, where
    # a sample can put both), while skewed importance weights (rare
    # low-action excursions dominating a far bin) collapse it toward one
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
    A rung whose moment or error is zero or not finite raises NumericalError.
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
        keys = {"sigma": sigma, "mu": mu, "sigma0": slice_ladder[0], "hbar": params.hbar,
                "d_alpha": params.d_alpha}
        law = thermal_law(within_floats("rung's sigma / hbar", lambda: sigma / params.hbar,
                                        positive=True, **keys), params)
        with np.errstate(over="ignore", invalid="ignore"):
            chain_means = np.array(
                [np.mean(np.abs(sample_stable(law, rng, per_chain)) ** mu) for rng in rngs]
            )
            m, se = chain_means.mean(), chain_means.std(ddof=1) / math.sqrt(_SCALING_CHAINS)
        for what, value in (("rung's moment E|dx|^mu", m), ("rung's moment error", se)):
            within_floats(what, lambda: value, positive=True, **keys)
        log_s.append(math.log(sigma))
        y.append(math.log(m))
        y_err.append(se / m)
    (slope, _), cov = np.polyfit(log_s, y, 1, w=1.0 / np.array(y_err), cov="unscaled")
    return float(slope), math.sqrt(cov[0, 0])
