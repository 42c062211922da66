import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fracqm.errors import ConfigurationError, NumericalError
from fracqm.numerics import PhysicalParams, _cell_edges, make_grid
from fracqm.pimc import (
    _chain_histogram,
    _group_sums,
    _max_workers,
    _slots,
    estimate_density_matrix,
    fractal_scaling_exponent,
    sample_free_paths,
    wander_scale,
)
from fracqm.spectral import Potential
from fracqm.statmech import bin_averaged_row, bloch_density_matrix, bloch_trace_ladder
from fracqm.stable import StableParams, chain_rngs, sample_stable, thermal_law
from oracles import fraction_within_3se, mehler_bin_averages

P15 = PhysicalParams(1.0, 1.0, 1.5)
P2 = PhysicalParams.gaussian(mass=1.0)
# V = 0 but not kind "free", so chains take the sampled-path branch
ZERO = Potential(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
HARMONIC = Potential.harmonic(1.0, 1.0)
# the same V without its coefficient, so chains write every family member
# out in full and evaluate V on it
HARMONIC_CUSTOM = Potential(HARMONIC.func)
QUARTIC = Potential(lambda x: 0.25 * np.asarray(x, dtype=float) ** 4)
# cell edges exactly symmetric about 0
SYMMETRIC_EDGES = np.concatenate([-0.5 * np.arange(16, 0, -1), [0.0], 0.5 * np.arange(1, 17)])


def chain_sums(rng, potential, x0, beta, params, n_slices, n_samples, edges):
    """One chain's raw (sum w, sum w^2) in the pass's slots, under- and
    overflow included: its draws, weighted and binned as a pass bins them."""
    draws = _chain_histogram(rng, potential, x0, beta, params, n_slices, n_samples)
    w_sum, w_sq = _group_sums([draws], potential, x0, beta, n_slices, n_samples, edges)
    return w_sum[0], w_sq[0]


def test_path_starts_at_origin_and_cumsums():
    paths = sample_free_paths(P15, 1.0, 32, 0.7, np.random.default_rng(0), 3)
    # same stream drawn directly: hbar = D = 1, so the increment scale is beta / N
    incs = sample_stable(StableParams(1.5, 1.0 / 32), np.random.default_rng(0), size=(3, 32))
    assert paths.shape == (3, 32)
    assert np.array_equal(paths, 0.7 + np.cumsum(incs, axis=1))


def test_wiener_reduction_increment_distribution():
    # alpha=2, D=1/2m: increments are Normal with variance hbar^2 beta / (N m)
    paths = sample_free_paths(P2, 1.0, 64, 0.0, np.random.default_rng(12), 800)
    incs = np.diff(paths, axis=1, prepend=0.0).ravel()
    std = math.sqrt(1.0 / 64)
    res = stats.kstest(incs, lambda x: stats.norm.cdf(x, scale=std))
    assert res.pvalue > 0.01


def test_increment_median_scales_with_slice_time():
    # doubling the slice time multiplies |increment| quantiles by 2^(1/alpha)
    rng1, rng2 = chain_rngs(31, 2)
    a = np.abs(sample_free_paths(P15, 1.0, 1, 0.0, rng1, 20000)[:, 0])
    b = np.abs(sample_free_paths(P15, 2.0, 1, 0.0, rng2, 20000)[:, 0])
    med_a, med_b = np.median(a), np.median(b)
    se = 1.6 * med_a / math.sqrt(len(a))  # rough median standard error
    assert med_b == pytest.approx(2.0 ** (1.0 / 1.5) * med_a, abs=3.0 * 2.0 * se)


@pytest.mark.parametrize("params,seed", [(P15, 8101), (P2, 8102)])
def test_sliced_endpoint_matches_direct_draw(params, seed):
    # a sum of free slice increments is one draw of the same law at the full
    # beta, the identity behind a free chain's single endpoint draw
    rng_paths, rng_direct = chain_rngs(seed, 2)
    sliced = sample_free_paths(params, 1.0, 16, 0.4, rng_paths, 20000)[:, -1]
    direct = 0.4 + sample_stable(thermal_law(1.0, params), rng_direct, 20000)
    assert stats.ks_2samp(sliced, direct).pvalue > 1e-3


def test_paths_bit_identical_for_fixed_master_seed():
    a = sample_free_paths(P15, 0.5, 16, 0.0, chain_rngs(123, 1)[0], 4)
    # second draw with the same master seed reproduces the stream exactly
    b = sample_free_paths(P15, 0.5, 16, 0.0, chain_rngs(123, 1)[0], 4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "beta,n_slices,name",
    [(-1.0, 8, "beta"), (0.0, 8, "beta"), (1.0, 0, "n_slices"), (1.0, 8, "n_chains"),
     (1.0, 8, "n_samples_per_chain")],
)
def test_bad_input_rejected_naming_argument(beta, n_slices, name):
    grid = make_grid(32, 24.0)
    n_chains = 1 if name == "n_chains" else 2
    n_samples = 0 if name == "n_samples_per_chain" else 10
    with pytest.raises(ConfigurationError, match=f"^{name} must"):
        estimate_density_matrix(Potential.free(), 0.0, beta, P15, n_slices, n_chains,
                                n_samples, grid, 1)


def test_free_density_matrix_row_alpha15():
    grid = make_grid(64, 30.0)
    est = estimate_density_matrix(
        Potential.free(), 0.0, 1.0, P15, 32, 32, 4000, grid, 991
    )
    oracle = bin_averaged_row(Potential.free(), 1.0, P15, grid, 0.0)
    frac = fraction_within_3se(est.mean, oracle, est.std_error, est.covered)
    assert frac >= 0.95
    # endpoint mass is conserved: histogram integral + overflow = 1
    total = float(np.sum(est.mean) * grid.spacing) + est.overflow_low + est.overflow_high
    assert total == pytest.approx(1.0, abs=1e-12)


def test_free_density_matrix_row_alpha2_gaussian():
    grid = make_grid(64, 24.0)
    est = estimate_density_matrix(
        Potential.free(), 0.3, 1.0, P2, 32, 32, 4000, grid, 17
    )
    oracle = bin_averaged_row(Potential.free(), 1.0, P2, grid, 0.3)
    frac = fraction_within_3se(est.mean, oracle, est.std_error, est.covered)
    assert frac >= 0.95


def test_harmonic_row_matches_thermal_kernel():
    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    est = estimate_density_matrix(
        pot, 0.0, 1.0, P2, 128, 32, 4000, grid, 55
    )
    oracle = mehler_bin_averages(grid.positions, grid.spacing, 1.0)
    frac = fraction_within_3se(est.mean, oracle, est.std_error, est.covered)
    assert frac >= 0.95


def test_trapezoid_rule_harmonic_16_slices():
    # the symmetric slice weight is O(1/N^2): at 16 slices the harmonic row
    # already sits on Mehler's kernel (the right-endpoint rule read 0.42 here)
    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    est = estimate_density_matrix(pot, 0.0, 1.0, P2, 16, 64, 10_000, grid, 20240810)
    oracle = mehler_bin_averages(grid.positions, grid.spacing, 1.0)
    frac = fraction_within_3se(est.mean, oracle, est.std_error, est.covered)
    assert frac >= 0.95


@pytest.mark.parametrize("potential,seed", [(HARMONIC, 1801), (QUARTIC, 1802)],
                         ids=["harmonic", "quartic"])
def test_row_with_potential_matches_thermal_kernel_alpha15(potential, seed):
    # the Levy path integral with a potential at alpha < 2: the harmonic row
    # takes the moments branch, the quartic V = x^4 / 4 writes its families
    # out; the oracle is the grid thermal kernel's cell means
    params = PhysicalParams(1.0, 0.5, 1.5)
    grid = make_grid(64, 20.0)
    est = estimate_density_matrix(potential, 0.0, 1.0, params, 64, 64, 1500, grid, seed)
    oracle = bin_averaged_row(potential, 1.0, params, grid, 0.0)
    frac = fraction_within_3se(est.mean, oracle, est.std_error, est.covered)
    assert est.covered.sum() >= 16
    assert frac >= 0.95


def test_weights_in_unit_interval_for_positive_potential():
    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    est = estimate_density_matrix(pot, 0.0, 1.0, P15, 32, 8, 2000, grid, 7)
    # all bin contents are nonnegative and total weighted mass is below one
    assert np.all(est.mean >= 0.0)
    total = float(np.sum(est.mean) * grid.spacing) + est.overflow_low + est.overflow_high
    assert 0.0 < total <= 1.0 + 1e-12


def test_std_error_shrinks_with_chain_count():
    grid = make_grid(32, 24.0)
    a = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 16, 16, 2000, grid, 5)
    b = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 16, 32, 2000, grid, 5)
    cov = a.covered & b.covered
    ratio = np.median(a.std_error[cov] / b.std_error[cov])
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)


def test_slice_number_convergence():
    grid = make_grid(32, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    a = estimate_density_matrix(pot, 0.0, 1.0, P2, 64, 24, 4000, grid, 101)
    b = estimate_density_matrix(pot, 0.0, 1.0, P2, 128, 24, 4000, grid, 202)
    frac = fraction_within_3se(a.mean, b.mean, np.hypot(a.std_error, b.std_error),
                               a.covered & b.covered)
    assert frac >= 0.95


def test_unbounded_below_potential_rejected():
    # the path sampler and both grid solvers report the same failure the same
    # way: a sinkhole as a failed computation, a NaN potential as bad input
    grid = make_grid(32, 20.0)
    sinkhole = Potential(lambda x: -np.asarray(x, dtype=float) ** 4)
    with pytest.raises(NumericalError):
        estimate_density_matrix(sinkhole, 0.0, 5.0, P15, 16, 4, 4000, grid, 3)
    with pytest.raises(NumericalError, match="unbounded below"):  # the quadratic branch
        estimate_density_matrix(Potential.harmonic(-1.0, 1.0), 0.0, 5.0, P15, 16, 4, 4000, grid, 3)
    with pytest.raises(NumericalError):
        bloch_density_matrix(sinkhole, 5.0, P15, grid, 0.0)
    with pytest.raises(NumericalError):
        bloch_trace_ladder(sinkhole, 5.0, 0, P15, grid)
    holey = Potential(lambda x: np.where(np.abs(x) > 3.0, np.nan, 0.0))
    with pytest.raises(ConfigurationError, match="^potential is not finite"):
        estimate_density_matrix(holey, 0.0, 5.0, P15, 16, 4, 4000, grid, 3)
    with pytest.raises(ConfigurationError, match="^potential is not finite"):
        bloch_density_matrix(holey, 5.0, P15, grid, 0.0)
    with pytest.raises(ConfigurationError, match="^potential is not finite"):
        bloch_trace_ladder(holey, 5.0, 0, P15, grid)


def test_bin_without_chain_spread_is_not_covered(monkeypatch):
    # 16 chains each draw one free endpoint at bin 16's centre.  From x0 at
    # that centre its mirror shares the bin: one entry of weight 1 per chain.
    # From x0 half a bin lower the mirror lands one bin below: an entry of
    # weight 1/2 in each bin.  Either way each bin's effective sample size
    # counts 16 samples, but every chain reads alike, so no bin has an error
    # bar; the chain spread is round-off (5.7e-17 here), not zero
    grid = make_grid(32, 24.0)

    def one_hit(rng, potential, x0, beta, params, n_slices, n_samples):
        return grid.positions[16:17]

    monkeypatch.setattr("fracqm.pimc._chain_histogram", one_hit)
    for x0, bins in ((grid.positions[16], [16]), (grid.positions[16] - grid.spacing / 2, [15, 16])):
        est = estimate_density_matrix(Potential.free(), x0, 1.0, P15, 4, 16, 1, grid, 1)
        assert np.flatnonzero(est.mean).tolist() == bins
        assert np.all(est.effective_counts[bins] == 16.0)
        assert np.all(est.std_error[bins] < 1e-15)
        assert not est.covered.any()


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("potential", [Potential.free(), Potential.harmonic(1.0, 1.0)])
def test_non_finite_start_rejected_naming_x0(potential, x0):
    # unchecked, V = 0 puts all mass in overflow with no error, and the
    # harmonic weights overflow and blame the potential
    grid = make_grid(32, 24.0)
    with pytest.raises(ConfigurationError, match="^x0 must be finite"):
        estimate_density_matrix(potential, x0, 1.0, P15, 8, 2, 10, grid, 1)


def test_bin_grid_must_cover_wander_scale():
    grid = make_grid(8, 1.0)
    assert wander_scale(1.0, P15) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 8, 2, 10, grid, 1)


@pytest.mark.parametrize(
    "alpha,mu,target",
    [(2.0, 1.0, 0.5), (1.5, 1.0, 2.0 / 3.0), (1.2, 0.6, 0.5)],
)
def test_fractal_scaling_exponent(alpha, mu, target):
    params = PhysicalParams.gaussian(0.5) if alpha == 2.0 else PhysicalParams(1.0, 1.0, alpha)
    ladder = [0.02 * 2.0**k for k in range(6)]
    slope, std_error = fractal_scaling_exponent(params, mu, ladder, 100_000, 424242)
    assert abs(slope - target) <= 3.0 * std_error


def test_fractal_scaling_rejects_divergent_moment():
    with pytest.raises(ConfigurationError):
        fractal_scaling_exponent(P15, 1.5, [0.1, 0.2], 100, 1)
    with pytest.raises(ConfigurationError):
        fractal_scaling_exponent(P15, 1.7, [0.1, 0.2], 100, 1)


@pytest.mark.parametrize("ladder", [[0.1], [-0.02, -0.04]])
def test_fractal_scaling_rejects_bad_ladder(ladder):
    with pytest.raises(ConfigurationError, match="^slice ladder"):
        fractal_scaling_exponent(P15, 1.0, ladder, 100, 1)


def test_non_integer_thread_count_rejected(monkeypatch):
    grid = make_grid(32, 24.0)
    monkeypatch.setenv("FRACQM_THREADS", "two")
    with pytest.raises(ConfigurationError) as exc:
        estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 4, 2, 10, grid, 1)
    assert "FRACQM_THREADS" in str(exc.value) and "'two'" in str(exc.value)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_thread_count_rejected(monkeypatch, value):
    grid = make_grid(32, 24.0)
    monkeypatch.setenv("FRACQM_THREADS", value)
    with pytest.raises(ConfigurationError) as exc:
        estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 4, 2, 10, grid, 1)
    assert "FRACQM_THREADS" in str(exc.value) and repr(value) in str(exc.value)


def test_worker_default_is_available_cores(monkeypatch):
    monkeypatch.delenv("FRACQM_THREADS", raising=False)
    assert _max_workers() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("FRACQM_THREADS", "3")
    assert _max_workers() == 3


def test_deterministic_rows_independent_of_thread_count(monkeypatch):
    # unset, one and four workers; 600 or 601 paths per chain span three path
    # blocks in the harmonic case, and at 601 the last block of 89 paths
    # fills the second reflection level only in part
    grid = make_grid(32, 24.0)
    for pot, n_paths in itertools.product((Potential.free(), Potential.harmonic(1.0, 1.0)),
                                          (600, 601)):
        rows = []
        for threads in (None, "1", "4"):
            if threads is None:
                monkeypatch.delenv("FRACQM_THREADS", raising=False)
            else:
                monkeypatch.setenv("FRACQM_THREADS", threads)
            rows.append(estimate_density_matrix(pot, 0.0, 1.0, P15, 16, 8, n_paths, grid, 77))
        for est in rows[1:]:
            assert np.array_equal(est.mean, rows[0].mean)
            assert np.array_equal(est.std_error, rows[0].std_error)


@pytest.mark.parametrize("n_slices", [1, 4, 5])
def test_partner_reflects_about_middle_slice(n_slices):
    # a block of two paths is one pair at any slice count: the drawn path x
    # and its first-level partner y, equal to x up to slice k = n_slices // 2
    # and 2 x_k - x after it (x_0 = x0); each lands alone in a fine cell with
    # its trapezoid weight under V(x) = x / 4
    x0 = 0.3
    tilt = Potential(lambda x: 0.25 * np.asarray(x, dtype=float))
    rng, fresh = chain_rngs(60, 1)[0], chain_rngs(60, 1)[0]
    x = np.concatenate([[x0], sample_free_paths(P15, 1.0, n_slices, x0, fresh, 1)[0]])
    k = n_slices // 2
    y = np.concatenate([x[:k + 1], 2.0 * x[k] - x[k + 1:]])
    edges = np.linspace(-40.0, 40.0, 800_001)
    w_sum, _ = chain_sums(rng, tilt, x0, 1.0, P15, n_slices, 2, edges)
    hist = w_sum[1:-1]
    assert w_sum[0] == w_sum[-1] == 0.0 and np.count_nonzero(hist) == 2
    for path in (x, y):
        v = 0.25 * path
        weight = math.exp(-(v[1:-1].sum() + 0.5 * (v[0] + v[-1])) / n_slices)
        assert hist[np.searchsorted(edges, path[-1]) - 1] == pytest.approx(weight, rel=1e-12)


def test_even_potential_row_not_mirror_symmetric():
    # whole-path mirrors about x0 = 0 would make this row exactly symmetric,
    # each bin repeating its mirror bin; at 2 and 3 slices a second pivot at
    # n_slices // 4 = 0 would mirror whole paths
    for n_slices in (2, 3, 16):
        hist = chain_sums(
            chain_rngs(61, 1)[0], ZERO, 0.0, 1.0, P15, n_slices, 600, SYMMETRIC_EDGES)[0][1:-1]
        assert hist.sum() > 0 and not np.array_equal(hist, hist[::-1])


@pytest.mark.parametrize("n_paths", [2, 3, 5, 7, 257, 258])
def test_unpaired_path_counts_once(n_paths):
    # blocks whose size is not a multiple of four end on cut-short families;
    # every binned path counts once, under- and overflow slots included
    w_sum, _ = chain_sums(
        chain_rngs(62, 1)[0], ZERO, 0.3, 1.0, P15, 16, n_paths, SYMMETRIC_EDGES)
    assert abs(w_sum.sum() / n_paths - 1.0) <= 1e-15


@pytest.mark.parametrize("potential", [Potential.free(), ZERO], ids=["free", "sampled"])
def test_chain_returns_raw_slot_sums(potential):
    # V = 0: the slots, the under- and overflow included, hold every path
    # once.  A sampled path puts weight one in one slot, so both sums are hit
    # counts.  A free endpoint x puts 1/2 in its slot and 1/2 in the slot of
    # 2 x0 - x, and a sample whose two points share a slot is one entry of
    # weight 1 there; only x0's own slot (slot 5) can hold both
    edges = np.linspace(-2.0, 2.0, 9)
    w_sum, w_sq = chain_sums(chain_rngs(65, 1)[0], potential, 0.3, 1.0, P15, 8, 601, edges)
    assert w_sum.shape == w_sq.shape == (len(edges) + 1,)
    assert w_sum.sum() == 601 and w_sum[0] > 0 and w_sum[-1] > 0
    if potential.kind != "free":
        assert np.array_equal(w_sum, w_sq) and np.array_equal(w_sum, np.round(w_sum))
        return
    x = 0.3 + sample_stable(thermal_law(1.0, P15), chain_rngs(65, 1)[0], 601)
    want_sum, want_sq = np.zeros(len(edges) + 1), np.zeros(len(edges) + 1)
    for point in x:
        entry = 0.5 * np.bincount(np.searchsorted(edges, [point, 0.6 - point], side="right"),
                                  minlength=len(edges) + 1)
        want_sum += entry
        want_sq += entry * entry
    assert np.array_equal(w_sum, want_sum) and np.array_equal(w_sq, want_sq)
    assert np.flatnonzero(w_sq != 0.5 * w_sum).tolist() == [5]


@pytest.mark.parametrize("edges", [
    _cell_edges(make_grid(64, 30.0)),
    SYMMETRIC_EDGES,
    np.linspace(-40.0, 40.0, 800_001),
], ids=["bin-grid", "symmetric", "fine"])
def test_slots_match_binary_search(edges):
    # the arithmetic guess is exact on every edge, one ulp to either side of
    # it, far past the ends and at +-inf; its random points cover every cell
    on_edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    span = edges[-1] - edges[0]
    x = np.concatenate([on_edges, [-np.inf, -1e300, edges[0] - span, edges[-1] + span, 1e300, np.inf],
                        np.random.default_rng(5).uniform(edges[0] - 1.0, edges[-1] + 1.0, 5000)])
    assert np.array_equal(_slots(x, edges), np.searchsorted(edges, x, side="right"))


def test_trap_at_zero_omega_is_the_free_particle():
    # kind is read from q2, so omega = 0 takes the single-draw chains and the
    # exact levy_cdf oracle of Potential.free(); with a "harmonic" tag it drew
    # whole paths, and its oracle was a periodic grid row
    flat, free, bins = Potential.harmonic(1.0, 0.0), Potential.free(), make_grid(64, 30.0)
    assert flat.kind == free.kind == "free"
    a, b = (estimate_density_matrix(pot, 0.3, 1.0, P15, 16, 4, 500, bins, 71)
            for pot in (flat, free))
    for name in ("mean", "std_error", "covered", "effective_counts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.overflow_low, a.overflow_high) == (b.overflow_low, b.overflow_high)
    assert np.array_equal(bin_averaged_row(flat, 1.0, P15, bins, 0.3),
                          bin_averaged_row(free, 1.0, P15, bins, 0.3))


def _free_row_within_3se(x0, seed):
    """fraction_within_3se of the shipped free config's row started at x0."""
    grid = make_grid(64, 30.0)
    est = estimate_density_matrix(Potential.free(), x0, 1.0, P15, 32, 16, 2000, grid, seed)
    oracle = bin_averaged_row(Potential.free(), 1.0, P15, grid, x0)
    return fraction_within_3se(est.mean, oracle, est.std_error, est.covered)


def test_free_row_off_origin_matches_oracle():
    # x0 = 1.3 is not on the shipped grid's mirror axis: each endpoint's
    # mirror 2 x0 - x lands in a bin that is no bin's mirror about 0
    assert _free_row_within_3se(1.3, 4242) >= 0.95


@pytest.mark.parametrize("mutant", ["draws-about-0", "mirrors-about-0"])
def test_free_row_off_origin_fails_x0_mutants(monkeypatch, mutant):
    # the test above must see x0 lost on either side of the estimate: the
    # draws made about 0, or the mirror taken about 0
    import fracqm.pimc as pimc

    if mutant == "draws-about-0":
        draw = pimc._chain_histogram
        monkeypatch.setattr(pimc, "_chain_histogram",
                            lambda rng, pot, x0, *rest: draw(rng, pot, 0.0, *rest))
    else:
        bin_sums = pimc._group_sums
        monkeypatch.setattr(pimc, "_group_sums",
                            lambda draws, pot, x0, *rest: bin_sums(draws, pot, 0.0, *rest))
    assert _free_row_within_3se(1.3, 4242) < 0.95


def test_free_row_is_even_about_x0():
    # at x0 = 0 the shipped grid's cells are mirror images, bin k of bin
    # 64 - k, so each endpoint's mirror lands in the mirror bin and the two
    # bins carry the same sums
    grid = make_grid(64, 30.0)
    est = estimate_density_matrix(Potential.free(), 0.0, 1.0, P15, 32, 16, 2000, grid, 4243)
    for name in ("mean", "std_error", "covered", "effective_counts"):
        row = getattr(est, name)
        assert np.array_equal(row[1:], row[:0:-1]), name


@pytest.mark.parametrize("potential", [Potential.free(), HARMONIC, HARMONIC_CUSTOM],
                         ids=["free", "moments", "written-out"])
def test_pass_rows_are_each_chains_own_sums(potential):
    # six chains are a group of four and a group of two, binned together in
    # offset slots: each chain's row must be what its draws give alone
    grid = make_grid(32, 24.0)
    edges = _cell_edges(grid)
    est = estimate_density_matrix(potential, 0.3, 1.0, P15, 8, 6, 601, grid, 69)
    rows = [chain_sums(rng, potential, 0.3, 1.0, P15, 8, 601, edges)[0][1:-1] / (601 * grid.spacing)
            for rng in chain_rngs(69, 6)]
    assert np.array_equal(est.mean, np.mean(rows, axis=0))
    assert np.array_equal(est.std_error, np.std(rows, axis=0, ddof=1) / math.sqrt(6))


def test_chain_draws_a_quarter_of_the_increments():
    # 601 paths are blocks of 256, 256 and 89 paths, of which 64, 64 and 23
    # are drawn and the rest reflected
    rng, fresh = chain_rngs(63, 1)[0], chain_rngs(63, 1)[0]
    chain_sums(rng, ZERO, 0.0, 1.0, P15, 16, 601, SYMMETRIC_EDGES)
    for drawn in (64, 64, 23):
        sample_stable(thermal_law(1.0 / 16, P15), fresh, size=(drawn, 16))
    assert rng.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("n_slices", [4, 5, 8])
def test_family_of_four_sign_patterns(n_slices):
    # one family: a drawn path split at slices N // 4 and N // 2 into
    # increment segments A | B | C gives (A, B, C), (A, B, -C), (A, -B, -C)
    # and (A, -B, C); each lands alone in a fine cell with its trapezoid
    # weight under V(x) = x / 4
    x0 = 0.3
    tilt = Potential(lambda x: 0.25 * np.asarray(x, dtype=float))
    rng, fresh = chain_rngs(64, 1)[0], chain_rngs(64, 1)[0]
    x = np.concatenate([[x0], sample_free_paths(P15, 1.0, n_slices, x0, fresh, 1)[0]])
    steps = np.diff(x)
    segment = np.searchsorted([n_slices // 4, n_slices // 2], np.arange(n_slices),
                              side="right")
    edges = np.linspace(-40.0, 40.0, 800_001)
    w_sum, _ = chain_sums(rng, tilt, x0, 1.0, P15, n_slices, 4, edges)
    hist = w_sum[1:-1]
    assert w_sum[0] == w_sum[-1] == 0.0 and np.count_nonzero(hist) == 4
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, -1), (1, -1, 1)):
        path = np.concatenate([[x0], x0 + np.cumsum(steps * np.take(signs, segment))])
        v = 0.25 * path
        weight = math.exp(-(v[1:-1].sum() + 0.5 * (v[0] + v[-1])) / n_slices)
        assert hist[np.searchsorted(edges, path[-1]) - 1] == pytest.approx(weight, rel=1e-12)


@pytest.mark.parametrize("n_slices", [1, 2, 3, 4, 5, 8, 256])
@pytest.mark.parametrize("params", [P2, P15], ids=["alpha2", "alpha1.5"])
def test_quadratic_family_matches_written_out_family(params, n_slices):
    # a harmonic chain sums its family's actions from moments of the drawn
    # path (below four slices with the quarter level empty); the same V
    # without its coefficient writes every member out: the same draws, the
    # same bins, sums equal to round-off, cut-short families included
    edges = np.linspace(-4.0, 4.0, 33)
    for n_paths, x0 in itertools.product((1, 7, 258, 601), (0.0, 0.3)):
        rng, ref_rng = chain_rngs(66, 1)[0], chain_rngs(66, 1)[0]
        sums = chain_sums(rng, HARMONIC, x0, 1.0, params, n_slices, n_paths, edges)
        ref = chain_sums(ref_rng, HARMONIC_CUSTOM, x0, 1.0, params, n_slices, n_paths, edges)
        for got, want in zip(sums, ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_harmonic_chain_keeps_no_family_rows():
    # one block of 256 paths at 256 slices draws 64 paths, a 128 KiB buffer;
    # writing the family out takes four such buffers, and V on them four more
    tracemalloc.start()
    try:
        _chain_histogram(chain_rngs(67, 1)[0], HARMONIC, 0.0, 1.0, P2, 256, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 64 * 256 * 8


@pytest.mark.parametrize("threads", ["1", "2"])
def test_harmonic_pass_peak_memory(monkeypatch, threads):
    # the benchmark's harmonic shape: workers hold one path block each and the
    # calling thread a few chains' family rows; weighting and binning all 64
    # chains at once peaked near 8 MiB.  A small first pass takes numpy's
    # lazy imports out of the measurement
    monkeypatch.setenv("FRACQM_THREADS", threads)
    grid = make_grid(64, 20.0)
    estimate_density_matrix(HARMONIC, 0.0, 1.0, P2, 8, 2, 8, grid, 68)
    tracemalloc.start()
    try:
        estimate_density_matrix(HARMONIC, 0.0, 1.0, P2, 256, 64, 1500, grid, 68)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _independent_path_std_error(potential, x0, params, n_slices, n_chains, n_paths,
                                grid, master_seed):
    """Chain-spread std errors of the estimator that draws every path."""
    edges = _cell_edges(grid)
    v0 = 0.5 * float(potential.func(np.array(x0)))
    rows = []
    for rng in chain_rngs(master_seed, n_chains):
        paths = sample_free_paths(params, 1.0, n_slices, x0, rng, n_paths)
        v = potential.func(paths)
        weights = np.exp(-(v0 + v[:, :-1].sum(axis=1) + 0.5 * v[:, -1]) / n_slices)
        hist, _ = np.histogram(paths[:, -1], bins=edges, weights=weights)
        rows.append(hist / (n_paths * grid.spacing))
    return np.std(rows, axis=0, ddof=1) / math.sqrt(n_chains)


@pytest.mark.parametrize("params,x0,n_slices,seed",
                         [(P2, 0.0, 32, 9101), (P15, 1.0, 64, 9102)], ids=["alpha2", "alpha1.5"])
def test_path_pairs_no_noisier_than_independent_paths(params, x0, n_slices, seed):
    grid = make_grid(64, 20.0)
    pot = Potential.harmonic(1.0, 1.0)
    oracle = bin_averaged_row(pot, 1.0, params, grid, x0)
    core = oracle >= 0.01 * oracle.max()
    paired = estimate_density_matrix(pot, x0, 1.0, params, n_slices, 64, 1500, grid, seed)
    independent = _independent_path_std_error(pot, x0, params, n_slices, 64, 1500, grid, seed)
    relvar = np.mean((paired.std_error[core] / oracle[core]) ** 2)
    relvar_independent = np.mean((independent[core] / oracle[core]) ** 2)
    assert relvar <= 1.3 * relvar_independent
