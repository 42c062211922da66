"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 6 asserts the mean-mu uncertainty product
exceeds its reference bound on the whole (alpha, tau) lattice; the product
genuinely falls below the bound at small alpha and small tau (the spread
factor is below one there), so those lattice points are reported as
findings and the criterion fails by design rather than being papered over.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy import stats

from fracqm.numerics import ComplexField, PhysicalParams, grid_momenta, make_grid
from fracqm.pimc import estimate_density_matrix, fractal_scaling_exponent
from fracqm.propagator import chapman_kolmogorov_residual, free_kernel
from fracqm.spectral import (
    EvolverConfig,
    Potential,
    energy_expectation,
    evolve,
)
from fracqm.stable import StableParams, levy_density, sample_stable
from fracqm.statmech import (
    bin_averaged_row,
    bloch_density_matrix,
    bloch_trace_ladder,
    classical_partition_function,
    free_density_matrix,
    free_partition_function,
)
from fracqm.wavepacket import (
    PacketParams,
    momentum_deviation,
    observable_means,
    packet_position_state,
    suggest_grid,
    uncertainty_report,
)
from oracles import hermiticity_residual, mehler_bin_averages

ALPHAS = (1.2, 1.5, 1.8, 2.0)


def params_for(alpha: float) -> PhysicalParams:
    if alpha == 2.0:
        return PhysicalParams.gaussian(mass=0.5)  # d_alpha = 1
    return PhysicalParams(1.0, 1.0, alpha)


def report(number: int, name: str, passed: bool, detail: str, elapsed: float):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {flag} ({detail}, {elapsed:.1f} s)")


def test_criterion_01_gaussian_kernel_reduction():
    start = time.perf_counter()
    params = PhysicalParams.gaussian(mass=1.0)
    worst = 0.0
    for dx in (0.0, 0.6, 1.2, 1.8, 2.5):
        for t in (0.2, 0.6, 1.0, 1.5, 2.0):
            est = free_kernel(dx, t, params)
            ref = (1.0 / (2.0 * math.pi * 1j * t)) ** 0.5 * cmath.exp(
                1j * dx * dx / (2.0 * t)
            )
            worst = max(worst, abs(est.value - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "gaussian-kernel-reduction", ok, f"worst rel dev {worst:.2e}", elapsed)
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_dispersion_relation():
    start = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        params = params_for(alpha)
        grid = make_grid(256, 32.0)
        p0 = grid_momenta(grid, params)[13]
        psi = ComplexField(
            np.exp(1j * p0 * grid.positions) / math.sqrt(grid.length), grid
        )
        e = energy_expectation(psi, Potential.free(), params)
        ref = params.d_alpha * abs(p0) ** alpha
        worst = max(worst, abs(e - ref) / ref)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "dispersion-relation", ok, f"worst rel dev {worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_composition_rule():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (1.5, 2.0):
        res = chapman_kolmogorov_residual(2.0, 1.0, params_for(alpha))
        worst = max(worst, res)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(3, "composition-rule", ok, f"worst residual {worst:.2e}", elapsed)
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_04_hermiticity_and_norm_conservation():
    start = time.perf_counter()
    worst_residual = 0.0
    grid = make_grid(256, 32.0)
    rng = np.random.default_rng(20240809)
    for alpha in ALPHAS:
        params = params_for(alpha)
        for _ in range(100):
            a = rng.normal(size=256) + 1j * rng.normal(size=256)
            b = rng.normal(size=256) + 1j * rng.normal(size=256)
            fa = ComplexField(a / np.linalg.norm(a) / math.sqrt(grid.spacing), grid)
            fb = ComplexField(b / np.linalg.norm(b) / math.sqrt(grid.spacing), grid)
            worst_residual = max(
                worst_residual, hermiticity_residual(fa, fb, params)
            )
    worst_norm = 0.0
    pot = Potential.harmonic(1.0, 1.0)
    for alpha in ALPHAS:
        params = params_for(alpha)
        psi = np.exp(-((grid.positions - 0.5) ** 2)).astype(complex)
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.spacing))
        out = evolve(ComplexField(psi, grid), pot, params, EvolverConfig(0.002, 1000))
        worst_norm = max(worst_norm, abs(out.norm() - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_residual < 1e-12 and worst_norm < 1e-10 and elapsed < 30.0
    report(
        4, "hermiticity-and-unitarity", ok,
        f"residual {worst_residual:.2e}, norm drift {worst_norm:.2e}", elapsed,
    )
    assert worst_residual < 1e-12
    assert worst_norm < 1e-10
    assert elapsed < 30.0


def test_criterion_05_wave_packet_observables():
    start = time.perf_counter()
    worst_p = worst_slope = worst_dp = 0.0
    times = [0.0, 0.15, 0.3, 0.45, 0.6]
    for alpha in ALPHAS:
        params = params_for(alpha)
        packet = PacketParams(l=1.0, p0=5.0, nu=alpha)
        grid = suggest_grid(packet, params, times[-1])
        means_x = []
        for t in times:
            psi, _ = packet_position_state(t, packet, params, grid)
            mx, mp = observable_means(psi, packet, params)
            means_x.append(mx)
            worst_p = max(worst_p, abs(mp - packet.p0))
        slope = np.polyfit(times, means_x, 1)[0]
        ref_slope = alpha * params.d_alpha * packet.p0 ** (alpha - 1.0)
        worst_slope = max(worst_slope, abs(slope - ref_slope) / ref_slope)
        mu = 0.6 * alpha
        dp = momentum_deviation(mu, packet, params)
        dp_ref = (params.hbar / packet.l) * (
            math.gamma((mu + 1.0) / alpha) / math.gamma(1.0 / alpha)
        ) ** (1.0 / mu)
        worst_dp = max(worst_dp, abs(dp - dp_ref) / dp_ref)
    elapsed = time.perf_counter() - start
    ok = (
        worst_p <= 1e-8 and worst_slope <= 0.01 and worst_dp <= 1e-8
        and elapsed < 60.0
    )
    report(
        5, "wave-packet-observables", ok,
        f"<p> dev {worst_p:.2e}, slope dev {worst_slope:.2%}, "
        f"momentum-moment dev {worst_dp:.2e}", elapsed,
    )
    assert worst_p <= 1e-8
    assert worst_slope <= 0.01
    assert worst_dp <= 1e-8
    assert elapsed < 60.0


def test_criterion_06_fractional_uncertainty_lattice():
    start = time.perf_counter()
    violations = []
    margins = []
    for alpha in ALPHAS:
        params = params_for(alpha)
        packet = PacketParams(l=1.0, p0=2.0, nu=alpha)
        mu = 0.6 * alpha
        for tau in (0.0, 1.0, 5.0):
            rep = uncertainty_report(mu, tau, packet, params)
            margins.append(rep.product / rep.bound)
            if not rep.product > rep.bound:
                violations.append(
                    f"alpha=nu={alpha}, mu={mu:.2f}, tau={tau}: "
                    f"product {rep.product:.6f} <= bound {rep.bound:.6f} "
                    f"(spread factor {rep.n_factor:.4f})"
                )
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 600.0
    detail = f"min product/bound {min(margins):.4f}, {len(violations)} violation(s)"
    report(6, "fractional-uncertainty-bound", ok, detail, elapsed)
    for line in violations:
        print(f"  FINDING: {line}")
    assert elapsed < 600.0
    assert not violations, (
        "uncertainty product fell below the reference bound at: "
        + "; ".join(violations)
    )


def test_criterion_07_stable_law_suite():
    start = time.perf_counter()
    anchors = [
        (levy_density(0.0, StableParams(2.0, 1.0)), 1.0 / (2.0 * math.sqrt(math.pi))),
        (levy_density(0.0, StableParams(1.0, 1.0)), 1.0 / math.pi),
    ]
    for alpha in (1.2, 1.5, 1.8):
        anchors.append(
            (levy_density(0.0, StableParams(alpha, 1.0)),
             math.gamma(1.0 + 1.0 / alpha) / math.pi)
        )
    worst_anchor = max(abs(v - r) / r for v, r in anchors)

    from test_stable import interpolated_cdf

    worst_p = 1.0
    for alpha in ALPHAS:
        p = StableParams(alpha, 1.0)
        rng = np.random.default_rng(int(1000 * alpha) + 7)
        samples = sample_stable(p, rng, size=100_000)
        res = stats.kstest(samples, interpolated_cdf(p, -80.0, 80.0))
        worst_p = min(worst_p, res.pvalue)
    elapsed = time.perf_counter() - start
    ok = worst_anchor <= 1e-8 and worst_p > 0.01 and elapsed < 60.0
    report(
        7, "stable-law-suite", ok,
        f"anchor dev {worst_anchor:.2e}, min KS p-value {worst_p:.3f}", elapsed,
    )
    assert worst_anchor <= 1e-8
    assert worst_p > 0.01
    assert elapsed < 60.0


def test_criterion_08_fractal_scaling():
    start = time.perf_counter()
    worst_sigmas = 0.0
    for alpha, mu in ((2.0, 1.0), (1.5, 1.0), (1.2, 0.6)):
        params = params_for(alpha)
        ladder = [0.02 * 2.0**k for k in range(6)]
        slope, std_error = fractal_scaling_exponent(params, mu, ladder, 100_000, 20240809)
        worst_sigmas = max(worst_sigmas, abs(slope - mu / alpha) / std_error)
    elapsed = time.perf_counter() - start
    ok = worst_sigmas <= 3.0 and elapsed < 60.0
    report(8, "fractal-scaling", ok, f"worst |slope dev| {worst_sigmas:.2f} sigma", elapsed)
    assert worst_sigmas <= 3.0
    assert elapsed < 60.0


def test_criterion_09_statistical_mechanics():
    start = time.perf_counter()
    p2 = PhysicalParams.gaussian(mass=1.0)
    worst_dm = 0.0
    for dx in (0.0, 0.7, 1.6):
        for beta in (0.5, 1.0, 2.0):
            mine = free_density_matrix(dx, 0.0, beta, p2)
            ref = math.sqrt(1.0 / (2.0 * math.pi * beta)) * math.exp(
                -dx * dx / (2.0 * beta)
            )
            worst_dm = max(worst_dm, abs(mine - ref) / ref)

    p15 = PhysicalParams(1.0, 1.0, 1.5)
    grid = make_grid(4096, 200.0)
    row = bloch_density_matrix(Potential.free(), 1.0, p15, grid, 0.0)
    mask = np.abs(grid.positions) < 30.0
    quad = np.array(
        [free_density_matrix(x, 0.0, 1.0, p15) for x in grid.positions[mask]]
    )
    bloch_dev = float(np.max(np.abs(row[mask] - quad)))

    # partition function: diagonal quadrature route and the ideal-gas limit
    z15 = free_partition_function(1.0, 1.0, p15)
    z_dev = abs(z15 - free_density_matrix(0.0, 0.0, 1.0, p15)) / z15
    z2 = free_partition_function(1.0, 2.0, p2)
    z2_dev = abs(z2 - 2.0 * math.sqrt(1.0 / (2.0 * math.pi))) / z2

    pot = Potential.harmonic(1.0, 1.0)
    grid_h = make_grid(512, 50.0)
    ladder = bloch_trace_ladder(pot, 0.125, 4, p15, grid_h)
    ratios = [classical_partition_function(pot, b, p15) / tr for b, tr in ladder]
    gaps = [abs(r - 1.0) for r in ratios]  # ascending beta
    monotone = all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1))

    elapsed = time.perf_counter() - start
    ok = (
        worst_dm <= 1e-10 and bloch_dev <= 1e-5 and z_dev <= 1e-10
        and z2_dev <= 1e-10 and monotone and elapsed < 300.0
    )
    report(
        9, "statistical-mechanics", ok,
        f"free-dm dev {worst_dm:.2e}, bloch dev {bloch_dev:.2e}, "
        f"Z dev {z_dev:.2e}, classical ratio monotone {monotone}", elapsed,
    )
    assert worst_dm <= 1e-10
    assert bloch_dev <= 1e-5
    assert z_dev <= 1e-10
    assert z2_dev <= 1e-10
    assert monotone
    assert elapsed < 300.0


def test_criterion_10_path_integral_monte_carlo():
    start = time.perf_counter()
    p15 = PhysicalParams(1.0, 1.0, 1.5)
    bins = make_grid(64, 30.0)
    est = estimate_density_matrix(
        Potential.free(), 0.0, 1.0, p15, 64, 64, 10_000, bins, 20240809
    )
    oracle = bin_averaged_row(Potential.free(), 1.0, p15, bins, 0.0)
    cov = est.covered
    frac_free = float(
        np.mean(np.abs(est.mean[cov] - oracle[cov]) <= 3.0 * est.std_error[cov])
    )

    p2 = PhysicalParams.gaussian(mass=1.0)
    pot = Potential.harmonic(1.0, 1.0)
    bins_h = make_grid(64, 20.0)
    est_h = estimate_density_matrix(
        pot, 0.0, 1.0, p2, 256, 64, 10_000, bins_h, 20240810
    )
    oracle_h = mehler_bin_averages(bins_h.positions, bins_h.spacing, 1.0)
    cov_h = est_h.covered
    frac_h = float(
        np.mean(np.abs(est_h.mean[cov_h] - oracle_h[cov_h]) <= 3.0 * est_h.std_error[cov_h])
    )
    elapsed = time.perf_counter() - start
    ok = frac_free >= 0.95 and frac_h >= 0.95 and elapsed < 600.0
    report(
        10, "path-integral-monte-carlo", ok,
        f"free bins within 3se {frac_free:.1%}, harmonic {frac_h:.1%}", elapsed,
    )
    assert frac_free >= 0.95
    assert frac_h >= 0.95
    assert elapsed < 600.0


def test_criterion_11_cli_determinism(tmp_path):
    from fracqm.cli import main

    start = time.perf_counter()
    small = {
        "density": "n_points = 21\n",
        "kernel-check": "t_values = 1.0\ndx_values = 0.0,0.5\n",
        "evolve": "n_steps = 100\nn_points = 256\n",
        "packet": "",
        "uncertainty": "alpha = 1.8\ntau_values = 0.0,1.0\n",
        "pimc": "n_chains = 4\nn_paths = 300\n",
        "statmech": "n_points = 256\n",
        "scaling": "n_samples = 5000\n",
    }
    identical = True
    for experiment, extra in small.items():
        cfg = tmp_path / f"{experiment}.cfg"
        cfg.write_text(f"experiment = {experiment}\n{extra}")
        prefix = tmp_path / f"{experiment}_out"
        outputs = []
        for _ in range(2):
            for fmt in ("csv", "json"):
                main(
                    [experiment, "--config", str(cfg), "--seed", "11",
                     "--out", str(prefix), "--format", fmt]
                )
            files = sorted(
                path for path in tmp_path.glob(f"{experiment}_out*")
                if path.suffix in (".csv", ".json")
            )
            outputs.append([path.read_bytes() for path in files])
        if outputs[0] != outputs[1]:
            identical = False
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 60.0
    report(11, "cli-determinism", ok, "byte-identical reruns" if identical else "MISMATCH", elapsed)
    assert identical
    assert elapsed < 60.0
