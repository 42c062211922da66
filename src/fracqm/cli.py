"""Reproducible experiment driver.

Configs are flat ``key = value`` text files (``#`` comments allowed, no
nesting).  Every run echoes its config, emits a results table and a
comparisons table (each row carries the value, its oracle, the deviation,
an explicit tolerance and a pass flag, plus a formula anchor tag), and
writes output atomically.  A given (config, seed) pair produces
byte-identical output files.

    fracqm <experiment> --config <file> [--seed N] [--out PREFIX] [--format csv|json]

One table, ``_EXPERIMENTS``, maps each experiment to its runner and its
schema; a schema maps keys to a default and a converter that checks the
key's range.  The physical constants ``hbar`` and ``d_alpha`` come from one
shared fragment, ``_PHYSICAL``, which every experiment with dynamics
includes; ``seed``, ``out`` and ``format`` come from ``_RUN``, which all read.
At alpha = 2 `validate_config` is the CLI's one place the rule
d_alpha = 1/(2 mass) is applied.

Exit status is nonzero iff any comparison fails or a module raises.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigurationError, NumericalError, within_floats
from .numerics import ComplexField, PhysicalParams, gauss_legendre, make_grid
from .propagator import _composition_legs, _kernel_ray, chapman_kolmogorov_residual, free_kernel
from .pimc import estimate_density_matrix, fractal_scaling_exponent
from .spectral import EvolverConfig, Potential, energy_expectation, evolve
from .stable import StableParams, levy_density, peak_density, thermal_law
from .statmech import (bin_averaged_row, bloch_density_matrix, bloch_trace_ladder,
                       classical_partition_function, free_density_matrix, free_partition_function)
from .wavepacket import (
    PacketParams,
    drift_velocity,
    gamma_ratio_deviation,
    momentum_density,
    momentum_deviation,
    observable_means,
    packet_position_state,
    uncertainty_report,
)


def _ranged(cast, ok, must):
    """A schema converter: ``cast`` the text, then reject a value ``ok`` refuses
    with "must <must>"; ``ok`` is false for nan, so a float range refuses it."""
    def convert(s):
        x = cast(s)
        if not ok(x):
            raise ConfigurationError(f"must {must}")
        return x
    return convert


def _list_of(item):
    """A comma-separated list of ``item`` values, at least one."""
    return _ranged(lambda s: [item(v) for v in str(s).split(",") if v.strip()], bool,
                   "list at least one value")


_finite = _ranged(float, math.isfinite, "be finite")
_positive = _ranged(float, lambda x: 0.0 < x < math.inf, "be positive")
_alpha = _ranged(float, lambda a: 1.0 < a <= 2.0, "lie in (1, 2]")
_count = _ranged(int, lambda n: n >= 1, "be a positive integer")
_two_or_more = _ranged(int, lambda n: n >= 2, "be an integer >= 2")
_grid_points = _ranged(int, lambda n: n >= 8 and n & (n - 1) == 0, "be a power of two >= 8")
_potential_kind = _ranged(str, lambda s: s in ("free", "harmonic"), "be 'free' or 'harmonic'")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    out: str
    format: str
    parameters: dict


@dataclass
class RunReport:
    config: dict
    results: dict
    comparisons: list
    provenance: dict
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(row["passed"] for row in self.comparisons)


def parse_flat(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment; a key may appear once."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {line.strip()!r}"
            )
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigurationError(
                f"line {lineno}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        raw[key] = value.strip()
        first_line[key] = lineno
    return raw


def validate_config(raw: dict) -> ExperimentConfig:
    """Build a fully-defaulted config from `parse_flat`'s dict; report every violation."""
    raw = dict(raw)
    errors: list[str] = []

    experiment = raw.pop("experiment", None)
    if experiment is None:
        raise ConfigurationError("missing required key 'experiment'")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )

    schema = {**_RUN, **_EXPERIMENTS[experiment][1]}
    params: dict = {}
    user_keys = set(raw)
    for key, (conv, default) in schema.items():
        if key in raw:
            value = raw.pop(key)
            try:
                params[key] = conv(value)
            except (TypeError, ValueError) as exc:
                errors.append(f"key {key!r}: bad value {value!r} ({exc})")
        else:
            params[key] = default
    if raw:
        errors.append(f"unknown keys: {', '.join(sorted(raw))}")
    seed, out, fmt = (params.pop(key, None) for key in _RUN)

    # every key's own range is checked by its converter; the rules below tie keys together
    alpha = params.get("alpha")
    if params.get("nu") is None and "nu" in schema:
        params["nu"] = alpha  # documented default: nu = alpha
    if params.get("mu") is None and "mu" in schema:
        params["mu"] = 0.6 * params["nu"] if params.get("nu") else None
    nu, mu = params.get("nu"), params.get("mu")
    if nu is not None and alpha is not None and not (1.0 < nu <= alpha):
        errors.append(f"key 'nu' must lie in (1, alpha], got nu={nu}, alpha={alpha}")
    if mu is not None and nu is not None and not (0.0 < mu < nu):
        errors.append(f"key 'mu' must lie in (0, nu), got mu={mu}, nu={nu}")
    if mu is not None and nu is None and alpha is not None and not (0.0 < mu < alpha):
        # scaling has no nu: its increments' mu-th moment is finite only below alpha
        errors.append(f"key 'mu' must lie in (0, alpha), got mu={mu}, alpha={alpha}")
    if alpha == 2.0 and "d_alpha" in schema:
        # at alpha = 2, D = 1/(2 m): an unset diffusion coefficient follows the mass
        d_two, d_alpha = 0.5 / params.get("mass", 1.0), params.get("d_alpha")
        if "d_alpha" not in user_keys:
            params["d_alpha"] = d_two
        elif "mass" in params and d_alpha is not None and abs(d_alpha - d_two) > 1e-12 * d_two:
            errors.append(f"key 'd_alpha' must equal 1/(2 mass) = {d_two} at alpha = 2, "
                          f"got {d_alpha}")
    t_split, t_values = params.get("t_split"), params.get("t_values")
    if t_split is not None and t_values and not (0.0 < t_split < t_values[0]):
        errors.append(
            f"key 't_split' must lie in (0, {t_values[0]}), the first t_values entry; "
            f"got {t_split}"
        )
    if "sigma" in schema and not errors:
        # the periodic grid stands in for the line only while the state is negligible at its
        # edges: 12 sigma from x0 the amplitude e^{-d^2 / 4 sigma^2} is e^-36 = 2.3e-16 of its
        # peak, a double's resolution (the shipped 0.7 at x0 = 1 reaches 9.4 of length / 2 = 20)
        sigma, x0, length = params["sigma"], params["x0"], params["length"]
        if not abs(x0) + 12.0 * sigma <= length / 2.0:
            errors.append(f"keys 'sigma', 'x0' and 'length' must keep the initial Gaussian "
                          f"negligible at the nearer domain edge (|x0| + 12 sigma <= length / 2), "
                          f"got sigma={sigma}, x0={x0}, length={length}")
    if "dx_values" in schema and not errors:
        errors += _kernel_grid_errors(params, user_keys)  # reads every kernel-check key

    if errors:
        raise ConfigurationError("invalid config:\n  - " + "\n  - ".join(errors))
    if out is None:
        out = experiment.replace("-", "_")
    return ExperimentConfig(experiment, seed, out, fmt, params)


def _t_split(p) -> float:
    return p["t_split"] if p["t_split"] is not None else p["t_values"][0] / 2.0


def _kernel_grid_errors(p, user_keys) -> list[str]:
    """kernel-check times whose kernel rays would pass 2^23 nodes or whose
    scales leave the floats (a time short against an offset, an extreme hbar
    or d_alpha), and composition legs that `_composition_legs` refuses.  Each
    failure names the keys it reads that the config sets (its time key if
    none)."""
    physical = _physical(p)
    errors = []

    def failed(reads, budget, exc):
        keys = [k for k in reads if k in user_keys] or [reads[-1]]
        named = ("key " if len(keys) == 1 else "keys ") + ", ".join(map(repr, keys))
        errors.append(f"{named} must keep the {budget}; {exc}")

    try:
        for t in p["t_values"]:
            for dx in p["dx_values"]:
                _kernel_ray(abs(dx), t, physical)
    except NumericalError as exc:
        failed(("hbar", "d_alpha", "alpha", "dx_values", "t_values"),
               "kernel ray within 2^23 nodes", exc)
    t_total, t_split = p["t_values"][0], _t_split(p)
    if 0.0 < t_split < t_total:
        try:
            _composition_legs(t_total, t_split, physical)
        except NumericalError as exc:
            failed(("hbar", "d_alpha", "alpha", "t_values", "t_split"),
                   "composition legs resolvable", f"{exc} at t_split={t_split}")
    return errors


def _cmp(name, value, oracle, tol, kind, anchor):
    value, oracle = float(value), float(oracle)
    abs_dev = abs(value - oracle)
    rel_dev = abs_dev / abs(oracle) if oracle != 0 else math.inf
    passed = {"abs": abs_dev <= tol, "rel": rel_dev <= tol,
              "ge": value >= oracle - tol, "gt": value > oracle}[kind]
    return {
        "name": name,
        "value": value,
        "oracle": oracle,
        "abs_dev": abs_dev,
        "rel_dev": rel_dev,
        "tolerance": tol,
        "kind": kind,
        "passed": bool(passed),
        "anchor": anchor,
    }


def _table(anchor, columns, rows):
    return {"anchor": anchor, "columns": columns, "rows": rows}


def _physical(p):
    return PhysicalParams(hbar=p["hbar"], d_alpha=p["d_alpha"], alpha=p["alpha"])


def _potential(p):
    if p["potential"] == "harmonic":
        return Potential.harmonic(p["mass"], p["omega"])
    return Potential.free()


def _run_density(p, seed):
    sp = StableParams(p["alpha"], p["scale"])
    xs = np.linspace(-p["x_max"], p["x_max"], p["n_points"])
    dens = levy_density(xs, sp)
    results = {"density": _table("stable_characteristic_inversion",
                                 ["x (cm)", "density (1/cm)"],
                                 [[float(x), float(d)] for x, d in zip(xs, dens)])}
    # the mass on x > 0 from one array call: 64 Gauss-Legendre nodes on [0, X],
    # X = 4 c^(1/alpha), and 64 on the power tail mapped by x = X v^(-1/alpha),
    # v in (0, 1), where the integrand is smooth in v
    x, w = gauss_legendre(64)
    v = 0.5 * (x + 1.0)
    cut, tail = 4.0 * sp.scale ** (1.0 / sp.alpha), v ** (-1.0 / sp.alpha)
    f = levy_density(cut * np.concatenate([v, tail]), sp)
    half_mass = 0.5 * cut * float(w @ (f[:64] + tail / (sp.alpha * v) * f[64:]))
    comparisons = [
        _cmp("peak value vs gamma integral", levy_density(0.0, sp), peak_density(sp),
             1e-8, "rel", "stable_density_peak_gamma"),
        _cmp("unit normalization", 2.0 * half_mass, 1.0, 1e-8, "rel",
             "stable_density_normalization"),
        _cmp("evenness at x = +/- x_max/2",
             levy_density(p["x_max"] / 2, sp), levy_density(-p["x_max"] / 2, sp),
             0.0, "abs", "stable_density_symmetry"),
    ]
    return results, comparisons


def _run_kernel_check(p, seed):
    alpha = p["alpha"]
    params = _physical(p)
    rows, comparisons = [], []
    t0, center = p["t_values"][0], None
    for t in p["t_values"]:
        for dx in p["dx_values"]:
            est = free_kernel(dx, t, params)
            if (dx, t) == (0.0, t0):
                center = est  # the on-axis value checked below
            rows.append([dx, t, est.value.real, est.value.imag, est.error])
            if alpha == 2.0:
                m = 1.0 / (2.0 * params.d_alpha)
                phase = m * dx * dx / (2.0 * params.hbar * t)
                ref = (m / (2.0 * math.pi * 1j * params.hbar * t)) ** 0.5 * cmath.exp(1j * phase)
                # a double carries the phase to about eps * phase: four of its ulps
                rel_tol = max(1e-12, 4.0 * np.finfo(float).eps * phase)
                comparisons.append(
                    _cmp(f"gaussian closed form at dx={dx}, t={t}",
                         abs(est.value - ref), 0.0, rel_tol * abs(ref), "abs",
                         "gaussian_kernel_closed_form")
                )
    if center is None:
        center = free_kernel(0.0, t0, params)
    # the thermal diagonal at beta = i t / hbar: the peak at beta = t / hbar, rotated
    ref0 = (peak_density(thermal_law(t0 / params.hbar, params))
            * cmath.exp(-1j * math.pi / (2.0 * alpha)))
    comparisons.append(
        _cmp("on-axis value vs rotated gamma integral", abs(center.value - ref0),
             0.0, 1e-12 * abs(ref0), "abs", "kernel_on_axis_closed_form")
    )
    # the quadrature's own rel_tol of the peak; it reads at most 4e-15 of it over alpha 1.1-2
    res = chapman_kolmogorov_residual(t0, _t_split(p), params)
    comparisons.append(
        _cmp("composition-rule residual", res, 0.0, 1e-12 * abs(ref0), "abs",
             "kernel_composition_rule")
    )
    return {"kernel": _table("free_kernel_fourier_integral",
                             ["dx (cm)", "t (s)", "Re K (1/cm)", "Im K (1/cm)",
                              "error (1/cm)"], rows)}, comparisons


def _run_evolve(p, seed):
    params = _physical(p)
    grid = make_grid(p["n_points"], p["length"])
    pot = _potential(p)
    # float64 with the edges silenced: a Gaussian off the floats fails the norm check
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        field = ComplexField(np.exp(-((grid.positions - p["x0"]) ** 2)
                                    / (4.0 * np.float64(p["sigma"]) ** 2)), grid)
    field.values /= within_floats("initial Gaussian's grid norm", field.norm, positive=True,
                                  x0=p["x0"], sigma=p["sigma"], length=grid.length)
    e0 = energy_expectation(field, pot, params)
    cfg = EvolverConfig(dt=p["dt"], n_steps=p["n_steps"])
    out = evolve(field, pot, params, cfg)
    e1 = energy_expectation(out, pot, params)
    rows = [[0.0, 1.0, e0], [p["dt"] * p["n_steps"], out.norm(), e1]]
    comparisons = [
        _cmp("norm conservation", out.norm(), 1.0, 1e-10, "abs", "unitary_norm_conservation"),
        _cmp("energy drift", e1, e0, 5e-6, "rel", "strang_energy_drift"),
    ]
    return {"evolution": _table("fractional_schrodinger_split_step",
                                ["t (s)", "norm", "energy (erg)"], rows)}, comparisons


def _run_packet(p, seed):
    params = _physical(p)
    packet = PacketParams(l=p["l"], p0=p["p0"], nu=p["nu"])
    t = p["t"]
    psi, tail = packet_position_state(t, packet, params)
    grid = psi.grid
    rho = np.abs(psi.values) ** 2
    stride = max(1, grid.n_points // p["table_points"])
    results = {
        "position_density": _table(
            "packet_position_density", ["x (cm)", "rho (1/cm)"],
            [[float(x), float(r)] for x, r in zip(grid.positions[::stride], rho[::stride])]),
        "momentum_density": _table(
            "packet_momentum_density", ["p (g cm/s)", "w (s/(g cm))"],
            [[float(q), float(momentum_density(q, packet, params))]
             for q in np.linspace(p["p0"] - 6, p["p0"] + 6, p["table_points"])]),
    }
    mean_x_cf = drift_velocity(packet, params) * t
    mean_x_g, mean_p_g = observable_means(psi, packet, params)
    mean_x_exact = drift_velocity(packet, params, exact=True) * t
    # the grid mean's round-off: pairwise sums carry log2(n) eps of their absolute
    # sums, so <x> carries 2 log2(n) eps <|x|>; it reads <= 3 eps <|x|> at t = 0
    x_floor = 2.0 * math.log2(grid.n_points) * np.finfo(float).eps * float(
        np.sum(np.abs(grid.positions) * rho) / np.sum(rho))
    comparisons = [
        _cmp("position norm", psi.norm_sq(), 1.0, 1e-8, "abs", "packet_unit_norm"),
        _cmp("off-grid tail mass below guard", tail, 0.0, 1e-6, "abs",
             "packet_tail_mass_guard"),
        _cmp("grid <p> vs carrier", mean_p_g, packet.p0, 1e-8, "abs",
             "carrier_momentum_mean"),
        _cmp("grid <x> vs exact first-moment law", mean_x_g, mean_x_exact,
             max(1e-6 * abs(mean_x_exact), x_floor), "abs", "packet_drift_exact_moment"),
        # the group-velocity form is the sharp-packet limit; it deviates from
        # the exact drift at order (hbar / l p0)^2
        _cmp("grid <x> vs group-velocity drift", mean_x_g, mean_x_cf,
             max(0.05 * abs(mean_x_cf), 0.05), "abs", "group_velocity_drift"),
        _cmp("momentum mean-mu deviation vs gamma ratio",
             momentum_deviation(p["mu"], packet, params),
             gamma_ratio_deviation(p["mu"], packet, params),
             1e-8, "rel", "momentum_moment_gamma_ratio"),
    ]
    return results, comparisons


def _run_uncertainty(p, seed):
    params = _physical(p)
    packet = PacketParams(l=p["l"], p0=p["p0"], nu=p["nu"])
    rows, comparisons = [], []
    for tau in p["tau_values"]:
        rep = uncertainty_report(p["mu"], tau, packet, params)
        rows.append([tau, rep.dx_mu, rep.dp_mu, rep.product, rep.bound,
                     rep.n_factor, rep.eta0])
        comparisons.append(
            _cmp(f"product exceeds bound at tau={tau}", rep.product, rep.bound,
                 0.0, "gt", "uncertainty_product_bound")
        )
    return {"uncertainty": _table(
        "mean_mu_uncertainty_product",
        ["tau", "dx_mu (cm)", "dp_mu (g cm/s)", "product (erg s)", "bound (erg s)",
         "spread_factor", "eta0"], rows)}, comparisons


# false-alarm rate of the PIMC row's miss rule on a correct estimate
_PIMC_FALSE_ALARM = 1e-3


def _t_tail(t: float, nu: int) -> float:
    """P(|T| > t), T Student's t with nu degrees of freedom, in the closed form
    of Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4 (even nu): with
    theta = arctan(t / sqrt(nu)) and c = cos(theta), P(|T| <= t) is
    (2 / pi) (theta + sin(theta) sum) for odd nu and sin(theta) sum for even
    nu, where the sum runs over c^j, j = nu mod 2, ..., nu - 2 in steps of 2,
    each term (j + 1) / (j + 2) c^2 times the last, from c (odd) or 1 (even)."""
    theta = math.atan(t / math.sqrt(nu))
    c2, total = math.cos(theta) ** 2, 0.0
    term = math.cos(theta) if nu % 2 else 1.0
    for j in range(nu % 2, nu - 1, 2):
        total += term
        term *= (j + 1) / (j + 2) * c2
    inside = math.sin(theta) * total
    return 1.0 - (2.0 / math.pi * (theta + inside) if nu % 2 else inside)


def _allowed_misses(n: int, p: float) -> int:
    """The least k with P(Binomial(n, p) > k) <= _PIMC_FALSE_ALARM."""
    log_p, log_q, cdf = math.log(p), math.log1p(-p), 0.0
    for k in range(n + 1):
        cdf += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * log_p + (n - k) * log_q)
        if 1.0 - cdf <= _PIMC_FALSE_ALARM:
            return k
    return n


def _run_pimc(p, seed):
    params = _physical(p)
    bin_grid = make_grid(p["bin_points"], p["bin_length"])
    pot = _potential(p)
    est = estimate_density_matrix(
        pot, p["x0"], p["beta"], params, p["n_slices"], p["n_chains"],
        p["n_paths"], bin_grid, seed,
    )
    # the histogram holds bin averages, so the oracle is a bin average too
    oracle = bin_averaged_row(pot, p["beta"], params, bin_grid, p["x0"])
    anchor = ("free_thermal_kernel_bin_average" if pot.kind == "free"
              else "thermal_kernel_bin_average")
    cov = est.covered
    # a V = 0 row bins each endpoint with its mirror about x0, so it is even
    # about x0 and its bins left of x0 repeat those right of it
    judged = cov & (bin_grid.positions >= p["x0"]) if pot.kind == "free" else cov
    # a correct bin misses 3 se with P(|t_{chains - 1}| > 3); the row allows
    # the misses that a correct row exceeds at rate _PIMC_FALSE_ALARM, the
    # judged bins taken as independent
    n = int(judged.sum())
    within = np.abs(est.mean[judged] - oracle[judged]) <= 3.0 * est.std_error[judged]
    frac = float(within.mean()) if n else 0.0
    needed = (n - _allowed_misses(n, _t_tail(3.0, p["n_chains"] - 1))) / n if n else 1.0
    results = {"histogram": _table(
        "levy_measure_endpoint_histogram",
        ["x (cm)", "rho (1/cm)", "std_error (1/cm)", "oracle (1/cm)", "covered"],
        [[float(x), float(m), float(s), float(o), int(c)]
         for x, m, s, o, c in zip(bin_grid.positions, est.mean, est.std_error, oracle, cov)])}
    comparisons = [
        _cmp("fraction of covered bins within 3 std errors", frac, needed, 0.0,
             "ge", anchor),
        _cmp("overflow mass", est.overflow_low + est.overflow_high, 0.0, 0.05,
             "abs", "histogram_overflow_mass"),
    ]
    return results, comparisons


def _run_statmech(p, seed):
    params = _physical(p)
    beta = p["beta"]
    z_free = free_partition_function(beta, p["omega_size"], params)
    grid = make_grid(p["n_points"], p["length"])
    pot = Potential.harmonic(p["mass"], p["omega"])
    ladder = bloch_trace_ladder(pot, 0.125, 4, params, grid)
    ratios = [
        classical_partition_function(pot, b, params) / tr for b, tr in ladder
    ][::-1]  # descending beta
    gaps = [abs(r - 1.0) for r in ratios]
    mono = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    diag = free_density_matrix(0.0, 0.0, beta, params)

    # free thermal-kernel row: the exact V = 0 multiplier against quadrature,
    # on a wide grid so wrapped power tails stay below the tolerance
    row_grid = make_grid(2048, 120.0)
    row = bloch_density_matrix(Potential.free(), beta, params, row_grid, 0.0)
    mask = np.abs(row_grid.positions) <= 20.0
    idx = np.flatnonzero(mask)[:: max(1, mask.sum() // 101)]
    quad_vals = free_density_matrix(row_grid.positions[idx], 0.0, beta, params)
    row_dev = float(np.max(np.abs(row[idx] - quad_vals)))

    comparisons = [
        _cmp("free partition function vs kernel diagonal x size",
             z_free, diag * p["omega_size"], 1e-10, "rel", "thermal_trace_identity"),
        _cmp("beta doubling scaling of Z",
             free_partition_function(2.0 * beta, p["omega_size"], params) / z_free,
             2.0 ** (-1.0 / params.alpha), 1e-12, "rel", "partition_beta_scaling"),
        _cmp("thermal-kernel row vs quadrature (max dev)", row_dev, 0.0, 1e-5,
             "abs", "thermal_kernel_equation_solution"),
        _cmp("classical-limit ratio monotone toward 1", float(mono), 1.0, 0.0,
             "ge", "classical_limit_ratio"),
        _cmp("classical-limit ratio at smallest beta", ratios[-1], 1.0, 5e-3,
             "rel", "classical_limit_ratio"),
    ]
    results = {
        "classical_ratio": _table("classical_limit_ratio",
                                  ["beta (1/erg)", "Z_classical / bloch_trace"],
                                  [[b, r] for (b, _), r in zip(ladder[::-1], ratios)]),
        "partition": _table("free_partition_function", ["beta (1/erg)", "Z_free"],
                            [[beta, z_free]]),
        "thermal_row": _table("thermal_kernel_equation_solution",
                              ["x (cm)", "rho (1/cm)", "quadrature (1/cm)"],
                              [[float(row_grid.positions[i]), float(row[i]), float(v)]
                               for i, v in zip(idx, quad_vals)]),
    }
    return results, comparisons


def _run_scaling(p, seed):
    params = _physical(p)
    ladder = [p["sigma0"] * 2.0**k for k in range(p["n_rungs"])]
    slope, std_error = fractal_scaling_exponent(params, p["mu"], ladder, p["n_samples"], seed)
    target = p["mu"] / params.alpha
    results = {"scaling": _table("increment_scaling_slope", ["slope", "std_error", "target"],
                                 [[slope, std_error, target]])}
    comparisons = [
        _cmp("slope vs mu/alpha", slope, target, 3.0 * std_error, "abs",
             "increment_scaling_slope"),
    ]
    return results, comparisons


_RUN = {
    "seed": (_ranged(int, lambda n: n >= 0, "be a non-negative integer"), 42),
    "out": (str, None),  # None: the experiment's name
    "format": (_ranged(str, lambda s: s in ("csv", "json"), "be 'csv' or 'json'"), "json"),
}
_PHYSICAL = {"hbar": (_positive, 1.0), "d_alpha": (_positive, 1.0)}
_EXPERIMENTS: dict[str, tuple] = {
    "density": (_run_density, {
        "alpha": (_alpha, 1.5),
        "scale": (_positive, 1.0),
        "x_max": (_positive, 8.0),
        "n_points": (_count, 81),
    }),
    "kernel-check": (_run_kernel_check, {
        "alpha": (_alpha, 2.0),
        **_PHYSICAL,
        "t_values": (_list_of(_positive), [0.5, 1.0, 1.5]),
        "dx_values": (_list_of(_finite), [0.0, 0.5, 1.0]),
        "t_split": (_finite, None),
    }),
    "evolve": (_run_evolve, {
        "alpha": (_alpha, 1.5),
        **_PHYSICAL,
        "potential": (_potential_kind, "harmonic"),
        "mass": (_positive, 1.0),
        "omega": (_finite, 1.0),
        "n_points": (_grid_points, 1024),
        "length": (_positive, 40.0),
        "dt": (_positive, 0.005),
        "n_steps": (_count, 1000),
        "x0": (_finite, 1.0),
        "sigma": (_positive, 0.7),
    }),
    "packet": (_run_packet, {
        "alpha": (_alpha, 1.5),
        "nu": (_finite, None),
        "l": (_positive, 1.0),
        "p0": (_positive, 2.0),
        **_PHYSICAL,
        "t": (_finite, 1.0),
        "mu": (_finite, None),
        "table_points": (_count, 65),
    }),
    "uncertainty": (_run_uncertainty, {
        "alpha": (_alpha, 1.8),
        "nu": (_finite, None),
        "mu": (_finite, None),
        "l": (_positive, 1.0),
        "p0": (_positive, 2.0),
        **_PHYSICAL,
        "tau_values": (_list_of(_finite), [0.0, 1.0, 5.0]),
    }),
    "pimc": (_run_pimc, {
        "alpha": (_alpha, 1.5),
        **_PHYSICAL,
        "mass": (_positive, 1.0),
        "omega": (_finite, 1.0),
        "potential": (_potential_kind, "free"),
        "beta": (_positive, 1.0),
        "x0": (_finite, 0.0),
        "n_slices": (_count, 32),
        # the PIMC error bar is the spread of the chain means
        "n_chains": (_two_or_more, 16),
        "n_paths": (_count, 2000),
        "bin_points": (_grid_points, 64),
        "bin_length": (_positive, 30.0),
    }),
    "statmech": (_run_statmech, {
        "alpha": (_alpha, 1.5),
        **_PHYSICAL,
        "beta": (_positive, 1.0),
        "omega_size": (_positive, 60.0),
        "mass": (_positive, 1.0),
        "omega": (_finite, 1.0),
        "n_points": (_grid_points, 512),
        "length": (_positive, 50.0),
    }),
    "scaling": (_run_scaling, {
        "alpha": (_alpha, 1.5),
        **_PHYSICAL,
        "mu": (_finite, 1.0),
        "sigma0": (_positive, 0.02),
        "n_rungs": (_two_or_more, 6),  # a slope needs two rungs
        "n_samples": (_count, 20000),
    }),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> RunReport:
    start = time.perf_counter()
    runner, _ = _EXPERIMENTS[config.experiment]
    results, comparisons = runner(config.parameters, config.seed)
    wall = time.perf_counter() - start
    config_echo = {
        "experiment": config.experiment,
        "seed": config.seed,
        "out": config.out,
        "format": config.format,
        **{k: v for k, v in sorted(config.parameters.items())},
    }
    provenance = {
        "library": "fracqm",
        "version": __version__,
        "master_seed": config.seed,
    }
    return RunReport(config_echo, results, comparisons, provenance, wall)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(path: str, data: str) -> None:
    """Write a unique temp file beside path, then rename it over path; the
    file is created 0o666 less the umask, the mode open(path, "w") gives."""
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_report(report: RunReport, prefix: str, fmt: str) -> list[str]:
    """Write output files (atomically); returns the paths written."""
    written = []
    if fmt == "json":
        payload = {
            "config": report.config,
            "results": report.results,
            "comparisons": report.comparisons,
            "provenance": report.provenance,
        }
        path = f"{prefix}.json"
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    else:
        for name, table in report.results.items():
            lines = [",".join(table["columns"])]
            for row in table["rows"]:
                lines.append(",".join(_fmt(v) for v in row))
            path = f"{prefix}_{name}.csv"
            _atomic_write(path, "\n".join(lines) + "\n")
            written.append(path)
        cols = ["name", "value", "oracle", "abs_dev", "rel_dev", "tolerance",
                "kind", "passed", "anchor"]
        lines = [",".join(cols)]
        for row in report.comparisons:
            lines.append(",".join(_fmt(row[c]) for c in cols))
        path = f"{prefix}_comparisons.csv"
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracqm",
        description="Fractional quantum mechanics experiment driver",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output path prefix")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = parse_flat(fh.read())
        raw.setdefault("experiment", args.experiment)
        if raw["experiment"] != args.experiment:
            raise ConfigurationError(
                f"config names experiment {raw['experiment']!r}, "
                f"command line says {args.experiment!r}"
            )
        if args.seed is not None:
            raw["seed"] = str(args.seed)
        if args.out is not None:
            raw["out"] = args.out
        if args.fmt is not None:
            raw["format"] = args.fmt
        config = validate_config(raw)
        report = run_experiment(config)
        paths = write_report(report, config.out, config.format)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"experiment: {config.experiment} (seed {config.seed})")
    for row in report.comparisons:
        flag = "pass" if row["passed"] else "FAIL"
        print(
            f"  [{flag}] {row['name']}: value={row['value']:.6g} "
            f"oracle={row['oracle']:.6g} tol={row['tolerance']:.2g} ({row['kind']})"
        )
    print(f"wall clock: {report.wall_clock:.2f} s")
    for path in paths:
        print(f"wrote {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
