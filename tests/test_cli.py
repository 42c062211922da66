import csv
import json
import math
import os
import pathlib

import numpy as np
import pytest
from scipy import stats

from fracqm import cli, wavepacket
from fracqm.cli import (
    EXPERIMENTS,
    main,
    parse_flat,
    run_experiment,
    validate_config,
    write_report,
)
from fracqm.errors import ConfigurationError
from fracqm.numerics import PhysicalParams, adaptive_quadrature, apply_symbol, grid_momenta, make_grid
from fracqm.spectral import Potential
from fracqm.stable import StableParams, levy_density
from fracqm.statmech import bin_averaged_row, bloch_density_matrix, free_density_matrix
from oracles import mehler_bin_averages

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_parse_flat_values_and_comments():
    raw = parse_flat("# header\nalpha = 1.5  # inline\n\nexperiment=packet\n")
    assert raw == {"alpha": "1.5", "experiment": "packet"}


def test_parse_flat_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_flat("this is not a config")


def test_parse_flat_rejects_duplicate_key():
    with pytest.raises(ConfigurationError) as exc:
        parse_flat("alpha = 1.5\n# comment\nbeta = 1\nalpha = 1.7\n")
    msg = str(exc.value)
    assert "'alpha'" in msg and "line 4" in msg and "line 1" in msg


def test_alpha_out_of_range_message():
    with pytest.raises(ConfigurationError) as exc:
        validate_config({"experiment": "packet", "alpha": "2.5"})
    assert "key 'alpha': bad value '2.5' (must lie in (1, 2])" in str(exc.value)


def test_mu_must_be_below_nu():
    for experiment, mu in (("packet", "1.6"), ("uncertainty", "-1")):
        with pytest.raises(ConfigurationError) as exc:
            validate_config({"experiment": experiment, "alpha": "1.5", "mu": mu, "nu": "1.5"})
        assert f"key 'mu' must lie in (0, nu), got mu={float(mu)}, nu=1.5" in str(exc.value)


@pytest.mark.parametrize("mu", ["2.0", "-1"])
def test_scaling_mu_must_lie_below_alpha(mu):
    # the increments' mu-th moment diverges at mu >= alpha
    with pytest.raises(ConfigurationError, match="key 'mu' must lie in \\(0, alpha\\)"):
        validate_config({"experiment": "scaling", "alpha": "1.5", "mu": mu})


def test_minimal_packet_config_gets_documented_defaults():
    cfg = validate_config(parse_flat("experiment = packet\nalpha = 1.5\n"))
    p = cfg.parameters
    assert (p["hbar"], p["d_alpha"], p["l"], p["p0"]) == (1.0, 1.0, 1.0, 2.0)
    assert p["nu"] == 1.5  # nu defaults to alpha
    assert cfg.seed == 42 and cfg.format == "json"


def test_unknown_keys_are_named():
    with pytest.raises(ConfigurationError) as exc:
        validate_config({"experiment": "density", "alpha": "1.5", "bogus": "1", "junk": "2"})
    msg = str(exc.value)
    assert "bogus" in msg and "junk" in msg


def test_all_violations_reported_together():
    with pytest.raises(ConfigurationError) as exc:
        validate_config(
            {"experiment": "uncertainty", "alpha": "2.5", "mu": "1.9", "nu": "1.5",
             "seed": "xyz"}
        )
    msg = str(exc.value)
    assert "alpha" in msg and "mu" in msg and "seed" in msg


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        validate_config({"experiment": "teleport"})


@pytest.mark.parametrize("experiment", ["evolve", "pimc"])
def test_unknown_potential_named(experiment):
    with pytest.raises(ConfigurationError) as exc:
        validate_config({"experiment": experiment, "potential": "harmonc"})
    msg = str(exc.value)
    assert "'potential'" in msg and "'harmonc'" in msg


def test_pimc_single_chain_rejected():
    # one chain has no chain spread, so every std_error would be NaN
    with pytest.raises(ConfigurationError,
                       match=r"key 'n_chains': bad value '1' \(must be an integer >= 2\)"):
        validate_config({"experiment": "pimc", "n_chains": "1"})


@pytest.mark.parametrize(
    "experiment,key,value",
    [
        ("uncertainty", "tau_values", ""),
        ("kernel-check", "t_values", ""),
        ("kernel-check", "dx_values", ""),
        ("kernel-check", "t_split", "2.0"),  # beyond the first t_values entry, 0.5
        ("kernel-check", "t_values", "0.0, 1.0"),
        ("kernel-check", "t_values", "1e-9"),  # ~1.25e9 ray nodes against dx = 0.5
        # kernel scales that leave the floats: subnormal and smallest normal inputs
        *(("kernel-check", key, value)
          for key in ("hbar", "d_alpha", "t_values", "t_split")
          for value in ("5e-324", "1e-310", "2.2250738585072014e-308")),
        ("pimc", "seed", "-1"),
        ("scaling", "seed", "-1"),
        ("pimc", "bin_points", "100"),  # the bin grid is a power-of-two FFT grid
        ("scaling", "n_rungs", "1"),  # a slope needs two rungs
    ],
)
def test_bad_list_input_named(experiment, key, value):
    # a key's own range fails in its converter, a rule tying keys together after it
    with pytest.raises(ConfigurationError, match=f"key '{key}'(: bad value '.*' \\(| )must"):
        validate_config({"experiment": experiment, key: value})


def test_kernel_check_accepts_long_offset_at_alpha_15():
    # the ray quadrature needs 1,920 nodes at dx = 6; an FFT grid needed 2^25 points
    config = validate_config({"experiment": "kernel-check", "alpha": "1.5",
                              "t_values": "0.5", "dx_values": "0, 6"})
    assert config.parameters["dx_values"] == [0.0, 6.0]


def test_kernel_check_accepts_short_composition_leg():
    # a leg 2e-7 of t_total: the eps-ladder grid needed ~2^25 points, the
    # rotated line needs none
    config = validate_config({"experiment": "kernel-check", "t_split": "1e-7"})
    row = next(c for c in run_experiment(config).comparisons
               if c["name"] == "composition-rule residual")
    assert row["passed"]


@pytest.mark.parametrize("alpha", ["1.1", "1.2", "1.5", "1.8"])
def test_shipped_kernel_check_passes_across_alpha(alpha):
    raw = parse_flat((CONFIGS / "kernel-check.cfg").read_text())
    report = run_experiment(validate_config({**raw, "alpha": alpha}))
    failed = [c["name"] for c in report.comparisons if not c["passed"]]
    assert not failed, f"failing comparisons: {failed}"


@pytest.mark.parametrize("value", ["0", "2.5"])
def test_bad_count_named_with_value(value):
    with pytest.raises(ConfigurationError) as exc:
        validate_config({"experiment": "evolve", "n_steps": value})
    assert f"key 'n_steps': bad value '{value}'" in str(exc.value)


@pytest.mark.parametrize(
    "experiment,key,value",
    [
        ("pimc", "mass", "0"),  # divided by in validate_config at alpha 2
        ("pimc", "mass", "-1"),
        ("evolve", "mass", "-1"),  # an inverted oscillator
        ("evolve", "sigma", "0"),
        ("statmech", "omega_size", "0"),
        ("statmech", "mass", "nan"),
        ("pimc", "beta", "-1"),
    ],
)
def test_nonpositive_physical_key_named_with_value(experiment, key, value):
    with pytest.raises(ConfigurationError) as exc:
        validate_config({"experiment": experiment, "alpha": "2.0", key: value})
    assert f"key {key!r}: bad value '{value}' (must be positive)" in str(exc.value)


@pytest.mark.parametrize("key", ["t_split", "hbar", "d_alpha", "alpha"])
def test_kernel_check_unparsable_key_named(key):
    # the kernel budget reads every kernel-check key, so it runs only on a valid config
    with pytest.raises(ConfigurationError, match=f"key '{key}': bad value 'abc'"):
        validate_config({"experiment": "kernel-check", key: "abc"})


def test_every_schema_key_declares_its_range():
    for experiment, (_, schema) in cli._EXPERIMENTS.items():
        for key, (conv, default) in {**cli._RUN, **schema}.items():
            if key == "out":
                continue
            assert conv not in (float, int, str), f"{experiment}: key {key!r} has no range"
            if default is not None:
                text = ", ".join(map(str, default)) if isinstance(default, list) else str(default)
                assert conv(text) == default, f"{experiment}: key {key!r} default out of range"
            for value in ("nan", "inf", "-inf", "abc"):
                with pytest.raises(ConfigurationError, match=f"key '{key}': bad value '{value}'"):
                    validate_config({"experiment": experiment, key: value})


def test_alpha2_defaults_couple_diffusion_to_mass():
    cfg = validate_config({"experiment": "pimc", "alpha": "2.0", "mass": "2.0"})
    assert cfg.parameters["d_alpha"] == pytest.approx(0.25)
    # an explicit d_alpha is kept when it agrees with the mass
    cfg2 = validate_config({"experiment": "pimc", "alpha": "2.0", "d_alpha": "0.5"})
    assert cfg2.parameters["d_alpha"] == 0.5


@pytest.mark.parametrize("experiment", ["evolve", "pimc", "statmech"])
def test_alpha2_diffusion_must_match_mass(experiment):
    with pytest.raises(ConfigurationError) as exc:
        validate_config({"experiment": experiment, "alpha": "2.0", "mass": "2.0",
                         "d_alpha": "1.0"})
    assert "key 'd_alpha' must equal 1/(2 mass) = 0.25 at alpha = 2, got 1.0" in str(exc.value)
    # with the mass left at its default of 1, d_alpha must be 0.5
    with pytest.raises(ConfigurationError, match="key 'd_alpha' must equal"):
        validate_config({"experiment": experiment, "alpha": "2.0", "d_alpha": "1.0"})
    # below alpha = 2 the two keys are independent
    validate_config({"experiment": experiment, "alpha": "1.5", "mass": "2.0",
                     "d_alpha": "1.0"})


@pytest.mark.parametrize(
    "experiment,overrides",
    [
        ("density", {}),
        ("kernel-check", {"t_values": "1.0", "dx_values": "0.0,0.7"}),
        ("evolve", {"n_steps": "200"}),
        ("packet", {}),
        ("uncertainty", {"alpha": "1.8", "tau_values": "0.0,1.0"}),
        ("pimc", {"n_chains": "8", "n_paths": "500"}),
        ("statmech", {}),
        ("scaling", {"n_samples": "8000"}),
        # the on-axis oracle, thermal_law at beta = t / hbar, away from unit constants
        ("kernel-check", {"alpha": "1.5", "hbar": "0.7", "d_alpha": "1.3", "t_values": "0.8",
                          "dx_values": "0.0"}),
    ],
)
def test_experiments_run_and_pass(experiment, overrides, tmp_path):
    raw = {"experiment": experiment, "out": str(tmp_path / "run"), **overrides}
    report = run_experiment(validate_config(raw))
    failed = [c["name"] for c in report.comparisons if not c["passed"]]
    assert not failed, f"failing comparisons: {failed}"
    assert report.results
    for table in report.results.values():
        assert table["anchor"]
        assert table["columns"]


def test_packet_run_builds_the_state_once(monkeypatch):
    calls = []
    transform = wavepacket.to_position_space

    def counted(phi):
        calls.append(phi.grid.n_points)
        return transform(phi)

    monkeypatch.setattr(wavepacket, "to_position_space", counted)
    run_experiment(validate_config(parse_flat((CONFIGS / "packet.cfg").read_text())))
    assert len(calls) == 1


@pytest.mark.parametrize("t", ["0", "1e-12", "1e-300"])
def test_shipped_packet_passes_at_small_t(t):
    # the exact first-moment row is absolute above the grid mean's round-off:
    # relative at 1e-6 it read inf at t = 0 (a zero oracle), 7.1e-5 at t = 1e-12
    raw = {**parse_flat((CONFIGS / "packet.cfg").read_text()), "t": t}
    report = run_experiment(validate_config(raw))
    assert report.passed, report.comparisons


def test_kernel_check_reuses_the_on_axis_table_value(monkeypatch):
    calls = []
    kernel = cli.free_kernel

    def counted(dx, t, params):
        calls.append((dx, t))
        return kernel(dx, t, params)

    monkeypatch.setattr(cli, "free_kernel", counted)
    config = validate_config(parse_flat((CONFIGS / "kernel-check.cfg").read_text()))
    run_experiment(config)
    p = config.parameters
    assert 0.0 in p["dx_values"]
    assert len(calls) == len(set(calls)) == len(p["t_values"]) * len(p["dx_values"])


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95, 2.0])
@pytest.mark.parametrize("scale", [0.3, 7.0])
def test_density_unit_mass_rule_matches_quadrature(alpha, scale):
    p = {"alpha": alpha, "scale": scale, "x_max": 1.0, "n_points": 3}
    row = next(c for c in cli._run_density(p, 0)[1] if c["name"] == "unit normalization")
    law = StableParams(alpha, scale)
    half = adaptive_quadrature(lambda x: levy_density(x, law), 0.0, np.inf, rel_tol=1e-12)
    assert row["value"] == pytest.approx(2.0 * half, rel=1e-12, abs=0.0)


def test_main_writes_json_and_exits_zero(tmp_path):
    cfg = tmp_path / "density.cfg"
    cfg.write_text("experiment = density\nalpha = 1.5\n")
    out = tmp_path / "density"
    code = main(["density", "--config", str(cfg), "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "density.json").read_text())
    assert set(payload) == {"config", "results", "comparisons", "provenance"}
    assert payload["provenance"]["master_seed"] == 42
    assert all("anchor" in c for c in payload["comparisons"])
    assert not list(tmp_path.glob("*.tmp"))


def test_main_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "pimc.cfg"
    cfg.write_text("experiment = pimc\nn_chains = 4\nn_paths = 200\n")
    outs = []
    for tag in ("a", "b"):
        prefix = tmp_path / f"run_{tag}"
        code = main(
            ["pimc", "--config", str(cfg), "--seed", "9", "--out", str(prefix),
             "--format", "csv"]
        )
        assert code == 0
        outs.append(sorted(tmp_path.glob(f"run_{tag}*.csv")))
    for fa, fb in zip(*outs):
        assert fa.read_bytes() == fb.read_bytes()


def test_main_nonzero_exit_on_failed_comparison(tmp_path):
    # alpha = nu = 1.2 at tau = 0: the uncertainty product falls below the
    # reference bound, which must surface as a reported failure
    cfg = tmp_path / "u.cfg"
    cfg.write_text("experiment = uncertainty\nalpha = 1.2\ntau_values = 0.0\n")
    code = main(
        ["uncertainty", "--config", str(cfg), "--out", str(tmp_path / "u"),
         "--format", "json"]
    )
    assert code == 1
    payload = json.loads((tmp_path / "u.json").read_text())
    assert any(not c["passed"] for c in payload["comparisons"])


def test_main_bad_config_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = density\nalpha = 9\n")
    code = main(["density", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2


def test_main_experiment_mismatch_rejected(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("experiment = density\n")
    code = main(["packet", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2


def test_seventeen_digit_csv_floats(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("experiment = density\nn_points = 5\nx_max = 2.0\n")
    main(["density", "--config", str(cfg), "--out", str(tmp_path / "d"),
          "--format", "csv"])
    body = (tmp_path / "d_density.csv").read_text().splitlines()
    assert body[0] == "x (cm),density (1/cm)"
    # a third of pi-ish density values need >= 16 digits to round-trip
    value = body[2].split(",")[1]
    assert float(value) and len(value.split(".")[-1]) >= 10


@pytest.mark.parametrize("flag", [None, "seed", "out", "format"])
def test_main_flag_overrides_only_its_config_key(flag, tmp_path, monkeypatch):
    # a flag replaces the file's value of its own key; a flag left out keeps
    # the file's value
    in_file = {"seed": "7", "out": str(tmp_path / "file"), "format": "json"}
    on_line = {"seed": "9", "out": str(tmp_path / "flag"), "format": "csv"}
    cfg = tmp_path / "d.cfg"
    cfg.write_text("experiment = density\nn_points = 5\n"
                   + "".join(f"{k} = {v}\n" for k, v in in_file.items()))
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: seen.append(config) or run_experiment(config))
    argv = ["density", "--config", str(cfg), *([f"--{flag}", on_line[flag]] if flag else [])]
    assert main(argv) == 0
    expected = validate_config({**parse_flat(cfg.read_text()),
                                **({flag: on_line[flag]} if flag else {})})
    assert seen == [expected]
    suffix = ".json" if expected.format == "json" else "_comparisons.csv"
    assert pathlib.Path(expected.out + suffix).exists()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_comparisons_carry_the_json_rows(experiment, tmp_path):
    # the CSV file has a comparison row's keys as its columns, in the row's
    # order, and each value round-trips from its 17 digits
    cfg = CONFIGS / f"{experiment}.cfg"
    for fmt in ("json", "csv"):
        main([experiment, "--config", str(cfg), "--out", str(tmp_path / "r"), "--format", fmt])
    rows = json.loads((tmp_path / "r.json").read_text())["comparisons"]
    with open(tmp_path / "r_comparisons.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    assert header == list(cli._cmp("row", 1.0, 1.0, 0.0, "abs", "anchor"))
    assert len(body) == len(rows)
    for line, row in zip(body, rows):
        assert len(line) == len(header)
        for column, text in zip(header, line):
            value = row[column]
            parsed = (text == "True" if isinstance(value, bool) else
                      float(text) if isinstance(value, float) else text)
            assert parsed == value, (column, text, value)


def _pimc_oracle(overrides):
    config = validate_config(
        {"experiment": "pimc", "n_chains": "2", "n_paths": "100", **overrides}
    )
    rows = np.array(run_experiment(config).results["histogram"]["rows"])
    return config.parameters, rows[:, 3]


@pytest.mark.parametrize("overrides", [{"x0": "0.3"}, {"potential": "harmonic", "x0": "0.3"}],
                         ids=["free", "harmonic"])
def test_pimc_oracle_column_is_bin_averaged_row(overrides):
    p, oracle = _pimc_oracle(overrides)
    row = bin_averaged_row(cli._potential(p), p["beta"], cli._physical(p),
                           make_grid(p["bin_points"], p["bin_length"]), p["x0"])
    assert np.array_equal(oracle, row)


def test_pimc_free_oracle_is_bin_average():
    # the histogram estimates bin averages, so its oracle must be one too:
    # (1 / width) * integral of rho_0 over each bin
    params, bins, x0 = PhysicalParams(1.0, 1.0, 1.5), make_grid(64, 30.0), 0.3
    oracle = bin_averaged_row(Potential.free(), 1.0, params, bins, x0)
    width = bins.spacing
    for x, o in zip(bins.positions, oracle):
        cell = adaptive_quadrature(
            lambda y: free_density_matrix(y, x0, 1.0, params),
            x - width / 2.0, x + width / 2.0, rel_tol=1e-11, abs_tol=1e-14,
        )
        assert abs(o - cell / width) <= 1e-8


def test_pimc_harmonic_oracle_is_bin_average():
    # alpha = 2 harmonic row is Mehler's kernel; its bin averages are erf differences
    bins = make_grid(64, 20.0)
    oracle = bin_averaged_row(Potential.harmonic(1.0, 1.0), 1.0, PhysicalParams.gaussian(1.0),
                              bins, 0.0)
    exact = mehler_bin_averages(bins.positions, bins.spacing, 1.0)
    assert np.max(np.abs(oracle - exact)) <= 1e-6 * np.max(exact)


def test_pimc_harmonic_oracle_keeps_periodic_images_out():
    # at alpha < 2 the row has power tails: on a periodic domain of only
    # bin_length the images summed to 3.5e-3 relative at the centre, 23% at x = 10.
    # The oracle's domain is 8 bin lengths; against 16 its core reads 1.6e-5
    # (a domain of 4 read 1.0e-4)
    params, bins = PhysicalParams(1.0, 1.0, 1.5), make_grid(64, 30.0)
    pot = Potential.harmonic(1.0, 1.0)
    oracle = bin_averaged_row(pot, 1.0, params, bins, 0.0)
    wide = make_grid(16384, 480.0)
    row = bloch_density_matrix(pot, 1.0, params, wide, 0.0)
    box = np.sinc(grid_momenta(wide, params) * bins.spacing / (2.0 * math.pi * params.hbar))
    nodes = np.rint((bins.positions + wide.length / 2.0) / wide.spacing).astype(int)
    reference = apply_symbol(row, box).real[nodes]
    core = np.abs(bins.positions) < 3.0
    assert np.max(np.abs(oracle[core] / reference[core] - 1.0)) <= 2e-5


def test_pimc_trap_at_zero_omega_reports_the_free_rows():
    # potential = harmonic at omega = 0 is the free particle: the same draws,
    # the same exact oracle and the free anchor
    base = {"experiment": "pimc", "n_chains": "2", "n_paths": "100"}
    free = run_experiment(validate_config(base))
    flat = run_experiment(validate_config({**base, "potential": "harmonic", "omega": "0"}))
    assert flat.results == free.results and flat.comparisons == free.comparisons


@pytest.mark.parametrize("alpha, potential", [
    *(pytest.param(a, "free", id=a) for a in ("1.1", "1.2", "1.8", "2")),
    *(pytest.param(a, "harmonic", id=f"harmonic-{a}") for a in ("1.1", "1.2", "1.5", "1.8", "2")),
])
def test_shipped_pimc_passes_across_alpha(alpha, potential):
    # the shipped config with only alpha and potential changed, at its seed 42:
    # every comparison passes.  The harmonic rows' false-alarm rate, measured
    # at seeds 1000-1199 for each of these five alphas, is 4 in 1,000 runs
    # (the miss rule is designed for 1 in 1,000); at alpha 2, where the
    # Gaussian bridge now makes the rows with its pooled error bar, it is 0
    # in 1,000 (seeds 1000-1999)
    raw = {**parse_flat((CONFIGS / "pimc.cfg").read_text()), "alpha": alpha,
           "potential": potential}
    report = run_experiment(validate_config(raw))
    assert report.passed, report.comparisons


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_t_tail_matches_scipy(t):
    # the closed forms of both parities against scipy's incomplete beta
    for nu in range(1, 201):
        assert cli._t_tail(t, nu) == pytest.approx(2.0 * stats.t.sf(t, nu), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("nu", [1, 15, 63])
@pytest.mark.parametrize("n", [1, 10, 27, 43, 64, 1000])
def test_allowed_misses_is_least_at_the_false_alarm_rate(n, nu):
    p = 2.0 * stats.t.sf(3.0, nu)
    k = cli._allowed_misses(n, p)
    assert stats.binom.sf(k, n, p) <= 1e-3
    assert k == 0 or stats.binom.sf(k - 1, n, p) > 1e-3


@pytest.mark.parametrize("overrides", [{}, {"x0": "1.3"}, {"potential": "harmonic"}],
                         ids=["free", "free-x0", "harmonic"])
def test_pimc_row_allows_the_calibrated_miss_count(overrides):
    # the row re-derived from the histogram table: a free row is even about
    # x0, so it judges the covered bins at or right of x0, a harmonic row
    # every covered bin; it allows the least k misses past 3 se with
    # P(Binomial(n, P(|t_15| > 3)) > k) <= 1e-3 over n judged bins
    raw = {**parse_flat((CONFIGS / "pimc.cfg").read_text()), **overrides}
    report = run_experiment(validate_config(raw))
    x, rho, se, oracle, covered = np.array(report.results["histogram"]["rows"]).T
    judged = covered == 1
    if "potential" not in overrides:
        judged &= x >= float(raw.get("x0", 0.0))
    n = int(judged.sum())
    p = 2.0 * stats.t.sf(3.0, int(raw["n_chains"]) - 1)
    k = next(k for k in range(n + 1) if stats.binom.sf(k, n, p) <= 1e-3)
    row = report.comparisons[0]
    assert 16 <= n < 64 and row["kind"] == "ge" and row["tolerance"] == 0.0
    assert row["value"] == np.mean(np.abs(rho - oracle)[judged] <= 3.0 * se[judged])
    assert row["oracle"] == pytest.approx(1.0 - k / n, abs=1e-15)


def test_pimc_harmonic_alpha15_matches_oracle():
    # trapezoid slice rule at 64 slices against the wide-domain oracle; the
    # right-endpoint rule and the bin_length-periodic oracle read 0.63 here
    config = validate_config({"experiment": "pimc", "potential": "harmonic",
                              "n_slices": "64", "n_paths": "50000"})
    report = run_experiment(config)
    assert report.passed, report.comparisons


def test_atomic_write_uses_unique_temp_file(tmp_path):
    prefix = tmp_path / "run"
    stale = tmp_path / "run.json.tmp"
    stale.write_text("another run's partial output")
    report = run_experiment(validate_config(
        {"experiment": "density", "n_points": "5", "out": str(prefix)}
    ))
    (path,) = write_report(report, str(prefix), "json")
    assert stale.read_text() == "another run's partial output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "run.json.tmp"]
    # same mode as a file made by open(path, "w")
    with open(tmp_path / "plain", "w"):
        pass
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode
