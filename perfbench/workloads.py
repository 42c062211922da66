"""The benchmark workloads.

Every workload is closed loop: one client runs passes back to back in one
process.  A workload object is built from the repository root and the
benchmark seed (its construction is the timed "input" part of set-up),
computes its oracle once, untimed, in ``prepare``, and then:

- ``run(k)`` is pass k, the only timed call; it goes through fracqm's
  public API, looking each function up on its module at call time so the
  traced run sees the call;
- ``outcome(result)`` reads what the pass produced, untimed;
- ``check(outcome)`` returns (label, passed) pairs, each counting toward
  ``failed_frac``; it also holds every pass to the bytes of the first pass
  made with the same inputs;
- ``perturbed(outcome)`` returns a copy carrying a known error, which
  ``check`` must reject;
- ``facts(outcome)`` returns per-layer accuracy figures of the pass.

Shipped configs are run unmodified: neither resized nor re-seeded.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

import fracqm.cli
import fracqm.pimc
from fracqm.numerics import PhysicalParams, make_grid
from fracqm.spectral import Potential
from fracqm.stable import StableParams, levy_cdf
from fracqm.statmech import bloch_density_matrix

OUT_DIR = ".perfbench_out"

# a PIMC estimate passes when every core bin is covered and it sits within
# 2 std errors of the bin-averaged oracle in RMS over the core (a correct
# estimator fails this less than once in 10^6 passes, by chi-square with 17
# or more bins); criterion 10's "95% of covered bins within 3 se" is
# reported as a fact, not checked per pass: on the harmonic shape's ~22
# covered bins two stray bins fail it, about once in 300 passes (t, 63 dof)
RMS_Z_MAX = 2.0
OVERFLOW_MAX = 0.05
# core bins: oracle at least this share of its peak; the oracle alone fixes them
CORE_SHARE = 0.01
# bloch_trace_ladder against eigh: a decade above the ~1e-7 Strang error
LADDER_REL_TOL = 1e-6
ORACLE_REL_TOL = 1e-6


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _bin_edges(grid) -> np.ndarray:
    return np.concatenate(
        [grid.positions - grid.spacing / 2.0, [grid.positions[-1] + grid.spacing / 2.0]]
    )


class PimcShape:
    """One of criterion 10's two PIMC shapes, with its bin-averaged oracle."""

    def __init__(self, name: str, params, potential, bins, n_slices: int, n_paths: int):
        self.name = name
        self.params = params
        self.potential = potential
        self.bins = bins
        self.n_slices = n_slices
        self.n_chains = 64
        self.n_paths = n_paths
        self.beta = 1.0

    def prepare(self) -> list[tuple[str, bool]]:
        checks = []
        if self.potential.kind == "free":
            cdf = levy_cdf(_bin_edges(self.bins), StableParams(self.params.alpha, 1.0))
            self.oracle = np.diff(cdf) / self.bins.spacing
        else:
            fine = make_grid(2048, self.bins.length)
            row = bloch_density_matrix(self.potential, self.beta, self.params, fine, 0.0)
            cell = self.bins.spacing
            self.oracle = np.array([
                np.mean(row[(fine.positions >= x - cell / 2) & (fine.positions < x + cell / 2)])
                for x in self.bins.positions
            ])
            # the oracle row is fracqm's own solver: hold it to Mehler's kernel
            sh, ch = math.sinh(self.beta), math.cosh(self.beta)
            mehler = np.exp(-fine.positions**2 * ch / (2.0 * sh)) / math.sqrt(2.0 * math.pi * sh)
            dev = float(np.max(np.abs(row - mehler)))
            checks.append((f"{self.name}: oracle row vs Mehler kernel",
                           dev <= ORACLE_REL_TOL * float(mehler.max())))
        self.core = self.oracle >= CORE_SHARE * self.oracle.max()
        return checks

    def estimate(self, master_seed: int):
        return fracqm.pimc.estimate_density_matrix(
            self.potential, 0.0, self.beta, self.params, self.n_slices,
            self.n_chains, self.n_paths, self.bins, master_seed,
        )

    def z(self, est) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(est.mean - self.oracle) / est.std_error

    def check(self, est) -> list[tuple[str, bool]]:
        core = self.core
        z = self.z(est)[core]
        covered = bool(np.all(est.covered[core] & (est.std_error[core] > 0)))
        return [
            (f"{self.name}: every core bin covered", covered),
            (f"{self.name}: RMS deviation over core bins within {RMS_Z_MAX} std errors",
             bool(covered and math.sqrt(float(np.mean(z * z))) <= RMS_Z_MAX)),
            (f"{self.name}: overflow mass within {OVERFLOW_MAX}",
             est.overflow_low + est.overflow_high <= OVERFLOW_MAX),
        ]


def _estimate_digest(est) -> str:
    return _sha256(
        est.mean.tobytes(), est.std_error.tobytes(), est.covered.tobytes(),
        est.effective_counts.tobytes(),
        np.array([est.overflow_low, est.overflow_high]).tobytes(),
    )


class PimcWorkload:
    """Criterion 10's free and harmonic shapes, back to back in each pass."""

    def __init__(self, root: Path, seed: int):
        self.shapes = [
            PimcShape("free", PhysicalParams(1.0, 1.0, 1.5), Potential.free(),
                      make_grid(64, 30.0), n_slices=64, n_paths=3000),
            PimcShape("harmonic", PhysicalParams.gaussian(mass=1.0),
                      Potential.harmonic(1.0, 1.0), make_grid(64, 20.0),
                      n_slices=256, n_paths=1500),
        ]
        self._rng = random.Random(seed)
        self._seeds: list[int] = []
        self._digests: dict[tuple[str, int], str] = {}

    def master_seed(self, k: int) -> int:
        """Passes 0 and 1 share a seed (byte-identity check); later passes differ."""
        j = max(k - 1, 0)
        while len(self._seeds) <= j:
            self._seeds.append(self._rng.getrandbits(32))
        return self._seeds[j]

    def prepare(self) -> list[tuple[str, bool]]:
        return [c for shape in self.shapes for c in shape.prepare()]

    def run(self, k: int) -> list:
        return [shape.estimate(self.master_seed(k) + i) for i, shape in enumerate(self.shapes)]

    def outcome(self, estimates: list) -> list:
        return estimates

    def digest(self, estimates: list) -> str:
        return _sha256(*(_estimate_digest(est).encode() for est in estimates))

    def check(self, estimates: list) -> list[tuple[str, bool]]:
        checks = []
        for shape, est in zip(self.shapes, estimates):
            checks += shape.check(est)
            key = (shape.name, est.master_seed)
            if key in self._digests:
                checks.append((f"{shape.name}: estimate byte-identical to the earlier "
                               "pass with its seed", _estimate_digest(est) == self._digests[key]))
            else:
                self._digests[key] = _estimate_digest(est)
        return checks

    def perturbed(self, estimates: list) -> list:
        # a 25% normalization error, as a wrong bin width would give
        return [dataclasses.replace(est, mean=est.mean * 1.25) for est in estimates]

    def facts(self, estimates: list) -> dict[str, float]:
        relvar, z_cov, covered, ess = [], [], [], []
        for shape, est in zip(self.shapes, estimates):
            core = shape.core
            relvar.append((est.std_error[core] / shape.oracle[core]) ** 2)
            cov = est.covered & (est.std_error > 0)
            z_cov.append(shape.z(est)[cov])
            covered.append(est.covered)
            ess.append(est.effective_counts[core])
        z_cov = np.concatenate(z_cov)
        return {
            "pimc.relvar_core": float(np.mean(np.concatenate(relvar))),
            "pimc.covered_frac": float(np.mean(np.concatenate(covered))),
            "pimc.ess_min_core": float(np.min(np.concatenate(ess))),
            "pimc.overflow_mass": max(e.overflow_low + e.overflow_high for e in estimates),
            "pimc.frac_within_3se": float(np.mean(z_cov <= 3.0)) if z_cov.size else 0.0,
        }


@dataclasses.dataclass
class CliOutcome:
    files: dict[str, bytes]   # path -> bytes written
    reports: dict[str, dict]  # experiment -> parsed JSON report


def _comparison_holds(row: dict) -> bool:
    """Re-derive a CLI comparison row's verdict from its numbers."""
    value, oracle, tol, kind = row["value"], row["oracle"], row["tolerance"], row["kind"]
    dev = abs(value - oracle)
    if kind == "abs":
        return dev <= tol
    if kind == "rel":
        return dev <= tol * abs(oracle)
    if kind == "ge":
        return value >= oracle - tol
    if kind == "gt":
        return value > oracle
    return False


class CliWorkload:
    """All eight shipped configs through validate_config -> run_experiment ->
    write_report, the way the ``fracqm`` command runs them.

    The seed orders the experiments within each pass; the configs are not
    touched, so every pass must write the same bytes whatever the order.
    The statmech ladder traces are also held to a dense eigh of the same
    grid Hamiltonian.
    """

    def __init__(self, root: Path, seed: int):
        out_dir = Path(OUT_DIR) / "cli"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.raw = {}
        for name in fracqm.cli.EXPERIMENTS:
            raw = fracqm.cli.parse_flat((root / "configs" / f"{name}.cfg").read_text())
            raw.setdefault("experiment", name)
            raw["out"] = str(out_dir / name.replace("-", "_"))
            self.raw[name] = raw
        self._order = random.Random(seed)
        self._reference: dict[str, bytes] | None = None

    def prepare(self) -> list[tuple[str, bool]]:
        p = self.p = fracqm.cli.validate_config(self.raw["statmech"]).parameters
        n, length = p["n_points"], p["length"]
        dx = length / n
        x = -length / 2.0 + dx * np.arange(n)
        mom = 2.0 * math.pi * p["hbar"] * np.fft.fftfreq(n, d=dx)
        # Fourier-grid Hamiltonian of the same grid: circulant kinetic part
        # from one inverse FFT of D |p|^alpha, plus the diagonal potential
        kin = np.fft.ifft(p["d_alpha"] * np.abs(mom) ** p["alpha"]).real
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        h = kin[idx] + np.diag(0.5 * p["mass"] * p["omega"] ** 2 * x**2)
        self.energies = np.linalg.eigvalsh(h)
        return []

    def run(self, k: int) -> list[str]:
        order = list(self.raw)
        self._order.shuffle(order)
        written = []
        for name in order:
            config = fracqm.cli.validate_config(self.raw[name])
            report = fracqm.cli.run_experiment(config)
            written += fracqm.cli.write_report(report, config.out, config.format)
        return written

    def outcome(self, written: list[str]) -> CliOutcome:
        files = {path: Path(path).read_bytes() for path in sorted(written)}
        reports = {}
        for data in files.values():
            report = json.loads(data)
            reports[report["config"]["experiment"]] = report
        return CliOutcome(files, reports)

    def _ladder_devs(self, report: dict) -> list[tuple[float, float]]:
        """Relative deviation of each ladder trace from the eigh trace.

        The trace is recovered from the reported ratio Z_classical / trace
        with the closed-form harmonic Z_classical.
        """
        p = self.p
        devs = []
        for beta, ratio in report["results"]["classical_ratio"]["rows"]:
            z_cl = (
                math.gamma(1.0 + 1.0 / p["alpha"])
                / (math.pi * p["hbar"] * (beta * p["d_alpha"]) ** (1.0 / p["alpha"]))
                * math.sqrt(2.0 * math.pi / (beta * p["mass"] * p["omega"] ** 2))
            )
            z = float(np.sum(np.exp(-beta * self.energies)))
            devs.append((beta, abs(z_cl / ratio - z) / z))
        return devs

    def check(self, out: CliOutcome) -> list[tuple[str, bool]]:
        checks = []
        for name, report in sorted(out.reports.items()):
            for row in report["comparisons"]:
                checks.append((f"{name}: {row['name']}",
                               bool(row["passed"]) and _comparison_holds(row)))
        for beta, dev in self._ladder_devs(out.reports["statmech"]):
            checks.append((f"statmech: ladder trace at beta={beta} vs eigh",
                           dev <= LADDER_REL_TOL))
        if self._reference is None:
            self._reference = dict(out.files)
        else:
            for path, data in out.files.items():
                checks.append((f"{path} byte-identical to the first pass",
                               data == self._reference.get(path)))
        return checks

    def perturbed(self, out: CliOutcome) -> CliOutcome:
        bad = copy.deepcopy(out)
        for report in bad.reports.values():
            for row in report["comparisons"]:
                row["value"] = math.nan
        for row in bad.reports["statmech"]["results"]["classical_ratio"]["rows"]:
            row[1] *= 1.0 + 1e-4
        bad.files = {p: d + b" " for p, d in bad.files.items()}
        return bad

    def facts(self, out: CliOutcome) -> dict[str, float]:
        devs = self._ladder_devs(out.reports["statmech"])
        return {"statmech.ladder_max_rel_dev": max(d for _, d in devs)}


WORKLOADS = {"pimc": PimcWorkload, "cli": CliWorkload}
