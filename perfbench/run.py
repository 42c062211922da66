#!/usr/bin/env python3
"""fracqm benchmark: two closed-loop workloads through the public API.

Run from the root of a fracqm checkout; the package is imported from its
``src/`` directory:

    python3 perfbench/run.py --workload pimc --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run that alternates untraced and traced passes
and reports the per-layer metrics.  Every pass is checked against an
oracle, and a perturbed copy of the first result must fail the checks.
Progress lines go to standard output; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md
beside this file lists the workloads and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pimc", "cli")
# what a fresh interpreter imports before the workload's first pass
IMPORTS = {"pimc": "fracqm.pimc", "cli": "fracqm.cli"}
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_BLOCKS = 3
# passes shorter than this are timed in blocks this long, with a calibration
# kernel run after each block
BLOCK_S = 2.0
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_ref_s": "s", "tta_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the warm passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import and input construction in a fresh interpreter")
    return parser.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, checks) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed.append(label)


def setup_probe(args, root: Path) -> None:
    """In a fresh interpreter: import fracqm, then build the workload's inputs."""
    t0 = time.perf_counter()
    importlib.import_module(IMPORTS[args.workload])
    import_s = time.perf_counter() - t0
    import workloads

    t1 = time.perf_counter()
    workloads.WORKLOADS[args.workload](root, args.seed)
    print(json.dumps({"import_s": import_s, "input_s": time.perf_counter() - t1}))


def run_probe(args, root: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["input_s"]


def _openblas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "FRACQM_THREADS": os.environ.get("FRACQM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def timed_pass(wl, k: int, tally: Tally, facts: list) -> float:
    """Run pass k; only the pass itself is timed, then it is checked."""
    start = time.perf_counter()
    result = wl.run(k)
    wall = time.perf_counter() - start
    outcome = wl.outcome(result)
    tally.add(wl.check(outcome))
    facts.append(wl.facts(outcome))
    return wall


def medians(samples: list[dict]) -> dict[str, float]:
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.median(s[k] for s in samples if k in s) for k in keys}


def pimc_worker_pair(wl, tally: Tally) -> dict[str, float]:
    """The same PIMC pass at 1 worker and at nproc workers."""
    n = nproc()
    saved = os.environ.get("FRACQM_THREADS")
    walls, digests = {}, {}
    try:
        for workers in (1, n):
            os.environ["FRACQM_THREADS"] = str(workers)
            start = time.perf_counter()
            est = wl.run(0)
            walls[workers] = time.perf_counter() - start
            digests[workers] = wl.digest(est)
            tally.add(wl.check(est))
    finally:
        if saved is None:
            os.environ.pop("FRACQM_THREADS", None)
        else:
            os.environ["FRACQM_THREADS"] = saved
    tally.add([(f"estimate bit-identical at 1 and {n} workers", digests[1] == digests[n])])
    speedup = walls[1] / walls[n]
    return {
        "pimc.wall_1_worker_s": walls[1],
        "pimc.wall_nproc_workers_s": walls[n],
        "pimc.speedup": speedup,
        "pimc.parallel_efficiency": speedup / n,
    }


def measure(args, wl, tally: Tally, setup: dict, cal) -> dict[str, float]:
    """Timed run: blocks of warm passes with tracing off, a calibration
    kernel run before the first block and after each.  A block is one pass,
    or enough short passes to last BLOCK_S.  ``setup`` holds the set-up probe
    times and the first pass's time.
    """
    walls, facts, blocks = [], [], []
    cal.run()
    start = time.perf_counter()
    k = 1
    while len(blocks) < MIN_BLOCKS or time.perf_counter() - start < args.seconds:
        block = []
        while sum(block) < BLOCK_S:
            block.append(timed_pass(wl, k, tally, facts))
            k += 1
        walls += block
        blocks.append(statistics.fmean(block))
        cal.run()
    wall_ref_s = cal.at_reference_speed(statistics.median(blocks))
    # time x relative variance: a faster but noisier estimator does not win;
    # the deterministic workloads reach their checked tolerance in one pass
    relvar = (statistics.fmean(f["pimc.relvar_core"] for f in facts)
              if "pimc.relvar_core" in facts[0] else 1.0)
    print(f"{len(walls)} warm passes in {len(blocks)} blocks: median "
          f"{statistics.median(walls):.4f} s, min {min(walls):.4f} s, max {max(walls):.4f} s; "
          f"first pass {setup['first_s']:.4f} s; import + inputs "
          + ", ".join(f"{t:.4f}" for t in setup["probes"])
          + f" s; calibration kernel median {statistics.median(cal.times):.4f} s "
          f"(reference {cal.reference_s} s)")
    # the first pass against the slowest of the blocks right after it: slow
    # drift cancels, and one pass's noise does not read as set-up work
    excess = max(0.0, setup["first_s"] - max(blocks[:MIN_BLOCKS]))
    from workloads import OUT_DIR

    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    samples = {"probes_s": setup["probes"], "first_s": setup["first_s"], "passes_s": walls,
               "blocks_s": blocks, "calibration_s": cal.times}
    (out / f"samples_{args.workload}_seed{args.seed}.json").write_text(json.dumps(samples))
    return {
        "wall_ref_s": wall_ref_s,
        "tta_ref_s": wall_ref_s * relvar,
        "setup_s": statistics.median(setup["probes"]) + excess,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(args, wl, tally: Tally) -> dict[str, float]:
    """Traced run: untraced and traced passes alternate; spans give layers."""
    import layers
    from tracer import PassSpans, Tracer
    from workloads import OUT_DIR

    tracer = Tracer()
    targets = layers.targets()
    walls = {False: [], True: []}
    facts: list = []
    start = time.perf_counter()
    k = 1
    while k <= 2 * MIN_PASSES or k % 2 == 0 or time.perf_counter() - start < args.seconds:
        traced = k % 2 == 0
        if traced:
            tracer.pass_id = k
            tracer.install(targets)
        try:
            walls[traced].append(timed_pass(wl, k, tally, facts))
        finally:
            tracer.restore()
        k += 1

    per_pass: dict[int, list] = {}
    for span in tracer.spans:
        per_pass.setdefault(span.pass_id, []).append(span)
    samples = [layers.layer_metrics(PassSpans(spans)) for spans in per_pass.values()]
    metrics = {name: 0.0 for name in layers.UNITS}
    metrics.update(medians(samples))
    metrics.update(medians(facts))
    # each traced pass against the untraced pass just before it, so slow drift cancels
    metrics["tracing_overhead_s"] = statistics.median(
        t - u for t, u in zip(walls[True], walls[False]))
    if args.workload == "pimc":
        metrics.update(pimc_worker_pair(wl, tally))
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    tracer.dump(str(out / f"trace_{args.workload}_seed{args.seed}.json"))
    print(f"{len(walls[True])} traced and {len(walls[False])} untraced passes, "
          f"{len(tracer.spans)} spans")
    return metrics


def run_workload(args, root: Path, cal):
    """Set-up probes, the first pass and its self-check, then the timed or
    the traced run.  Returns the metrics, their units, the check tally and
    how many more checks the perturbed first result failed."""
    setup = {"probes": []}
    if not args.trace:
        setup["probes"] = [run_probe(args, root) for _ in range(SETUP_SAMPLES)]

    import workloads

    wl = workloads.WORKLOADS[args.workload](root, args.seed)
    tally = Tally()
    tally.add(wl.prepare())
    start = time.perf_counter()
    result = wl.run(0)
    setup["first_s"] = time.perf_counter() - start
    first = wl.outcome(result)
    first_checks = wl.check(first)
    tally.add(first_checks)
    # the checker must see a known error: a perturbed copy of pass 0 has to fail more
    perturbed = wl.check(wl.perturbed(first))
    caught = sum(not ok for _, ok in perturbed) - sum(not ok for _, ok in first_checks)
    print(f"self-check: perturbed result failed {caught} more of {len(perturbed)} checks")

    if args.trace:
        import layers

        metrics = measure_traced(args, wl, tally)
        units = layers.UNITS
    else:
        metrics = measure(args, wl, tally, setup, cal)
        units = END_TO_END_UNITS
    return metrics, units, tally, caught


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fracqm" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a fracqm checkout "
              "(src/fracqm and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        setup_probe(args, root)
        return 0
    # the only build step: byte-compile once, so every set-up probe imports alike
    compileall.compile_dir(str(root / "src"), quiet=1)
    from calibration import Calibration

    cal = Calibration()
    try:
        metrics, units, tally, caught = run_workload(args, root, cal)
    finally:
        cal.close()
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    failed = len(tally.failed)
    print(f"failed_frac = {failed / tally.attempted:.6g} ({failed} of {tally.attempted} checks)")
    for label in tally.failed[:10]:
        print(f"  FAILED: {label}")
    print("provenance: " + json.dumps(provenance(args, root), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and caught > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
