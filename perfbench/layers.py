"""Layer boundaries the traced run wraps, and the per-layer metrics.

The layers are fracqm's modules.  ``targets`` names each wrapped function
with its span name and the counts taken from its arguments or result;
``UNITS`` maps every per-layer metric to its unit, and
``layer_metrics`` derives the span-based ones for one traced pass.  The
rest come from the workload's own accuracy figures (``pimc.relvar_core``
and the other ``facts``), from the 1-worker / nproc-worker PIMC pair, and
from traced against untraced wall time.  A metric of a layer the workload
never reaches reads 0.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from fracqm.cli import EXPERIMENTS
from tracer import PassSpans

UNITS = {
    "stable.sample_stable.s": "s",
    "stable.variates": "count",
    "stable.ns_per_variate": "ns",
    "stable.levy_density.calls": "count",
    "stable.levy_density.ms_per_point": "ms",
    "stable.levy_cdf.ms_per_point": "ms",
    "pimc.estimate_density_matrix.s": "s",
    "pimc.self_s": "s",
    "pimc.paths": "count",
    "pimc.workers": "count",
    "pimc.wall_1_worker_s": "s",
    "pimc.wall_nproc_workers_s": "s",
    "pimc.speedup": "ratio",
    "pimc.parallel_efficiency": "ratio",
    "pimc.relvar_core": "ratio",
    "pimc.covered_frac": "ratio",
    "pimc.ess_min_core": "count",
    "pimc.overflow_mass": "ratio",
    "pimc.frac_within_3se": "ratio",
    "spectral.evolve.s": "s",
    "spectral.evolve.calls": "count",
    "spectral.step_ns_per_point": "ns",
    "spectral.refine_time_step.s": "s",
    "spectral.refine_time_step.dt": "1/erg",
    "statmech.bloch_trace_ladder.s": "s",
    "statmech.bloch_matrix.s": "s",
    "statmech.bloch_density_matrix.s": "s",
    "statmech.classical_partition_function.s": "s",
    "statmech.free_density_matrix.ms_per_point": "ms",
    "statmech.ladder_max_rel_dev": "ratio",
    "propagator.free_kernel.ms_per_eval": "ms",
    "propagator.kernel_row.s": "s",
    "propagator.chapman_kolmogorov_residual.s": "s",
    "wavepacket.packet_position_state.s": "s",
    "wavepacket.uncertainty_report.s": "s",
    "wavepacket.suggest_grid.n_points": "count",
    "numerics.adaptive_quadrature.calls": "count",
    "numerics.adaptive_quadrature.s": "s",
    "numerics.transform.calls": "count",
    "numerics.transform.s": "s",
    **{f"cli.{e}.s": "s" for e in EXPERIMENTS},
    "cli.validate_config.s": "s",
    "cli.write_report.s": "s",
    "cli.bytes_written": "bytes",
    "tracing_overhead_s": "s",
}


def _bound(fn, *names):
    """Extract named arguments of a call to fn, however they were passed."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return [bound[n] for n in names]

    return get


def targets() -> list:
    """(function, span name, counts) for each traced function."""
    from fracqm import cli, numerics, pimc, propagator, spectral, stable, statmech, wavepacket

    def points(args, kwargs, out):
        return {"points": int(np.size(args[0] if args else kwargs["x"]))}

    edm = _bound(pimc.estimate_density_matrix, "n_chains", "n_samples_per_chain")
    ev = _bound(spectral.evolve, "field", "config")
    exp_name = _bound(cli.run_experiment, "config")

    def paths(args, kwargs, out):
        chains, per_chain = edm(args, kwargs)
        return {"paths": chains * per_chain}

    def point_steps(args, kwargs, out):
        field, config = ev(args, kwargs)
        return {"point_steps": config.n_steps * field.grid.n_points}

    def written(args, kwargs, out):
        return {"bytes": sum(os.path.getsize(p) for p in out)}

    return [
        (stable.sample_stable, "stable.sample_stable",
         lambda a, k, out: {"variates": int(np.size(out))}),
        (stable.levy_density, "stable.levy_density", points),
        (stable.levy_cdf, "stable.levy_cdf", points),
        (pimc.estimate_density_matrix, "pimc.estimate_density_matrix", paths),
        # the per-chain body, so time spent in worker threads is attributed
        (pimc._chain_histogram, "pimc.chain", None),
        (spectral.evolve, "spectral.evolve", point_steps),
        (spectral.refine_time_step, "spectral.refine_time_step",
         lambda a, k, out: {"dt": float(out)}),
        (statmech.bloch_trace_ladder, "statmech.bloch_trace_ladder", None),
        (statmech.bloch_matrix, "statmech.bloch_matrix", None),
        (statmech.bloch_density_matrix, "statmech.bloch_density_matrix", None),
        (statmech.classical_partition_function, "statmech.classical_partition_function", None),
        (statmech.free_density_matrix, "statmech.free_density_matrix", None),
        (propagator.free_kernel, "propagator.free_kernel", None),
        (propagator.kernel_row, "propagator.kernel_row", None),
        (propagator.chapman_kolmogorov_residual, "propagator.chapman_kolmogorov_residual", None),
        (wavepacket.packet_position_state, "wavepacket.packet_position_state", None),
        (wavepacket.uncertainty_report, "wavepacket.uncertainty_report", None),
        (wavepacket.suggest_grid, "wavepacket.suggest_grid",
         lambda a, k, out: {"n_points": out.n_points}),
        (numerics.adaptive_quadrature, "numerics.adaptive_quadrature", None),
        (numerics.to_momentum_space, "numerics.transform", None),
        (numerics.to_position_space, "numerics.transform", None),
        (cli.validate_config, "cli.validate_config", None),
        (cli.run_experiment, lambda a, k: f"cli.{exp_name(a, k)[0].experiment}", None),
        (cli.write_report, "cli.write_report", written),
    ]


def layer_metrics(ps: PassSpans) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass."""
    def per(total, count, scale):
        return total / count * scale if count else 0.0

    m = {}
    s = ps.inclusive("stable.sample_stable")
    variates = ps.total("stable.sample_stable", "variates")
    m["stable.sample_stable.s"] = s
    m["stable.variates"] = variates
    m["stable.ns_per_variate"] = per(s, variates, 1e9)
    m["stable.levy_density.calls"] = ps.calls("stable.levy_density")
    for name in ("levy_density", "levy_cdf"):
        m[f"stable.{name}.ms_per_point"] = per(
            ps.inclusive(f"stable.{name}"), ps.total(f"stable.{name}", "points"), 1e3)

    m["pimc.estimate_density_matrix.s"] = ps.inclusive("pimc.estimate_density_matrix")
    m["pimc.self_s"] = ps.layer_self("pimc.")
    m["pimc.paths"] = ps.total("pimc.estimate_density_matrix", "paths")
    m["pimc.workers"] = ps.threads("pimc.chain")

    m["spectral.evolve.s"] = ps.inclusive("spectral.evolve")
    m["spectral.evolve.calls"] = ps.calls("spectral.evolve")
    m["spectral.step_ns_per_point"] = per(
        m["spectral.evolve.s"], ps.total("spectral.evolve", "point_steps"), 1e9)
    m["spectral.refine_time_step.s"] = ps.inclusive("spectral.refine_time_step")
    dts = [s.info["dt"] for s in ps.named("spectral.refine_time_step")]
    m["spectral.refine_time_step.dt"] = min(dts) if dts else 0.0

    for name in ("bloch_trace_ladder", "bloch_matrix", "bloch_density_matrix",
                 "classical_partition_function"):
        m[f"statmech.{name}.s"] = ps.inclusive(f"statmech.{name}")
    m["statmech.free_density_matrix.ms_per_point"] = per(
        ps.inclusive("statmech.free_density_matrix"), ps.calls("statmech.free_density_matrix"), 1e3)

    m["propagator.free_kernel.ms_per_eval"] = per(
        ps.inclusive("propagator.free_kernel"), ps.calls("propagator.free_kernel"), 1e3)
    for name in ("kernel_row", "chapman_kolmogorov_residual"):
        m[f"propagator.{name}.s"] = ps.inclusive(f"propagator.{name}")

    for name in ("packet_position_state", "uncertainty_report"):
        m[f"wavepacket.{name}.s"] = ps.inclusive(f"wavepacket.{name}")
    grids = [s.info["n_points"] for s in ps.named("wavepacket.suggest_grid")]
    m["wavepacket.suggest_grid.n_points"] = max(grids) if grids else 0

    for name in ("adaptive_quadrature", "transform"):
        m[f"numerics.{name}.calls"] = ps.calls(f"numerics.{name}")
        m[f"numerics.{name}.s"] = ps.inclusive(f"numerics.{name}")

    for e in EXPERIMENTS:
        m[f"cli.{e}.s"] = ps.inclusive(f"cli.{e}")
    m["cli.validate_config.s"] = ps.inclusive("cli.validate_config")
    m["cli.write_report.s"] = ps.inclusive("cli.write_report")
    m["cli.bytes_written"] = ps.total("cli.write_report", "bytes")
    return m
