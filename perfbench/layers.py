"""The freqboot functions a traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the modules of ``src/freqboot``; a span is named
``<module>.<function>`` after the module that defines the function,
except that both Monte Carlo runners are ``cli.runner``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

import freqboot.cli  # noqa: F401  (loads every freqboot module)
from freqboot.lattice import FrequencyGrid

import spans

UNIT = "bench.unit"          # root span around one timed execution
GENERATE = "bench.generate"  # root span around input generation

# the KDE floors its output at this share of its peak
_KDE_FLOOR_REL = 1e-6


def _count_weights(tracer, args, kwargs, result):
    fhat = args[0]
    tracer.counts["bootstrap.fdwb_draws.weights"] += (
        result.size * int(np.count_nonzero(fhat.grid.half_plane_mask)))


def _count_fft_points(tracer, args, kwargs, result):
    tracer.counts["subsample.subsample_ensemble.fft_points"] += result.L * result.b


def _count_points(tracer, args, kwargs, result):
    tracer.counts["lattice.periodogram.points"] += result.grid.n


def _count_floor_hits(tracer, args, kwargs, result):
    vals = result.values[result.grid.nonzero_mask]
    tracer.counts["density.ordinates"] += vals.size
    tracer.counts["density.floor_hits"] += int(
        np.count_nonzero(vals <= _KDE_FLOOR_REL * vals.max()))


def _note_grid(tracer, args, kwargs, result):
    tracer.counts[("grid", result.n1, result.n2)] += 1


def _count_report_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.report_bytes"] += sum(os.path.getsize(p) for p in result)


# (module, function, span name or None for <module>.<function>, observer)
WRAPPED = (
    ("rng", "stream", None, None),
    ("simulate", "simulate_process", None, None),
    ("lattice", "build_frequency_grid", None, _note_grid),
    ("lattice", "periodogram", None, _count_points),
    ("spectral", "spectral_mean", None, None),
    ("spectral", "psi_from_name", None, None),
    ("spectral", "psi_isotropy_contrast", None, None),
    ("density", "kernel_density_estimate", None, _count_floor_hits),
    ("bootstrap", "fdwb_variance", None, None),
    ("bootstrap", "fdwb_draws", None, _count_weights),
    ("bootstrap", "bootstrap_distribution", None, None),
    ("subsample", "subsample_ensemble", None, _count_fft_points),
    ("subsample", "variance_estimates", None, None),
    ("subsample", "block_variogram_contrast", None, None),
    ("subsample", "subsample_edf", None, None),
    ("subsample", "bias_estimate", None, None),
    ("infer", "isotropy_test", None, None),
    ("infer", "confidence_interval", None, None),
    ("infer", "p_value_from_replicates", None, None),
    ("infer", "sample_variogram", None, None),
    ("cli", "experiment_config", None, None),
    ("cli", "run_isotropy_experiment", "cli.runner", None),
    ("cli", "run_coverage_experiment", "cli.runner", None),
    ("cli", "emit_report", None, _count_report_bytes),
)

SELF_MS = ("bootstrap.fdwb_draws", "rng.stream", "subsample.subsample_ensemble",
           "subsample.block_variogram_contrast", "subsample.variance_estimates",
           "simulate.simulate_process", "lattice.periodogram",
           "density.kernel_density_estimate", "spectral.spectral_mean",
           "bootstrap.fdwb_variance", "infer.isotropy_test",
           "infer.confidence_interval", "bootstrap.bootstrap_distribution",
           "infer.p_value_from_replicates", "cli.runner")
CALLS = ("rng.stream", "subsample.subsample_ensemble", "simulate.simulate_process")
COMPUTED = ("bootstrap.fdwb_draws.weights", "subsample.subsample_ensemble.fft_points",
            "lattice.periodogram.points")


def install(tracer: spans.Tracer) -> None:
    """Wrap every function of ``WRAPPED`` in all loaded freqboot modules."""
    modules = [m for name, m in sys.modules.items()
               if name == "freqboot" or name.startswith("freqboot.")]
    for mod_name, fn_name, span_name, observe in WRAPPED:
        fn = getattr(sys.modules["freqboot." + mod_name], fn_name)
        tracer.patch(modules, fn, span_name or f"{mod_name}.{fn_name}", observe)


def cold_grid_ms(tracer: spans.Tracer, repeats: int = 3) -> float:
    """Uncached build time of every distinct frequency grid the run used,
    summed over grids; each is the median of ``repeats`` builds."""
    total = 0.0
    for key in [k for k in tracer.counts if isinstance(k, tuple) and k[0] == "grid"]:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            FrequencyGrid(key[1], key[2])
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return 1e3 * total


def per_layer(tracer: spans.Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds, per unit of work."""
    recs = tracer.records()
    own = spans.self_times(recs)
    tot = spans.totals(recs)
    counts = tracer.counts
    out = {}
    for name in SELF_MS:
        out[name + ".self_ms"] = (own.get(name, 0) / 1e6 / units, "ms/unit")
    for name in CALLS:
        out[name + ".calls"] = (tot.get(name, (0, 0))[0] / units, "count/unit")
    for name in COMPUTED:
        out[name] = (counts[name] / units, "count/unit")
    weights = counts["bootstrap.fdwb_draws.weights"]
    draws_ns = tot.get("bootstrap.fdwb_draws", (0, 0))[1]
    out["bootstrap.fdwb_draws.ns_per_weight"] = (
        draws_ns / weights if weights else 0.0, "ns")
    out["cli.emit_report.ms"] = (tot.get("cli.emit_report", (0, 0))[1] / 1e6 / units,
                                 "ms/unit")
    out["cli.report_bytes"] = (counts["cli.report_bytes"] / units, "bytes/unit")
    ords = counts["density.ordinates"]
    out["density.floor_hit_frac"] = (
        counts["density.floor_hits"] / ords if ords else 0.0, "frac")
    out["trace.covered_frac"] = (spans.covered_frac(recs, UNIT), "frac")
    return out
