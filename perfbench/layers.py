"""Per-layer metrics of a traced run, named after the package's modules.

Spans come from the benchmark's own calls into each module's public
functions, plus shims (``INTERNAL_CALLS``) around a few functions that one
module calls in another, so that the layer below a call is timed too.
Every time is speed-scaled: spans by the tracer's gauge, CLI processes by
the kernel each child timed.
"""

from __future__ import annotations

import numpy as np

import relaxed_polar as rp
from relaxed_polar import cli, energy, matcore, oracle, spatial

from . import gen
from .spans import Tracer

PROBE_SKEW = 2000


def _rescale_span(W, F):
    # muc = 0 returns F unchanged; only 0 < muc < mu rebuilds the gradient
    return "energy.rescale" if W.muc != 0.0 else "energy.rescale.identity"


# (module, attribute, span name or a function of the call's arguments)
INTERNAL_CALLS = (
    (matcore, "svd_ordered", "matcore.svd_ordered"),
    (energy, "rescale", _rescale_span),
    (spatial, "rescale", _rescale_span),
    (spatial, "wred_3d_values", "spatial.wred_3d_values"),
    (cli, "DeformationGradient", "energy.DeformationGradient"),
    (oracle, "riemannian_descent", "oracle.riemannian_descent"),
)

# (metric, unit, statistic, span or value name, scale from ns or from the value)
#   p50       median span duration        self_p50  median self time
#   last_p50  median duration of the last such span inside each enclosing span
#   value     median recorded value       mean      mean recorded value
#   calls     spans per workload operation
#   total     span time per workload operation
LAYER_METRICS = (
    ("matcore.svd_ordered.p50_us", "us", "p50", "matcore.svd_ordered", 1e-3),
    ("matcore.skew_exp.n3.p50_us", "us", "p50", "matcore.skew_exp.n3", 1e-3),
    ("matcore.skew_exp.n5.p50_us", "us", "p50", "matcore.skew_exp.n5", 1e-3),
    ("energy.DeformationGradient.p50_us", "us", "p50", "energy.DeformationGradient", 1e-3),
    ("energy.DeformationGradient.calls", "1/op", "calls", "energy.DeformationGradient", 1),
    # share of solves rejected as the known defect of gen.known_rejected
    ("energy.DeformationGradient.rejected_frac", "1", "mean",
     "energy.DeformationGradient.rejected", 1),
    ("energy.rescale.calls", "1/op", "calls", "energy.rescale", 1),
    ("energy.rescale.p50_us", "us", "p50", "energy.rescale", 1e-3),
    ("energy.reduced_energy.p50_us", "us", "p50", "energy.reduced_energy", 1e-3),
    ("planar.optimal_angles.p50_us", "us", "p50", "planar.optimal_angles", 1e-3),
    ("spatial.rpolar_3d.p50_us", "us", "p50", "spatial.rpolar_3d", 1e-3),
    ("ndim.global_minimizers_nd.p50_us", "us", "p50", "ndim.global_minimizers_nd", 1e-3),
    ("spatial.wred_3d_values.calls", "1/op", "calls", "spatial.wred_3d_values", 1),
    ("spatial.wred_3d_values.total_s", "s/op", "total", "spatial.wred_3d_values", 1e-9),
    ("cli.iso_grid.wall_s", "s", "value", "cli.iso_grid.wall", 1e-9),
    ("cli.solve.wall_s", "s", "value", "cli.solve.wall", 1e-9),
    ("cli.census.wall_s", "s", "value", "cli.census.wall", 1e-9),
    ("cli.sweep.wall_s", "s", "value", "cli.sweep.wall", 1e-9),
    ("cli.iso_grid.inproc_s", "s", "p50", "cli.iso_grid.inproc", 1e-9),
    ("cli.iso_grid.self_s", "s", "self_p50", "cli.iso_grid.inproc", 1e-9),
    ("cli.iso_grid.bytes", "B", "value", "cli.iso_grid.bytes", 1),
    ("cli.solve.inproc_ms", "ms", "p50", "cli.solve.inproc", 1e-6),
    ("ndim.enumerate_critical_partitions.ms", "ms", "p50",
     "ndim.enumerate_critical_partitions", 1e-6),
    ("ndim.census.partitions", "count", "value", "ndim.census.partitions", 1),
    ("oracle.global_minimize.p50_s", "s", "p50", "oracle.global_minimize", 1e-9),
    # the last descent of each global_minimize: the long polish from the winner
    ("oracle.polish.ms", "ms", "last_p50", "oracle.riemannian_descent", 1e-6),
    ("oracle.riemannian_descent.calls", "1/op", "calls", "oracle.riemannian_descent", 1),
    ("oracle.riemannian_descent.p50_ms", "ms", "p50", "oracle.riemannian_descent", 1e-6),
    ("oracle.descent.iters_p50", "count", "value", "oracle.descent.iters", 1),
    ("oracle.descent.end_tol_frac", "1", "mean", "oracle.descent.end_tol", 1),
    ("oracle.descent.end_stall_frac", "1", "mean", "oracle.descent.end_stall", 1),
    ("oracle.descent.end_cap_frac", "1", "mean", "oracle.descent.end_cap", 1),
    ("oracle.restarts_converged_frac", "1", "mean", "oracle.restarts_converged", 1),
)


def _stat(tr: Tracer, how: str, name: str) -> float | None:
    if how in ("p50", "self_p50", "last_p50"):
        d = {"p50": tr.durations_ns, "self_p50": tr.self_times_ns,
             "last_p50": tr.last_child_durations_ns}[how](name)
        return float(np.median(d)) if d.size else None
    vals = tr.values.get(name)
    if not vals:
        return None
    return float(np.median(vals) if how == "value" else np.mean(vals))


def layer_metrics(native: Tracer, native_ops: int, probe: Tracer):
    """Per-layer metrics, the names of those taken from the probes, and of those missing.

    ``calls`` and ``total`` count the workload's own calls per operation
    and are 0 for a function the workload never calls. Every other metric
    describes a single call; it comes from the workload's own spans when
    there are any, and from the probes otherwise. A metric neither has
    spans for (the package no longer calls that function) reads 0.
    """
    out, probed, missing = {}, [], []
    for metric, unit, how, name, scale in LAYER_METRICS:
        if how in ("calls", "total"):
            d = native.durations_ns(name)
            v = (d.size if how == "calls" else d.sum()) / max(native_ops, 1)
        else:
            v = _stat(native, how, name)
            if v is None:
                v = _stat(probe, how, name)
                probed.append(metric)
            if v is None:
                v = 0.0
                missing.append(metric)
        out[metric] = {"value": float(v) * scale, "unit": unit}
    return out, probed, missing


def probe_skew_exp(seed: int, tr):
    """matcore.skew_exp on skew inputs the size of an oracle step.

    The oracle steps by exp(-t G) with t from 0.1 up and |G| of order 1,
    so the probe draws |A| log-uniformly between 1e-3 and 1.
    """
    for n in (3, 5):
        rng = np.random.default_rng((seed, gen.TAG_PROBE, n))
        for _ in range(PROBE_SKEW):
            g = rng.standard_normal((n, n))
            a = g - g.T
            a *= 10.0 ** rng.uniform(-3.0, 0.0) / np.linalg.norm(a)
            with tr.span(f"matcore.skew_exp.n{n}"):
                rp.skew_exp(a)
