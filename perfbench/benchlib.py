"""Statistics, trace arithmetic and metric assembly for perfbench.

The C++ harness writes raw samples (one value per job, set-up, round or
span); everything reported is derived here, so the rules the benchmark
states (nearest-rank percentiles, self time, coverage) live in one place
and are unit-tested in tests/test_benchlib.py.
"""

import math
import statistics

# End-to-end metrics, reported by every untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "routed_wl": "DBU",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, reported by every traced run: name -> unit. A layer
# a workload does not exercise reports 0.
PER_LAYER = {
    "io.read_bookshelf_s": "s",
    "io.write_pl_s": "s",
    "core.initial_place_s": "s",
    "core.global_place_s": "s",
    "core.routability_opt_s": "s",
    "core.legalize_s": "s",
    "core.padding_rounds": "count",
    "core.round_p50_s": "s",
    "gp.wirelength_s": "s",
    "gp.density_s": "s",
    "gp.poisson_s": "s",
    "gp.assemble_s": "s",
    "gp.nesterov_s": "s",
    "gp.iterations": "count",
    "gp.gradient_evals": "count",
    "gp.evals_per_iter": "ratio",
    "congestion.calls": "count",
    "congestion.full_rebuilds": "count",
    "congestion.incremental_s": "s",
    "congestion.full_s": "s",
    "congestion.dirty_net_frac": "ratio",
    "congestion.rsmt_cache_hit_rate": "ratio",
    "padding.feature_s": "s",
    "padding.extracts": "count",
    "padding.dirty_gcell_frac": "ratio",
    "padding.incidence_hit_rate": "ratio",
    "padding.nets_reused_frac": "ratio",
    "legal.failed_cells": "count",
    "legal.avg_displacement": "DBU",
    "router.route_s": "s",
    "router.rrr_s": "s",
    "router.reroute_attempts": "count",
    "router.rerouted": "count",
    "router.reroute_yield": "ratio",
    "router.rounds": "count",
    "router.hof_pct": "%",
    "router.vof_pct": "%",
    "orchestrate.prefix_s": "s",
    "orchestrate.trials_s": "s",
    "orchestrate.utilization": "ratio",
    "orchestrate.checkpoint_save_s": "s",
    "orchestrate.checkpoint_restore_s": "s",
    "orchestrate.trials_run": "count",
    "orchestrate.trials_pruned": "count",
    "orchestrate.best_loss": "%",
    "serve.ack_s": "s",
    "serve.session_s": "s",
    "serve.wait_s": "s",
    "serve.fetch_s": "s",
    "serve.telemetry_frames": "count",
    "serve.job_bytes": "bytes",
    "serve.rejected": "count",
    "trace.latency_p50_s": "s",
    "trace.latency_p90_s": "s",
    "trace.first_feedback_p50_s": "s",
    "trace.placements_per_s": "1/s",
    "trace.stage_coverage": "ratio",
    "trace.gp_coverage": "ratio",
}

# Raw sample keys whose reported name differs.
_RENAMED = {"core.round_s": "core.round_p50_s"}

# The layer times that should account for a job's set-up plus latency,
# per workload (trace.stage_coverage).
_STAGES = {
    "place_congested": ("io.read_bookshelf_s", "core.initial_place_s",
                        "core.global_place_s", "core.legalize_s",
                        "router.route_s", "io.write_pl_s"),
    "explore_trials": ("io.read_bookshelf_s", "orchestrate.prefix_s",
                       "orchestrate.trials_s"),
    "serve_small_jobs": ("serve.session_s", "serve.wait_s", "serve.fetch_s"),
}

# What global placement's time should be made of (trace.gp_coverage).
_GP_PARTS = ("gp.wirelength_s", "gp.density_s", "gp.poisson_s",
             "gp.assemble_s", "gp.nesterov_s", "congestion.incremental_s",
             "congestion.full_s", "padding.feature_s")


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples that lie above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q / 100.0 * n))


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children's intervals cover (overlapping children count once).

    `spans` are dicts with id, parent, start and end (any time unit).
    Returns {id: self_time}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def spans_from_chrome(trace):
    """Spans of a Chrome trace-event document written by the harness
    (times in microseconds)."""
    return [{"id": e["args"]["id"], "parent": e["args"]["parent"],
             "job": e["args"]["job"], "name": e["name"],
             "start": e["ts"], "end": e["ts"] + e["dur"]}
            for e in trace["traceEvents"]]


def layer_self_seconds(spans):
    """Total self time per layer (the span-name prefix), in seconds."""
    totals = {}
    selfs = self_times(spans)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + selfs[s["id"]] / 1e6
    return totals


def end_to_end_metrics(raw):
    """The end-to-end metrics of an untraced run: name -> value."""
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_s": statistics.median(raw["latency_s"]),
        "routed_wl": statistics.median(raw["routed_wl"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw):
    """The per-layer metrics of a traced run: name -> value (0 for a
    layer the workload does not exercise)."""
    values = {name: 0.0 for name in PER_LAYER}
    for key, samples in raw["layers"].items():
        name = _RENAMED.get(key, key)
        if name in values and samples:
            values[name] = statistics.median(samples)
    latency = statistics.median(raw["latency_s"])
    values["trace.latency_p50_s"] = latency
    values["trace.latency_p90_s"] = percentile(raw["latency_s"], 90)
    values["trace.first_feedback_p50_s"] = statistics.median(
        raw["first_feedback_s"])
    values["trace.placements_per_s"] = raw["placements"] / raw["busy_s"]
    stages = _STAGES[raw["workload"]]
    total = latency + (values["io.read_bookshelf_s"]
                      if "io.read_bookshelf_s" in stages else 0.0)
    values["trace.stage_coverage"] = sum(values[s] for s in stages) / total
    gp = values["core.global_place_s"]
    values["trace.gp_coverage"] = (
        sum(values[p] for p in _GP_PARTS) / gp if gp > 0 else 0.0)
    return values


def result_line(raw, metrics, units):
    """The benchmark's final stdout object."""
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
