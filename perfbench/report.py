"""Metric definitions and their computation from raw run observations.

:data:`END_TO_END` and :data:`PER_LAYER` are the metrics
``BENCHMARK.json`` names, in the same order.  Every end-to-end metric
is reported for every workload, so "read" means the workload's read
operation: a group or user request over TCP, or one ``recommend_many``
batch in ``batch_fleet``.  Metrics that exist only for some workloads
(write latency, batch throughput) or follow the host's speed (memory)
are printed in the human-readable report.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable

from .loadgen import summarize, windowed_tail
from .spans import END, ID, NAME, PARENT, START, request_breakdown, span_totals

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_tail_ms", "ms", "lower", 0.25),
    ("slo_ok_ratio", "ratio", "higher", 0.1),
)

#: Layers whose share of the client-observed time is reported.
LAYERS = ("server", "service", "cache", "index", "kernels", "core", "validation", "exec")

#: Spans reported as ``<name>.calls`` (and ``<name>.ms`` below the service).
_COUNTED_SPANS = (
    "service.group",
    "service.user",
    "service.ingest",
    "service.batch",
    "kernels.pearson",
    "kernels.pearson_pair",
    "kernels.predict_row",
    "kernels.topk",
    "kernels.scan",
    "core.candidates",
    "core.select",
    "index.refresh",
    "exec.dispatch",
    "cache.invalidate",
)

_REMOTE = (
    ("exec.sync_messages", ("sync_messages",), "count"),
    ("exec.sync_bytes", ("sync_bytes",), "bytes"),
    ("exec.frames", ("frames_sent", "frames_received"), "count"),
    ("exec.bytes", ("bytes_sent", "bytes_received"), "bytes"),
    ("exec.requeues", ("requeues",), "count"),
    ("exec.dead_workers", ("dead_workers",), "count"),
    ("exec.degraded_dispatches", ("degraded_dispatches",), "count"),
    ("resilience.rejoins", ("rejoins",), "count"),
    ("resilience.deadline_aborts", ("deadline_aborts",), "count"),
    ("resilience.breaker_deferrals", ("breaker_deferrals",), "count"),
)


def _per_layer_spec() -> tuple[tuple[str, str, str], ...]:
    spec: list[tuple[str, str, str]] = [
        ("server.queue_wait_ms", "ms", "lower"),
        ("server.overhead_ms", "ms", "lower"),
        ("server.requests", "count", "higher"),
        ("server.overloads", "count", "lower"),
        ("server.errors", "count", "lower"),
        ("server.deadline_timeouts", "count", "lower"),
        ("service.group.self_ms", "ms", "lower"),
        ("service.user.self_ms", "ms", "lower"),
        ("service.ingest.ms", "ms", "lower"),
        ("service.batch.ms", "ms", "lower"),
    ]
    for name in _COUNTED_SPANS:
        spec.append((f"{name}.calls", "count", "lower"))
        if not name.startswith("service."):
            spec.append((f"{name}.ms", "ms", "lower"))
    for cache in ("group", "relevance", "similarity"):
        spec += [
            (f"cache.{cache}.hits", "count", "higher"),
            (f"cache.{cache}.lookups", "count", "lower"),
            (f"cache.{cache}.hit_ratio", "ratio", "higher"),
        ]
    spec += [
        ("cache.invalidate.scanned", "count", "lower"),
        ("index.rows_built", "count", "lower"),
        ("index.row.calls", "count", "lower"),
        ("index.row.ms", "ms", "lower"),
        ("index.row.wait_ms", "ms", "lower"),
        ("index.build.ms", "ms", "lower"),
        ("kernels.repack.count", "count", "lower"),
        ("kernels.repack.ms", "ms", "lower"),
        ("validation.calls", "count", "lower"),
        ("validation.ms", "ms", "lower"),
        ("validation.failures", "count", "lower"),
        ("exec.worker_compute_ms", "ms", "lower"),
        ("exec.boot.ms", "ms", "lower"),
        ("exec.close.ms", "ms", "lower"),
    ]
    spec += [(name, unit, "lower") for name, _, unit in _REMOTE]
    spec += [(f"share.{layer}", "ratio", "lower") for layer in LAYERS]
    spec += [
        ("trace.spans", "count", "lower"),
        ("trace.matched_ratio", "ratio", "higher"),
        ("trace.accounted_ratio", "ratio", "higher"),
        ("trace.service_attributed_ratio", "ratio", "higher"),
    ]
    spec += [(f"overhead.{name}", unit, better) for name, unit, better, _ in END_TO_END]
    return tuple(spec)


#: (name, unit, better) of every per-layer metric.
PER_LAYER: tuple[tuple[str, str, str], ...] = _per_layer_spec()


def _entry(value: float, unit: str, count: int | None = None, q: float | None = None) -> dict[str, Any]:
    return {"value": value, "unit": unit, "count": count, "q": q}


def e2e_metrics(run: Any) -> dict[str, dict[str, Any]]:
    """Every end-to-end metric of one untraced (or traced) run."""
    workload = run.workload
    reads = [latency for latency, _ in run.reads if latency is not None]
    summary = summarize(reads, workload.tail_q)
    tail = windowed_tail(
        [
            (offset, latency)
            for offset, (latency, _) in zip(run.read_offsets, run.reads)
            if latency is not None
        ],
        workload.tail_q,
        workload.tail_windows,
        run.seconds,
    )
    limit = workload.limit_ms
    samples = run.reads + run.writes
    within = sum(
        1 for latency, ok in samples if ok and latency is not None and latency <= limit
    )
    sent = max(1, run.attempted)
    return {
        "setup_s": _entry(statistics.median(run.setup_s), "s", len(run.setup_s), 50.0),
        "read_p50_ms": _entry(summary["p50"], "ms", summary["count"], 50.0),
        "read_tail_ms": _entry(tail, "ms", summary["count"], summary["tail_q"]),
        "slo_ok_ratio": _entry(within / sent, "ratio", sent),
    }


def extra_metrics(run: Any) -> dict[str, dict[str, Any]]:
    """Workload-specific numbers printed in the report only."""
    writes = summarize([lat for lat, _ in run.writes if lat is not None])
    pooled = summarize([lat for lat, _ in run.reads if lat is not None])
    lateness = summarize(run.lateness_ms)
    extras = {
        # The whole-sample tail, which keeps rare events (a stall, a GC
        # pause) that the gated per-slice median of ``read_tail_ms`` drops.
        "read_tail_pooled_ms": _entry(pooled["tail"], "ms", pooled["count"], pooled["tail_q"]),
        "shutdown_s": _entry(run.shutdown["shutdown_s"], "s", 1),
        "write_p50_ms": _entry(writes["p50"], "ms", writes["count"], 50.0),
        "write_tail_ms": _entry(writes["tail"], "ms", writes["count"], writes["tail_q"]),
        "failed_ratio": _entry(run.failed / max(1, run.attempted), "ratio", run.attempted),
        # Peak memory follows the never-seen users a closed loop gets
        # through, and so the host's speed: printed, not gated.
        "rss_mb": _entry(run.stats["rss_mb"], "MB"),
        "worker_rss_mb": _entry(run.stats["worker_rss_mb"], "MB", run.stats["workers"]),
        "lateness_p50_ms": _entry(lateness["p50"], "ms", lateness["count"], 50.0),
        "lateness_tail_ms": _entry(lateness["tail"], "ms", lateness["count"], lateness["tail_q"]),
    }
    if run.max_rate_rps is not None:
        extras["max_rate_rps"] = _entry(
            run.max_rate_rps, "1/s", run.ladder_attempted
        )
    if run.batch_groups:
        extras["batch_groups_per_s"] = _entry(
            run.batch_groups / run.seconds, "1/s", run.batch_groups
        )
        extras["batch_p50_ms"] = _entry(pooled["p50"], "ms", pooled["count"], 50.0)
    return extras


def _sum(counters: dict[str, float], name: str, *, where: str = "", suffix: str = "") -> float:
    """Sum of registry deltas named ``name`` whose labels contain ``where``."""
    total = 0.0
    for key, value in counters.items():
        metric, _, rest = key.partition("|")
        labels, _, tail = rest.partition("#")
        if metric == name and where in labels and tail == suffix:
            total += value
    return total


def _children(spans: Iterable[tuple]) -> dict[int, list[tuple]]:
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    return children


def per_layer_metrics(
    traced: Any,
    untraced_e2e: dict[str, dict[str, Any]],
    traced_e2e: dict[str, dict[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Every per-layer metric of a traced run, plus the tracing overhead."""
    spans = traced.spans
    counters = traced.stats["counters"]
    remote = traced.stats.get("remote", {})
    totals = span_totals(spans)
    breakdown = request_breakdown(spans, traced.timeline)
    values: dict[str, float] = {}

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0.0)

    def ms(name: str) -> float:
        return totals.get(name, {}).get("ms", 0.0)

    values["server.queue_wait_ms"] = (
        statistics.median(breakdown["queue_waits"]) if breakdown["queue_waits"] else 0.0
    )
    values["server.overhead_ms"] = (
        statistics.median(breakdown["overheads"]) if breakdown["overheads"] else 0.0
    )
    for name in ("requests", "overloads", "errors", "deadline_timeouts"):
        values[f"server.{name}"] = _sum(counters, f"server_{name}")
    values["service.group.self_ms"] = totals.get("service.group", {}).get("self_ms", 0.0)
    values["service.user.self_ms"] = totals.get("service.user", {}).get("self_ms", 0.0)
    values["service.ingest.ms"] = ms("service.ingest")
    values["service.batch.ms"] = ms("service.batch")
    for name in _COUNTED_SPANS:
        values[f"{name}.calls"] = calls(name)
        if not name.startswith("service."):
            values[f"{name}.ms"] = ms(name)
    for cache in ("group", "relevance", "similarity"):
        hits = _sum(counters, "cache_hits", where=f"cache={cache}")
        lookups = hits + _sum(counters, "cache_misses", where=f"cache={cache}")
        values[f"cache.{cache}.hits"] = hits
        values[f"cache.{cache}.lookups"] = lookups
        values[f"cache.{cache}.hit_ratio"] = hits / lookups if lookups else 0.0
    scanned = totals.get("cache.invalidate", {}).get("value", 0.0)
    values["cache.invalidate.scanned"] = scanned / max(1.0, calls("service.ingest"))
    children = _children(spans)
    rows = [s for s in spans if s[NAME] == "index.row"]
    built = [
        s for s in rows if any(c[NAME] == "cache.similarities" for c in children[s[ID]])
    ]
    values["index.rows_built"] = float(len(built))
    values["index.row.calls"] = float(len(rows))
    values["index.row.ms"] = sum((s[END] - s[START]) * 1000.0 for s in built)
    values["index.row.wait_ms"] = totals.get("index.row", {}).get("self_ms", 0.0)
    values["index.build.ms"] = statistics.median(
        layers.get("index.build.ms", 0.0) for layers in traced.setup_layers
    )
    values["kernels.repack.count"] = _sum(counters, "default:packed_repacks")
    values["kernels.repack.ms"] = _sum(counters, "default:repack_ms", suffix="sum")
    values["validation.calls"] = calls("validation.group") + calls("validation.user")
    values["validation.ms"] = ms("validation.group") + ms("validation.user")
    values["validation.failures"] = _sum(counters, "validation_failures")
    values["exec.worker_compute_ms"] = _sum(counters, "request_ms", where="worker=", suffix="sum")
    values["exec.boot.ms"] = statistics.median(
        layers.get("exec.boot.ms", 0.0) for layers in traced.setup_layers
    )
    values["exec.close.ms"] = traced.shutdown.get("exec.close.ms", 0.0)
    for name, keys, _ in _REMOTE:
        values[name] = sum(remote.get(key, 0.0) for key in keys)
    client = breakdown["client_ms"]
    layers = breakdown["layers"]
    for layer in LAYERS:
        values[f"share.{layer}"] = layers.get(layer, 0.0) / client if client else 0.0
    service_ms = sum(v for k, v in layers.items() if k != "server")
    values["trace.spans"] = float(len(spans))
    values["trace.matched_ratio"] = (
        breakdown["matched"] / len(traced.timeline) if traced.timeline else 0.0
    )
    values["trace.accounted_ratio"] = sum(layers.values()) / client if client else 0.0
    values["trace.service_attributed_ratio"] = (
        (service_ms - layers.get("service", 0.0)) / service_ms if service_ms else 0.0
    )
    for name, unit, _, _ in END_TO_END:
        values[f"overhead.{name}"] = traced_e2e[name]["value"] - untraced_e2e[name]["value"]
    return {name: _entry(values[name], unit) for name, unit, _ in PER_LAYER}


def print_report(args: Any, env: dict[str, Any], runs: list[Any], metrics: dict, valid: bool, correct: bool) -> None:
    """The human-readable report (every line before the JSON result)."""
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for run in runs:
        label = "traced" if run.traced else "untraced"
        lateness = summarize(run.lateness_ms)
        print(
            f"[{label}] attempted={run.attempted} failed={run.failed} "
            f"probes={run.probes} mismatches={run.mismatches} "
            f"generator_late={'yes' if run.late else 'no'} "
            f"(lateness tail {lateness['tail']} ms vs bound {run.lateness_bound_ms} ms) "
            f"leftover children={run.shutdown.get('leftover_children')} "
            f"sockets={run.shutdown.get('leftover_sockets')} "
            f"threads={run.shutdown.get('leftover_threads')}"
        )
        print(
            f"[{label}] set-ups in the order taken: "
            + " ".join(f"{value:.4f}" for value in run.setup_s)
            + " s"
        )
        for name, entry in {**e2e_metrics(run), **extra_metrics(run)}.items():
            print(f"[{label}] " + _format(name, entry))
    if args.trace:
        for name, entry in metrics.items():
            print("[layers] " + _format(name, entry))
    print(f"valid={valid} correct={correct}")


def _format(name: str, entry: dict[str, Any]) -> str:
    value = entry["value"]
    text = "n/a" if value is None else f"{value:.6g}"
    parts = [f"{name:34s} {text:>12s} {entry['unit']}"]
    if entry.get("count") is not None:
        parts.append(f"n={entry['count']}")
    if entry.get("q") is not None:
        parts.append(f"p{entry['q']:g}")
    return "  ".join(parts)
