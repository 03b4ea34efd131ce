"""Metric definitions: the end-to-end set and the per-layer ledger.

:data:`END_TO_END` and :data:`PER_LAYER` name every metric the benchmark
prints, with unit and direction; ``BENCHMARK.json`` lists the same names
(``selftest.py`` checks the two agree).  A per-layer value is ``None``
when its layer did no work in the workload (no span, no count) — the
orchestrator prints ``null``; the single-run contract line, which must
carry a number for every metric, prints 0.

All ``*_s`` layer metrics are seconds summed over the timed window;
divide by ``engine.ops`` for a per-operation figure, or by
``engine.run_batch_s`` for a share of engine time.
"""

from __future__ import annotations

from benchmarks.e2e.measure import percentile, samples_beyond, tail_supported
from benchmarks.e2e.trace import KERNELS, Span, Tracer, total_by_name

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end_metrics", "per_layer_metrics"]

#: name -> (unit, better).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Monitor outcome metrics, each also split by Σ shape.
_MONITOR = {
    "survived_share": ("ratio", "higher"),
    "reintegrated_share": ("ratio", "lower"),
    "replanned_share": ("ratio", "lower"),
    "rechecked_per_update": ("count", "lower"),
}
_SHAPES = ("", ".iso", ".aniso")

PER_LAYER: dict[str, tuple[str, str]] = {
    "storage.open_s": ("s", "lower"),
    "index.build_s": ("s", "lower"),
    "index.range_search_s": ("s", "lower"),
    "index.range_search_calls": ("count", "lower"),
    "index.candidates_per_call": ("count", "lower"),
    "planner.plan_s": ("s", "lower"),
    "planner.plans": ("count", "lower"),
    "planner.cache_hit_ratio": ("ratio", "higher"),
    "strategies.prepare_s": ("s", "lower"),
    "strategies.classify_s": ("s", "lower"),
    "strategies.rejected_share": ("ratio", "higher"),
    "strategies.free_accept_share": ("ratio", "higher"),
    "strategies.integrations_per_op": ("count", "lower"),
    "stages.search_s": ("s", "lower"),
    "stages.search_self_s": ("s", "lower"),
    "stages.filter_s": ("s", "lower"),
    "stages.integrate_s": ("s", "lower"),
    "integrate.decide_s": ("s", "lower"),
    "integrate.candidates": ("count", "lower"),
    "integrate.sandwich_share": ("ratio", "higher"),
    "integrate.ruben_share": ("ratio", "lower"),
    "integrate.imhof_share": ("ratio", "lower"),
    "integrate.samples_per_candidate": ("count", "lower"),
    **{f"kernels.{k}_s": ("s", "lower") for k in KERNELS},
    **{f"kernels.{k}_calls": ("count", "lower") for k in KERNELS},
    "kernels.chi2_sandwich_block_ns_per_row": ("ns", "lower"),
    "kernels.ruben_block_ns_per_row": ("ns", "lower"),
    "kernels.backend": ("flag", "higher"),
    "gaussian.imhof_s": ("s", "lower"),
    "gaussian.imhof_calls": ("count", "lower"),
    "engine.run_batch_s": ("s", "lower"),
    "engine.unattributed_share": ("ratio", "lower"),
    "engine.ops": ("count", "higher"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.queue_wait_p95_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.batches": ("count", "lower"),
    "serve.engine_busy_share": ("ratio", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.dedup_share": ("ratio", "higher"),
    "serve.shed_share": ("ratio", "lower"),
    "serve.latency_p99_ms": ("ms", "lower"),
    "serve.steady_goodput_qps": ("1/s", "higher"),
    "monitor.subscribe_s": ("s", "lower"),
    **{
        f"monitor.{name}{shape}": unit
        for name, unit in _MONITOR.items()
        for shape in _SHAPES
    },
    "saferegion.classify_s": ("s", "lower"),
    "saferegion.build_s": ("s", "lower"),
    "shard.pool_start_s": ("s", "lower"),
    "shard.pool_run_s": ("s", "lower"),
    "shard.coordinator_s": ("s", "lower"),
    "shard.tasks_per_query": ("count", "lower"),
    "shard.worker_busy_s": ("s", "lower"),
    "shard.parallel_efficiency": ("ratio", "higher"),
    **{
        f"load.{phase}.{name}": unit
        for phase in ("steady", "overload")
        for name, unit in (
            ("injected", ("count", "higher")),
            ("offered_qps", ("1/s", "higher")),
            ("generator_lag_p95_ms", ("ms", "lower")),
        )
    },
    "latency.p95_ms": ("ms", "lower"),
    "latency.samples": ("count", "higher"),
    "latency.samples_beyond_p95": ("count", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unresolved_targets": ("count", "lower"),
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def _pct_ms(sorted_seconds: list[float], fraction: float):
    """A percentile in ms, or ``None`` under the "≥10 beyond" rule."""
    if not tail_supported(len(sorted_seconds), fraction):
        return None
    return percentile(sorted_seconds, fraction) * 1e3


def end_to_end_metrics(measured, setup_seconds: float) -> dict[str, float]:
    """The gated metrics of one untraced run."""
    ordered = sorted(measured.latencies)
    return {
        "setup_s": setup_seconds,
        "throughput_ops_s": measured.throughput,
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "cpu_ms_per_op": measured.cpu / measured.ops * 1e3,
        "peak_rss_mb": measured.peak_rss_mb,
    }


def per_layer_metrics(
    measured,
    setup_timings: dict[str, float],
    tracer: Tracer,
    backend: str,
) -> dict[str, float | None]:
    """Every :data:`PER_LAYER` metric for one traced run."""
    threads = tracer.threads()
    spans = total_by_name(threads)
    out: dict[str, float | None] = dict.fromkeys(PER_LAYER)

    def total(name: str):
        row = spans.get(name)
        return row["total"] if row else None

    def calls(name: str):
        row = spans.get(name)
        return row["calls"] if row else None

    for name in (
        "storage.open_s",
        "index.build_s",
        "monitor.subscribe_s",
        "shard.pool_start_s",
    ):
        out[name] = setup_timings.get(name)

    # index / planner / strategies / stages / integrate / gaussian
    out["index.range_search_s"] = total("index.range_search")
    out["index.range_search_calls"] = calls("index.range_search")
    row = spans.get("index.range_search")
    if row:
        out["index.candidates_per_call"] = row["size"] / row["calls"]
    stats = measured.query_stats
    out["planner.plan_s"] = total("planner.plan")
    if stats.get("planned"):
        out["planner.plans"] = stats["planned"]
        out["planner.cache_hit_ratio"] = stats["plan_hits"] / stats["planned"]
    out["strategies.prepare_s"] = total("strategies.prepare")
    out["strategies.classify_s"] = total("strategies.classify")
    if stats.get("queries"):
        retrieved = stats["retrieved"]
        out["strategies.rejected_share"] = _ratio(stats["rejected"], retrieved)
        out["strategies.free_accept_share"] = _ratio(
            stats["accepted_without_integration"], retrieved
        )
        out["strategies.integrations_per_op"] = (
            stats["integrations"] / stats["queries"]
        )
        integrations = stats["integrations"]
        out["integrate.candidates"] = integrations
        tiers = stats["tiers"]
        for tier in ("sandwich", "ruben", "imhof"):
            out[f"integrate.{tier}_share"] = _ratio(
                tiers.get(f"cascade-{tier}", 0), integrations
            )
        out["integrate.samples_per_candidate"] = _ratio(
            stats["integration_samples"], integrations
        )
    out["stages.search_s"] = total("stages.search")
    if "stages.search" in spans:
        out["stages.search_self_s"] = spans["stages.search"]["self"]
    out["stages.filter_s"] = total("stages.filter")
    out["stages.integrate_s"] = total("stages.integrate")
    out["integrate.decide_s"] = total("integrate.decide")
    out["gaussian.imhof_s"] = total("gaussian.imhof")
    out["gaussian.imhof_calls"] = calls("gaussian.imhof")

    # kernels
    for kernel in KERNELS:
        out[f"kernels.{kernel}_s"] = total(f"kernels.{kernel}")
        out[f"kernels.{kernel}_calls"] = calls(f"kernels.{kernel}")
    for kernel in ("chi2_sandwich_block", "ruben_block"):
        row = spans.get(f"kernels.{kernel}")
        if row and row["size"]:
            out[f"kernels.{kernel}_ns_per_row"] = (
                row["total"] * 1e9 / row["size"]
            )
    out["kernels.backend"] = 1.0 if backend == "c" else 0.0

    # engine: the plain and the sharded coordinator entry points
    engine_rows = [
        spans[name]
        for name in ("engine.run_batch", "shard.run_batch")
        if name in spans
    ]
    if engine_rows:
        engine_total = sum(r["total"] for r in engine_rows)
        out["engine.run_batch_s"] = engine_total
        out["engine.unattributed_share"] = _ratio(
            sum(r["self"] for r in engine_rows), engine_total
        )
    out["engine.ops"] = measured.ops

    _serve_metrics(out, measured, threads)
    _monitor_metrics(out, measured, total)
    _shard_metrics(out, measured, spans)

    # The tail is reported, not gated: see "Demoted" in the README.
    out["latency.p95_ms"] = _pct_ms(sorted(measured.latencies), 0.95)
    out["latency.samples"] = len(measured.latencies)
    out["latency.samples_beyond_p95"] = samples_beyond(
        len(measured.latencies), 0.95
    )
    span_cost = tracer.per_span_cost()
    out["trace.overhead_share"] = _ratio(
        tracer.span_count() * span_cost, measured.window
    )
    out["trace.unresolved_targets"] = len(tracer.unresolved)
    return out


def _serve_metrics(out, measured, threads: list[list[Span]]) -> None:
    steady = measured.facts.get("steady")
    overload = measured.facts.get("overload")
    if steady is None or overload is None:
        return
    for phase, facts in (("steady", steady), ("overload", overload)):
        out[f"load.{phase}.injected"] = facts["injected"]
        out[f"load.{phase}.offered_qps"] = facts["offered_qps"]
        out[f"load.{phase}.generator_lag_p95_ms"] = (
            percentile(facts["lag"], 0.95) * 1e3
        )
    out["serve.queue_wait_p50_ms"] = _pct_ms(steady["queue_waits"], 0.50)
    out["serve.queue_wait_p95_ms"] = _pct_ms(steady["queue_waits"], 0.95)
    out["serve.latency_p99_ms"] = _pct_ms(steady["latencies"], 0.99)
    out["serve.steady_goodput_qps"] = steady["goodput_qps"]
    out["serve.shed_share"] = (
        overload["statuses"].get("overloaded", 0) / overload["injected"]
    )
    delta = measured.facts["snapshot_delta"]
    queued = delta["submitted"] - delta["cache_hits"] - delta["overloaded"]
    out["serve.batches"] = delta["batches"]
    out["serve.batch_size_mean"] = _ratio(queued, delta["batches"])
    out["serve.cache_hit_ratio"] = _ratio(
        delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
    )
    out["serve.dedup_share"] = _ratio(delta["deduplicated"], queued)
    lo, hi = overload["window"]
    busy = sum(
        min(span.end, hi) - max(span.start, lo)
        for spans in threads
        for span in spans
        if span.name == "engine.run_batch" and span.end > lo and span.start < hi
    )
    out["serve.engine_busy_share"] = busy / (hi - lo)


def _monitor_metrics(out, measured, total) -> None:
    outcomes = measured.facts.get("outcomes")
    if outcomes is None:
        return
    merged: dict = {}
    for tally in outcomes.values():
        for key, value in tally.items():
            merged[key] = merged.get(key, 0) + value
    tallies = {"": merged, ".iso": outcomes["iso"], ".aniso": outcomes["aniso"]}
    for suffix, tally in tallies.items():
        updates = tally["updates"]
        for outcome in ("survived", "reintegrated", "replanned"):
            out[f"monitor.{outcome}_share{suffix}"] = _ratio(
                tally.get(outcome, 0), updates
            )
        out[f"monitor.rechecked_per_update{suffix}"] = _ratio(
            tally["rechecked"], updates
        )
    out["saferegion.classify_s"] = total("saferegion.classify")
    out["saferegion.build_s"] = total("saferegion.build")


def _shard_metrics(out, measured, spans) -> None:
    workers = measured.facts.get("workers")
    pool = spans.get("shard.pool_run")
    if not workers or pool is None:
        return
    run_batch = spans["shard.run_batch"]["total"]
    out["shard.pool_run_s"] = pool["total"]
    out["shard.coordinator_s"] = run_batch - pool["total"]
    out["shard.tasks_per_query"] = pool["size"] / measured.ops
    busy = measured.query_stats.get("phase_seconds", 0.0)
    out["shard.worker_busy_s"] = busy
    out["shard.parallel_efficiency"] = busy / (workers * pool["total"])
