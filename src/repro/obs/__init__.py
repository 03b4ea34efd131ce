"""repro.obs — zero-dependency observability for the query pipeline.

One :class:`Observability` object bundles the three instruments and is
accepted by every execution entry point (``QueryEngine(..., obs=…)``,
``SpatialDatabase.engine(obs=…)``, ``run_workload(obs=…)``, the CLI's
``--trace-out``/``--metrics-out`` flags):

- :class:`Tracer` — hierarchical spans (batch → query → phase →
  integrator tier) with wall/CPU time and counter payloads, exported as
  JSON-lines and rendered by ``repro trace``;
- :class:`MetricsRegistry` — deterministic counters, gauges and
  fixed-bucket histograms with a Prometheus-style text exposition;
- :class:`ProfilingHook` — a start/end callback protocol
  (:class:`CProfileHook` ships as the reference implementation) for
  attaching profilers or custom sinks without patching engine code.

The full telemetry contract — every span name, metric name, label and
bucket edge — is documented in ``docs/observability.md``.  Everything here
is off by default and RNG-free: enabling observability never changes
query results (``run_batch`` output is bit-identical with tracing on or
off, for any worker count).

Example — trace one query and read the metrics::

    >>> import numpy as np
    >>> from repro import (
    ...     SpatialDatabase, Gaussian, ProbabilisticRangeQuery, ExactIntegrator,
    ... )
    >>> from repro.obs import Observability
    >>> points = np.random.default_rng(0).random((400, 2)) * 100
    >>> db = SpatialDatabase(points)
    >>> obs = Observability()
    >>> engine = db.engine(strategies="all",
    ...                    integrator=ExactIntegrator(), obs=obs)
    >>> result = engine.execute(ProbabilisticRangeQuery(
    ...     Gaussian([50.0, 50.0], 20.0 * np.eye(2)), 10.0, 0.05))
    >>> sorted({s.name for s in obs.tracer.spans if "phase" in s.name})
    ['phase:filter', 'phase:integrate', 'phase:search']
    >>> obs.metrics.get_sample("repro_queries_total")
    1.0
    >>> obs.metrics.histogram(
    ...     "repro_phase3_candidates", buckets=COUNT_BUCKETS
    ... ).count() == 1
    True
"""

from __future__ import annotations

from repro.obs.hooks import CProfileHook, ProfilingHook
from repro.obs.metrics import (
    COUNT_BUCKETS,
    QUEUE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ProfilingHook",
    "CProfileHook",
    "TIME_BUCKETS",
    "COUNT_BUCKETS",
    "QUEUE_BUCKETS",
    "NULL_SPAN",
    "span_of",
]


class _NullSpan:
    """No-op stand-in returned by :meth:`Observability.span` when tracing
    is disabled, so instrumented code never branches twice."""

    __slots__ = ()

    #: Mirrors the real handle's ``.span`` payload (used as an absorb
    #: re-rooting parent); always ``None`` when tracing is off.
    span = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attributes) -> None:
        return None


NULL_SPAN = _NullSpan()


def span_of(obs: "Observability | None", name: str, **attributes):
    """``obs.span(name, ...)``, or the no-op handle when ``obs`` is
    ``None`` — so instrumented code is a plain ``with`` either way."""
    return NULL_SPAN if obs is None else obs.span(name, **attributes)


class Observability:
    """Tracer + metrics registry + hooks, threaded through the engine.

    Parameters
    ----------
    trace:
        Record spans (default on).  ``obs.tracer`` is ``None`` when off.
    metrics:
        Record metrics (default on).  ``obs.metrics`` is ``None`` when
        off.
    hooks:
        :class:`ProfilingHook` objects notified on every span start/end
        (implies nothing about ``trace``: hooks ride on the tracer, so
        they only fire when tracing is on).
    """

    def __init__(
        self,
        *,
        trace: bool = True,
        metrics: bool = True,
        hooks=(),
    ):
        self._trace = bool(trace)
        self._metrics_on = bool(metrics)
        self.hooks = list(hooks)
        self.tracer: Tracer | None = (
            Tracer(hooks=self.hooks) if self._trace else None
        )
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if self._metrics_on else None
        )

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **attributes):
        """Open a span (a no-op handle when tracing is off)."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, **attributes)

    # -- batch plumbing ------------------------------------------------

    def child(self) -> "Observability":
        """A same-configuration instance with empty buffers.

        ``run_batch`` gives each query its own child so workers never
        contend on shared buffers; children are folded back with
        :meth:`absorb` in input order.
        """
        return Observability(
            trace=self._trace, metrics=self._metrics_on, hooks=self.hooks
        )

    def absorb(self, child: "Observability", *, parent: Span | None = None) -> None:
        """Merge a child's spans and metrics into this instance.

        ``parent`` re-roots the child's top-level spans under an open
        span of this tracer (the batch span), keeping one connected tree.
        """
        if self.tracer is not None and child.tracer is not None:
            before = len(self.tracer._spans)
            self.tracer.merge(child.tracer)
            if parent is not None:
                with self.tracer._lock:
                    for span in self.tracer._spans[before:]:
                        if span.parent_id is None:
                            span.parent_id = parent.span_id
        if self.metrics is not None and child.metrics is not None:
            self.metrics.merge(child.metrics)

    # -- the metrics contract ------------------------------------------

    def record_query(self, stats) -> None:
        """Fold one finished query's :class:`repro.core.stats.QueryStats`
        into the registry — the single place the per-query metric names
        of the telemetry contract (``docs/observability.md``) are fed.
        """
        registry = self.metrics
        if registry is None:
            return
        registry.counter(
            "repro_queries_total", "Queries executed"
        ).inc()
        registry.counter(
            "repro_retrieved_total", "Phase-1 candidates retrieved"
        ).inc(stats.retrieved)
        registry.counter(
            "repro_results_total", "Qualifying objects returned"
        ).inc(stats.results)
        registry.counter(
            "repro_accept_free_total",
            "Candidates accepted without integration (BF inner ball)",
        ).inc(stats.accepted_without_integration)
        registry.counter(
            "repro_integration_samples_total",
            "Monte Carlo samples drawn in Phase 3",
        ).inc(stats.integration_samples)
        rejections = registry.counter(
            "repro_filter_rejections_total",
            "Phase-2 rejections by strategy",
            labelnames=("strategy",),
        )
        for strategy, count in stats.rejected_by_filter.items():
            rejections.inc(count, strategy=strategy)
        decisions = registry.counter(
            "repro_phase3_decisions_total",
            "Phase-3 theta-decisions by evaluator method",
            labelnames=("method",),
        )
        for method, count in stats.tier_decisions.items():
            decisions.inc(count, method=method)
        if stats.empty_by_strategy is not None:
            registry.counter(
                "repro_empty_results_total",
                "Queries proven empty before Phase 1",
                labelnames=("strategy",),
            ).inc(strategy=stats.empty_by_strategy)
        registry.histogram(
            "repro_query_seconds",
            "End-to-end query latency",
            buckets=TIME_BUCKETS,
        ).observe(stats.total_seconds)
        phase_hist = registry.histogram(
            "repro_phase_seconds",
            "Per-phase wall time",
            buckets=TIME_BUCKETS,
            labelnames=("phase",),
        )
        for phase, seconds in stats.phase_seconds.items():
            phase_hist.observe(seconds, phase=phase)
        registry.histogram(
            "repro_retrieved_candidates",
            "Phase-1 candidates per query",
            buckets=COUNT_BUCKETS,
        ).observe(stats.retrieved)
        registry.histogram(
            "repro_phase3_candidates",
            "Candidates reaching Phase 3 per query",
            buckets=COUNT_BUCKETS,
        ).observe(stats.integrations)

    def record_batch(self, batch_stats) -> None:
        """Fold one :class:`repro.core.stats.BatchStats` into the registry."""
        registry = self.metrics
        if registry is None:
            return
        registry.counter(
            "repro_batches_total", "run_batch invocations"
        ).inc()
        registry.counter(
            "repro_batch_queries_total", "Queries executed via run_batch"
        ).inc(batch_stats.n_queries)
        registry.gauge(
            "repro_batch_workers", "Worker threads of the largest batch"
        ).set(batch_stats.workers)
        registry.histogram(
            "repro_batch_wall_seconds",
            "End-to-end batch wall time",
            buckets=TIME_BUCKETS,
        ).observe(batch_stats.wall_seconds)

    # -- exporting -----------------------------------------------------

    def export_trace(self, path) -> int:
        """Write the JSON-lines trace; returns the span count."""
        if self.tracer is None:
            raise ValueError("tracing is disabled on this Observability")
        return self.tracer.export_jsonl(path)

    def render_metrics(self) -> str:
        """The Prometheus-style text exposition."""
        if self.metrics is None:
            raise ValueError("metrics are disabled on this Observability")
        return self.metrics.render()
