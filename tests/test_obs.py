"""Observability layer: tracing, metrics, hooks, and the engine wiring.

The contract under test is docs/observability.md: spans and metrics are
deterministic (RNG-free, worker-count independent), attaching a sink
never changes query answers, and the documented span/metric names are
what the pipeline actually emits.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.workload import WorkloadGenerator
from repro.core.database import SpatialDatabase
from repro.errors import ReproError
from repro.integrate.cascade import CascadeIntegrator
from repro.obs import (
    COUNT_BUCKETS,
    NULL_SPAN,
    TIME_BUCKETS,
    CProfileHook,
    MetricsRegistry,
    Observability,
    Tracer,
)


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    rng = np.random.default_rng(42)
    return SpatialDatabase(rng.random((3000, 2)) * 1000.0)


@pytest.fixture(scope="module")
def workload(database):
    return WorkloadGenerator(database, seed=11).batch(10)


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("query", delta=5.0) as q:
            with tracer.span("phase:search") as s:
                s.annotate(retrieved=7)
        spans = {s.name: s for s in tracer.spans}
        assert set(spans) == {"query", "phase:search"}
        assert spans["phase:search"].parent_id == spans["query"].span_id
        assert spans["query"].parent_id is None
        assert spans["query"].attributes == {"delta": 5.0}
        assert spans["phase:search"].attributes == {"retrieved": 7}
        assert spans["query"].wall_seconds >= spans["phase:search"].wall_seconds >= 0

    def test_post_order_buffer(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("a") as h:
            assert tracer.current_span() is h.span
        assert tracer.current_span() is None

    def test_merge_rebases_ids(self):
        parent, child = Tracer(), Tracer()
        with parent.span("query"):
            pass
        with child.span("query"):
            with child.span("phase:filter"):
                pass
        parent.merge(child)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids)) == 3
        by_name = {}
        for s in parent.spans:
            by_name.setdefault(s.name, []).append(s)
        merged_query = by_name["query"][1]
        assert by_name["phase:filter"][0].parent_id == merged_query.span_id

    def test_absorb_reroots_under_parent(self):
        parent = Observability()
        child = parent.child()
        with child.span("query"):
            pass
        handle = parent.span("batch")
        handle.__enter__()
        parent.absorb(child, parent=handle.span)
        handle.__exit__(None, None, None)
        spans = {s.name: s for s in parent.tracer.spans}
        assert spans["query"].parent_id == spans["batch"].span_id

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query", theta=0.1):
            with tracer.span("phase:integrate"):
                pass
        path = tmp_path / "t.jsonl"
        assert tracer.export_jsonl(path) == 2
        loaded = Tracer.load_jsonl(path)
        assert [s.name for s in loaded] == [s.name for s in tracer.spans]
        assert loaded[1].attributes == {"theta": 0.1}
        # Each line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        text = reg.render()
        assert 'repro_things_total{kind="a"} 3' in text
        assert 'repro_things_total{kind="b"} 1' in text
        assert "# TYPE repro_things_total counter" in text

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.gauge("repro_workers", "workers").set(4)
        assert "repro_workers 4" in reg.render()

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render()
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum 5.55" in text

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.histogram("repro_bad", "x", buckets=())
        with pytest.raises(ReproError):
            reg.histogram("repro_bad2", "x", buckets=(1.0, 1.0))
        with pytest.raises(ReproError):
            reg.histogram("repro_bad3", "x", buckets=(2.0, 1.0))

    def test_documented_bucket_edges(self):
        assert TIME_BUCKETS[0] == 1e-4 and TIME_BUCKETS[-1] == 10.0
        assert COUNT_BUCKETS[0] == 0 and COUNT_BUCKETS[-1] == 10_000
        for edges in (TIME_BUCKETS, COUNT_BUCKETS):
            assert list(edges) == sorted(edges)

    def test_merge_adds_counters_and_buckets_keeps_gauge_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 3)):
            reg.counter("repro_q_total", "q").inc(n)
            reg.gauge("repro_w", "w").set(n)
            reg.histogram("repro_h", "h", buckets=(1.0, 2.0)).observe(n)
        a.merge(b)
        text = a.render()
        assert "repro_q_total 5" in text
        assert "repro_w 3" in text
        assert 'repro_h_bucket{le="2"} 1' in text
        assert "repro_h_count 2" in text

    def test_render_is_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_z_total", "z").inc()
            reg.counter("repro_a_total", "a", labelnames=("s",)).inc(s="y")
            reg.counter("repro_a_total", "a", labelnames=("s",)).inc(s="x")
            return reg.render()

        text = build()
        assert text == build()
        assert text.index("repro_a_total") < text.index("repro_z_total")
        assert text.index('s="x"') < text.index('s="y"')


# ---------------------------------------------------------------------------
# Observability facade + hooks


class TestObservability:
    def test_disabled_instruments_are_none(self):
        obs = Observability(trace=False, metrics=False)
        assert obs.tracer is None and obs.metrics is None
        assert obs.span("query") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.annotate(x=1)  # must not raise

    def test_hooks_fire_per_span(self):
        events = []

        class Hook:
            def on_span_start(self, span):
                events.append(("start", span.name))

            def on_span_end(self, span):
                events.append(("end", span.name))

        obs = Observability(hooks=[Hook()])
        with obs.span("query"):
            with obs.span("phase:search"):
                pass
        assert events == [
            ("start", "query"),
            ("start", "phase:search"),
            ("end", "phase:search"),
            ("end", "query"),
        ]

    def test_cprofile_hook_collects_stats(self, database, workload):
        hook = CProfileHook(span_prefix="phase:integrate")
        obs = Observability(hooks=[hook])
        engine = database.engine(
            strategies="rr", integrator=CascadeIntegrator(), obs=obs
        )
        engine.run_batch(workload, workers=1)
        stats = hook.stats()
        assert stats is not None and stats.total_calls > 0


# ---------------------------------------------------------------------------
# Engine wiring


class TestEngineSpans:
    def test_query_span_tree_covers_all_phases(self, database, workload):
        obs = Observability()
        engine = database.engine(
            strategies="auto", integrator=CascadeIntegrator(), obs=obs
        )
        engine.execute(workload[0])
        spans = {s.name: s for s in obs.tracer.spans}
        query = spans["query"]
        for phase in ("phase:plan", "phase:search", "phase:filter", "phase:integrate"):
            assert phase in spans, f"missing {phase} span"
            assert spans[phase].parent_id == query.span_id
        assert {"delta", "theta", "retrieved", "integrations", "results"} <= set(
            query.attributes
        )
        assert spans["phase:plan"].attributes == {"strategies": "RR+BF+OR"}

    def test_cascade_tier_spans_nest_under_integrate(self, database):
        gen = WorkloadGenerator(database, seed=3)
        query = gen.batch(1)[0]
        obs = Observability()
        engine = database.engine(
            strategies="rr", integrator=CascadeIntegrator(), obs=obs
        )
        result = engine.execute(query)
        spans = {s.name: s for s in obs.tracer.spans}
        if result.stats.integrations == 0:
            pytest.skip("query decided without Phase 3")
        assert "tier:sandwich" in spans
        assert spans["tier:sandwich"].parent_id == spans["phase:integrate"].span_id
        assert spans["tier:sandwich"].attributes["candidates"] > 0

    def test_integrator_obs_is_cleared_after_query(self, database, workload):
        obs = Observability()
        integrator = CascadeIntegrator()
        engine = database.engine(strategies="rr", integrator=integrator, obs=obs)
        engine.execute(workload[0])
        assert integrator.obs is None

    def test_metrics_cover_pipeline_and_planner(self, database, workload):
        obs = Observability()
        engine = database.engine(
            strategies="auto", integrator=CascadeIntegrator(), obs=obs
        )
        engine.run_batch(workload, workers=2)
        text = obs.render_metrics()
        for name in (
            "repro_queries_total 10",
            "repro_batches_total 1",
            f"repro_batch_queries_total {len(workload)}",
            "repro_batch_workers 2",
            "repro_query_seconds_count 10",
            'repro_phase_seconds_count{phase="search"} 10',
            'repro_phase_seconds_count{phase="integrate"} 10',
            'repro_phase_seconds_count{phase="plan"} 10',
            "repro_retrieved_candidates_count 10",
            "repro_phase3_candidates_count 10",
            "repro_retrieved_total",
            "repro_results_total",
        ):
            assert name in text, f"metric line missing: {name}"
        # The rule keeps no cache and predicts nothing: its one metric is
        # the plan phase's time above.
        assert "repro_planner_" not in text

    def test_answers_identical_with_obs_on_and_off(self, database, workload):
        plain = database.engine(strategies="all")
        observed = database.engine(strategies="all", obs=Observability())
        for query in workload[:4]:
            a, b = plain.execute(query), observed.execute(query)
            assert list(a.ids) == list(b.ids)
            assert a.stats.retrieved == b.stats.retrieved
            assert a.stats.integrations == b.stats.integrations


class TestBatchDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_identical_results_obs_on_vs_off(
        self, database, workload, workers
    ):
        plain = database.engine(strategies="auto")
        base = plain.run_batch(workload, workers=workers, base_seed=17)
        obs = Observability()
        observed_engine = database.engine(strategies="auto", obs=obs)
        observed = observed_engine.run_batch(workload, workers=workers, base_seed=17)
        assert [list(r.ids) for r in base.results] == [
            list(r.ids) for r in observed.results
        ]
        assert [
            (r.stats.retrieved, r.stats.integrations, r.stats.results)
            for r in base.results
        ] == [
            (r.stats.retrieved, r.stats.integrations, r.stats.results)
            for r in observed.results
        ]

    def test_trace_and_counts_independent_of_worker_count(self, database, workload):
        def run(workers):
            obs = Observability()
            engine = database.engine(
                strategies="auto", integrator=CascadeIntegrator(), obs=obs
            )
            engine.run_batch(workload, workers=workers, base_seed=17)
            skeleton = [
                (s.name, s.span_id, s.parent_id, sorted(s.attributes))
                for s in obs.tracer.spans
            ]
            counts = "\n".join(
                line
                for line in obs.render_metrics().splitlines()
                if "_seconds" not in line
                and "cache" not in line
                and "workers" not in line
            )
            return skeleton, counts

        one = run(1)
        for workers in (2, 4):
            assert run(workers) == one

    def test_batch_span_is_root_of_query_spans(self, database, workload):
        obs = Observability()
        engine = database.engine(strategies="rr", obs=obs)
        engine.run_batch(workload[:3], workers=2)
        spans = obs.tracer.spans
        batch = [s for s in spans if s.name == "batch"]
        assert len(batch) == 1
        assert batch[0].attributes == {"queries": 3, "workers": 2}
        queries = [s for s in spans if s.name == "query"]
        assert len(queries) == 3
        assert all(q.parent_id == batch[0].span_id for q in queries)
