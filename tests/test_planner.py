"""The ``auto`` rule: ALL for range-shaped legs, the kind plan for k-NN."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    CascadeIntegrator,
    ExactIntegrator,
    Gaussian,
    GaussianMixture,
    ImportanceSamplingIntegrator,
    KNNQuery,
    MixtureRangeQuery,
    QueryPlanner,
    QuasiMonteCarloIntegrator,
    SpatialDatabase,
    TargetCovarianceTable,
    UncertainTargetQuery,
)
from repro.core import planner as planner_module
from repro.core.engine import QueryEngine, QueryPlan
from repro.core.kinds import query_legs
from repro.core.planner import ALL_PLAN, KNN_PLAN, PlanChoice
from repro.core.query import ProbabilisticRangeQuery
from repro.core.strategies import (
    BoundingFunctionStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
    make_strategies,
)
from repro.errors import QueryError

EVERYTHING = ("RR", "BF", "OR")


def make_database(n: int = 4_000, seed: int = 5) -> SpatialDatabase:
    """Clustered 2-D points in [0, 1000]^2 — realistic planner terrain."""
    rng = np.random.default_rng(seed)
    clusters = []
    for center in ((250.0, 300.0), (700.0, 650.0), (500.0, 500.0)):
        clusters.append(center + rng.standard_normal((n // 4, 2)) * 60.0)
    clusters.append(rng.random((n - 3 * (n // 4), 2)) * 1000.0)
    points = np.clip(np.vstack(clusters), 0.0, 1000.0)
    return SpatialDatabase(points)


def make_queries(db: SpatialDatabase, count: int = 6, seed: int = 9):
    rng = np.random.default_rng(seed)
    root3 = np.sqrt(3.0)
    queries = []
    for _ in range(count):
        gamma = float(rng.choice([1.0, 10.0, 100.0]))
        sigma = gamma * np.array([[7.0, 2 * root3], [2 * root3, 3.0]])
        center = db.point(int(rng.integers(len(db))))
        delta = float(rng.choice([15.0, 30.0]))
        theta = float(rng.choice([0.01, 0.1]))
        queries.append(ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta))
    return queries


def counters(stats) -> tuple:
    """The work counters of one query's stats (timings excluded)."""
    return (
        stats.retrieved,
        stats.rejected_by_filter,
        stats.accepted_without_integration,
        stats.integrations,
        stats.tier_decisions,
        stats.results,
    )


class TestPlannedResults:
    def test_auto_matches_fixed_results_exactly(self):
        """``auto`` is ALL: same answers and same work as a fixed ``all``
        engine, query by query."""
        db = make_database()
        auto = db.engine(strategies="auto", integrator=ExactIntegrator())
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        for query in make_queries(db):
            planned, reference = auto.execute(query), fixed.execute(query)
            assert planned.ids == reference.ids
            assert counters(planned.stats) == counters(reference.stats)

    def test_probabilistic_range_query_accepts_auto(self):
        db = make_database()
        query = make_queries(db, count=1)[0]
        result = db.probabilistic_range_query(
            query.gaussian,
            query.delta,
            query.theta,
            strategies="auto",
            integrator=ExactIntegrator(),
        )
        reference = db.probabilistic_range_query(
            query.gaussian,
            query.delta,
            query.theta,
            strategies="all",
            integrator=ExactIntegrator(),
        )
        assert result.ids == reference.ids
        assert result.stats.plan_strategies == EVERYTHING

    def test_stats_record_plan_fields(self):
        db = make_database()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        stats = engine.execute(make_queries(db, count=1)[0]).stats
        assert stats.plan_strategies == EVERYTHING
        assert stats.plan_cache_hit is None
        for gone in ("plan_phase1", "predicted_integrations", "predicted_seconds"):
            assert not hasattr(stats, gone)
        assert "plan" in stats.phase_seconds

    def test_batch_stats_roll_up_planner_counters(self):
        db = make_database()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        queries = make_queries(db, count=4)
        batch = engine.run_batch(queries + queries, workers=1)
        assert batch.stats.planned_queries == 8
        assert not hasattr(batch.stats, "plan_cache_hits")
        assert not hasattr(batch.stats, "predicted_integrations")


class TestPlanCache:
    def test_repeat_shape_hits_cache(self, eigh_calls):
        """Planning decomposes nothing: an ``auto`` query costs the Σ
        decompositions of a fixed ``all`` one, first time and every time."""
        db = make_database()
        sigma = 10.0 * np.array([[7.0, 3.4], [3.4, 3.0]])
        counts = {}
        for spec in ("all", "auto", "auto"):
            engine = db.engine(strategies=spec, integrator=ExactIntegrator())
            eigh_calls.clear()
            query = ProbabilisticRangeQuery(Gaussian([500.0, 500.0], sigma), 25.0, 0.01)
            stats = engine.execute(query).stats
            counts.setdefault(spec, []).append(len(eigh_calls))
            assert stats.plan_cache_hit is None
        assert counts["auto"] == 2 * counts["all"]

    def test_same_shape_different_center_shares_plan(self):
        """Every range-shaped query shares the one plan, whatever its
        centre or shape."""
        planner = make_database().planner()
        integrator = ExactIntegrator()
        for center in ([100.0, 900.0], [800.0, 50.0]):
            for scale, delta, theta in ((1.0, 5.0, 0.9), (900.0, 400.0, 1e-6)):
                gaussian = Gaussian(center, scale * np.eye(2))
                query = ProbabilisticRangeQuery(gaussian, delta, theta)
                assert planner.plan(query, integrator) is ALL_PLAN

    def test_lru_eviction_respects_cache_size(self):
        """Planning 1 000 distinct shapes leaves the planner's state
        unchanged: there is no cache to grow or evict."""
        db = make_database()
        planner = db.planner()
        before = dict(vars(planner))
        integrator = ExactIntegrator()
        for i in range(1_000):
            query = ProbabilisticRangeQuery(
                Gaussian([500.0, 500.0], (1.0 + i) * np.eye(2)),
                1.0 + i,
                0.5 / (1.0 + i),
            )
            assert planner.plan(query, integrator) is ALL_PLAN
        assert vars(planner) == before == {}
        for gone in ("cache_info", "clear_cache", "publish_metrics"):
            assert not hasattr(planner, gone)

    def test_cold_and_warm_cache_identical_results(self):
        """A repeated batch is never different."""
        db = make_database()
        queries = make_queries(db, count=5)
        engine = db.engine(
            strategies="auto",
            integrator=ImportanceSamplingIntegrator(4_000, seed=3),
        )
        cold = engine.run_batch(queries, workers=1, base_seed=0)
        warm = engine.run_batch(queries, workers=1, base_seed=0)
        assert cold.ids == warm.ids

    def test_run_batch_worker_count_identity_with_planner(self):
        db = make_database()
        queries = make_queries(db, count=8)
        engine = db.engine(
            strategies="auto",
            integrator=ImportanceSamplingIntegrator(4_000, seed=3),
        )
        reference = engine.run_batch(queries, workers=1, base_seed=7)
        for workers in (2, 4):
            batch = engine.run_batch(queries, workers=workers, base_seed=7)
            assert batch.ids == reference.ids


class TestExplain:
    def test_planned_explain_renders_comparison_table(self):
        """An ``auto`` explain renders exactly the ``all`` explain: there
        is no plan comparison to show."""
        db = make_database()
        query = make_queries(db, count=1)[0]
        auto = db.engine(strategies="auto", integrator=ExactIntegrator())
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        plan = auto.explain(query)
        assert plan.strategies == EVERYTHING
        assert plan.render() == fixed.explain(query).render()
        assert "plan: strategies=RR+BF+OR" in plan.render()

    def test_fixed_explain_has_no_comparison(self):
        db = make_database()
        engine = db.engine(strategies="rr+or", integrator=ExactIntegrator())
        plan = engine.explain(make_queries(db, count=1)[0])
        assert plan.strategies == ("RR", "OR")
        assert [f.name for f in dataclasses.fields(QueryPlan)] == [
            "strategies",
            "descriptions",
            "search_rect",
            "proves_empty",
            "predicted_candidates",
            "alpha_upper",
            "alpha_lower",
        ]

    def test_summary_includes_bf_radii_when_bf_active(self):
        """Satellite: QueryPlan.summary() must expose BF's α∥/α⊥ radii."""
        db = make_database()
        engine = db.engine(strategies="rr+bf", integrator=ExactIntegrator())
        query = ProbabilisticRangeQuery(
            Gaussian([500.0, 500.0], 50.0 * np.eye(2)), 25.0, 0.05
        )
        plan = engine.explain(query)
        assert "BF" in plan.strategies
        assert plan.alpha_upper is not None
        summary = plan.summary()
        assert f"alpha_par={plan.alpha_upper:.3f}" in summary
        assert "alpha_perp=" in summary

    def test_summary_omits_bf_radii_without_bf(self):
        db = make_database()
        engine = db.engine(strategies="rr+or", integrator=ExactIntegrator())
        summary = engine.explain(make_queries(db, count=1)[0]).summary()
        assert "alpha_par" not in summary
        assert "alpha_perp" not in summary


class TestPlannerConfig:
    def test_cost_model_drives_choice(self):
        """No cost model: no integrator changes the plan, and neither the
        planner nor the integrators carry cost figures."""
        planner = QueryPlanner()
        query = make_queries(make_database(), count=1)[0]
        for integrator in (
            ExactIntegrator(),
            CascadeIntegrator(),
            ImportanceSamplingIntegrator(100_000, seed=0),
            QuasiMonteCarloIntegrator(4_096, seed=0),
        ):
            assert planner.plan(query, integrator) is ALL_PLAN
            assert not hasattr(integrator, "cost_per_candidate")
        for gone in (
            "PLAN_SAMPLES",
            "SEARCH_BASE",
            "SEARCH_PER_OBJECT",
            "PREPARE_SECONDS",
            "CLASSIFY_SECONDS",
            "CACHE_SIZE",
            "DEFAULT_COMBOS",
            "PlanDecision",
        ):
            assert not hasattr(planner_module, gone)

    def test_custom_combo_menu(self):
        """An ``auto`` engine over another base list still runs ALL: the
        plan, not the base list, names the strategies."""
        db = make_database()
        engine = QueryEngine(
            db.index,
            make_strategies("rr"),
            ExactIntegrator(),
            planner=QueryPlanner(),
        )
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        for query in make_queries(db, count=3):
            planned, reference = engine.execute(query), fixed.execute(query)
            assert planned.stats.plan_strategies == EVERYTHING
            assert planned.ids == reference.ids
            assert counters(planned.stats) == counters(reference.stats)

    def test_one_plan_scored_per_combo(self, monkeypatch):
        """Planning prepares no strategy: it is a constant-time rule."""
        prepared = []
        for cls in (RectilinearStrategy, ObliqueStrategy, BoundingFunctionStrategy):
            monkeypatch.setattr(cls, "prepare", lambda s, q: prepared.append(s))
        db = make_database()
        planner = db.planner()
        for query in make_queries(db):
            assert planner.plan(query, ExactIntegrator()) is ALL_PLAN
        assert prepared == []

    def test_planned_engine_retrieves_what_intersect_retrieves(self):
        """A planned engine runs the plan's combo over the intersected
        Phase-1 rectangle, the same one a fixed engine of that combo
        searches; there is no other Phase-1 policy to ask for."""
        db = make_database()
        auto = db.engine(strategies="auto", integrator=ExactIntegrator())
        for query in make_queries(db):
            planned = auto.execute(query)
            combo = db.planner().plan(query, ExactIntegrator())
            fixed = db.engine(
                strategies=combo.strategies, integrator=ExactIntegrator()
            ).execute(query)
            assert planned.stats.retrieved == fixed.stats.retrieved
            assert planned.ids == fixed.ids
        with pytest.raises(TypeError):
            db.engine(strategies="auto", phase1="primary")

    def test_default_combo_menu_is_the_papers(self):
        """The ``auto`` plan is the paper's ALL (RR+BF+OR)."""
        assert ALL_PLAN == PlanChoice("all", EVERYTHING)
        assert tuple(s.name for s in make_strategies("all")) == EVERYTHING
        assert KNN_PLAN == PlanChoice("knn", ("KNN",))

    def test_validation_errors(self):
        """The planner takes no arguments: nothing is left to build."""
        points = np.random.default_rng(0).random((10, 2))
        with pytest.raises(TypeError):
            QueryPlanner(points)
        for knob in (
            {"phase1_modes": ("primary",)},
            {"bins_per_efold": 4},
            {"n_samples": 4_000},
            {"cache_size": 2},
            {"targets": None},
        ):
            with pytest.raises(TypeError):
                QueryPlanner(**knob)

    def test_uniform_fallback_without_estimator(self):
        """Above d = 3 the plan is ALL too, and runs as a fixed ``all``."""
        rng = np.random.default_rng(2)
        db = SpatialDatabase(rng.random((2_000, 4)) * 100.0)
        query = ProbabilisticRangeQuery(
            Gaussian(np.full(4, 50.0), 25.0 * np.eye(4)), 10.0, 0.01
        )
        assert db.planner().plan(query, ExactIntegrator()) is ALL_PLAN
        planned = db.engine(strategies="auto", integrator=ExactIntegrator())
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        a, b = planned.execute(query), fixed.execute(query)
        assert a.ids == b.ids
        assert counters(a.stats) == counters(b.stats)

    def test_constant_column_plans_consistently(self):
        """Zero-volume bounds (a constant column above d = 3) need no
        special case: the rule reads no data, and the answers are a fixed
        ``all`` engine's."""
        rng = np.random.default_rng(4)
        points = rng.random((2_000, 4)) * 100.0
        points[:, 2] = 7.0
        db = SpatialDatabase(points)
        planned = db.engine(strategies="auto", integrator=ExactIntegrator())
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        for delta, theta in ((5.0, 0.05), (10.0, 0.01), (400.0, 0.01)):
            query = ProbabilisticRangeQuery(
                Gaussian(np.full(4, 50.0), 25.0 * np.eye(4)), delta, theta
            )
            a, b = planned.execute(query), fixed.execute(query)
            assert a.stats.plan_strategies == EVERYTHING
            assert a.ids == b.ids
            assert counters(a.stats) == counters(b.stats)

    def test_plan_choice_fields(self):
        db = make_database()
        chosen = db.planner().plan(make_queries(db, count=1)[0], ExactIntegrator())
        assert chosen.strategies == "all"
        assert [f.name for f in dataclasses.fields(chosen)] == [
            "strategies",
            "strategy_names",
        ]


class TestPlanCacheThreadSafety:
    def test_concurrent_planning_no_duplicates_and_warm_parity(self):
        """Hammer one planner from many threads: every plan is the one
        constant, and the planner still holds no state."""
        db = make_database()
        shapes = make_queries(db, count=8, seed=41)
        integrator = ExactIntegrator()
        planner = QueryPlanner()
        workload = [shapes[i % len(shapes)] for i in range(160)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(lambda q: planner.plan(q, integrator), workload))
        assert all(plan is ALL_PLAN for plan in plans)
        assert vars(planner) == {}

    def test_quantized_shape_key_helper_matches_cache_key(self):
        """The serving result cache keys on the request fingerprint alone:
        no quantized shape key is left, in the cache or the planner."""
        import repro.serve.cache as cache_module
        from repro.serve.request import PRQRequest

        db = make_database()
        cache = cache_module.ResultCache(4)
        requests = [
            PRQRequest.from_query(query)
            for query in make_queries(db, count=4, seed=7)
        ]
        for slot, request in enumerate(requests):
            cache.put(request, (slot,))
        assert list(cache._entries) == list(
            dict.fromkeys(request.fingerprint for request in requests)
        )
        for name in ("quantized_shape_key", "quantize_log", "SHAPE_BINS_PER_EFOLD"):
            assert not hasattr(cache_module, name)
            assert not hasattr(planner_module, name)
        assert not hasattr(cache, "distinct_shapes")


def two_group_database(n: int = 600) -> SpatialDatabase:
    """2-D points whose objects split over two target covariances."""
    points = make_database(n, seed=8).points
    ids = np.arange(n)
    table = TargetCovarianceTable(
        {int(i): int(i) % 2 for i in ids},
        [40.0 * np.eye(2), np.array([[300.0, 80.0], [80.0, 120.0]])],
    )
    return SpatialDatabase(points, ids=ids, target_table=table)


def kinded_queries(db: SpatialDatabase) -> list:
    """Exact PRQs, two-group uncertain queries and mixtures."""
    queries = []
    for query in make_queries(db, count=4, seed=3):
        gaussian = Gaussian(query.gaussian.mean, query.gaussian.sigma * 20.0)
        queries.append(query)
        queries.append(UncertainTargetQuery(gaussian, 40.0, query.theta))
        mixture = GaussianMixture(
            [gaussian, Gaussian(gaussian.mean + 60.0, gaussian.sigma)],
            weights=[0.7, 0.3],
        )
        queries.append(MixtureRangeQuery.create(mixture, 40.0, query.theta))
    return queries


class TestAutoIsAll:
    """``auto`` and ``all`` engines agree on ids and on every counter."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_run_batch_matches_all(self, workers):
        db = two_group_database()
        queries = kinded_queries(db)
        batches = {}
        for spec in ("auto", "all"):
            engine = db.engine(strategies=spec, integrator=CascadeIntegrator())
            batches[spec] = engine.run_batch(queries, workers=workers, base_seed=4)
        assert len(query_legs(queries[1], db.targets)) == 2
        for auto, fixed in zip(batches["auto"], batches["all"]):
            assert auto.ids == fixed.ids
            assert counters(auto.stats) == counters(fixed.stats)
            assert auto.stats.plan_strategies == EVERYTHING
            assert fixed.stats.plan_strategies is None
        assert sum(r.stats.integrations for r in batches["all"]) > 0

    def test_sharded_engine_matches_all(self):
        db = two_group_database()
        queries = kinded_queries(db)
        batches = {}
        with db.shard(2) as sdb:
            for spec in ("auto", "all"):
                engine = sdb.engine(strategies=spec, integrator=CascadeIntegrator())
                batches[spec] = engine.run_batch(queries, base_seed=4)
        for a, b in zip(batches["auto"], batches["all"]):
            assert a.ids == b.ids
            assert counters(a.stats) == counters(b.stats)
            assert a.stats.plan_strategies == EVERYTHING

    def test_knn_keeps_its_kind_plan(self):
        db = make_database(n=400)
        query = KNNQuery.create(
            Gaussian([500.0, 500.0], 900.0 * np.eye(2)),
            k=2,
            theta=0.1,
            n_samples=300,
            seed=1,
        )
        assert db.planner().plan(query, ExactIntegrator()) is KNN_PLAN
        auto = db.engine(strategies="auto", integrator=ExactIntegrator())
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        result = auto.execute(query)
        assert result.stats.plan_strategies == ("KNN",)
        assert result.ids == fixed.execute(query).ids


class TestEveryEntryRunsThePlan:
    """``QueryEngine.legs`` is the one place a query becomes runnable
    legs: every entry point prepares fresh clones of the plan's
    strategies, never the engine's own objects and never its base list
    when the plan differs."""

    BF_ONLY = PlanChoice("bf", ("BF",))

    @pytest.fixture
    def prepared(self, monkeypatch):
        """Plan every leg as BF alone; record each in-process prepare."""
        names: list[str] = []

        def counting(prepare):
            def counted(strategy, query):
                names.append(strategy.name)
                return prepare(strategy, query)

            return counted

        for cls in (RectilinearStrategy, ObliqueStrategy, BoundingFunctionStrategy):
            monkeypatch.setattr(cls, "prepare", counting(cls.prepare))
        monkeypatch.setattr(
            QueryPlanner, "plan", lambda planner, query, integrator: self.BF_ONLY
        )
        return names

    @staticmethod
    def query(db) -> ProbabilisticRangeQuery:
        return make_queries(db, count=1)[0]

    def test_execute_and_explain_leave_the_engine_unprepared(self):
        db = make_database(n=800)
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        query = self.query(db)
        engine.execute(query)
        engine.explain(query)
        for strategy in engine.strategies:
            with pytest.raises(QueryError, match="used before prepare"):
                strategy.search_rect()

    @pytest.mark.parametrize("entry", ["run_batch", "execute", "explain"])
    def test_engine_entries_prepare_the_plan(self, prepared, entry):
        db = make_database(n=800)
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        query = self.query(db)
        if entry == "run_batch":
            result = engine.run_batch([query]).results[0]
            assert result.stats.plan_strategies == ("BF",)
        else:
            getattr(engine, entry)(query)
        assert prepared == ["BF"]

    def test_sharded_coordinator_prepares_the_plan(self, prepared):
        db = make_database(n=800)
        query = self.query(db)
        with db.shard(2) as sdb:
            engine = sdb.engine(strategies="auto", integrator=CascadeIntegrator())
            result = engine.run_batch([query]).results[0]
        assert result.stats.plan_strategies == ("BF",)
        assert prepared == ["BF"]

    def test_subscription_anchor_prepares_the_plan(self, prepared):
        from repro.serve.monitor import SubscriptionManager

        db = make_database(n=800)
        engine = db.engine(strategies="auto", integrator=CascadeIntegrator())
        query = self.query(db)
        response = SubscriptionManager(db, engine).subscribe(
            query.gaussian, query.delta, query.theta
        )
        assert response.ok
        assert prepared == ["BF"]

    def test_degraded_path_prepares_the_plan(self, prepared):
        from repro.serve.degrade import degraded_execute

        db = make_database(n=800)
        engine = db.engine(strategies="auto", integrator=CascadeIntegrator())
        _, _, stats = degraded_execute(engine, self.query(db))
        assert stats.plan_strategies == ("BF",)
        assert prepared == ["BF"]
