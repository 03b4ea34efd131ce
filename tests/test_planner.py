"""Cost-based query planner: correctness, caching, determinism, explain."""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro import (
    ExactIntegrator,
    Gaussian,
    ImportanceSamplingIntegrator,
    QueryPlanner,
    SpatialDatabase,
)
from repro.core import planner as planner_module
from repro.core.planner import DEFAULT_COMBOS, PlanChoice
from repro.core.query import ProbabilisticRangeQuery
from repro.errors import QueryError


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
        queries.append(
            ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
        )
    return queries


class TestPlannedResults:
    def test_auto_matches_fixed_results_exactly(self):
        """Planning changes *which* sound filters run, never the answer.

        With the exact integrator the result set is integrator-noise-free,
        so auto must agree bit-for-bit with every fixed combination.
        """
        db = make_database()
        auto = db.engine(strategies="auto", integrator=ExactIntegrator())
        fixed = db.engine(strategies="all", integrator=ExactIntegrator())
        for query in make_queries(db):
            assert auto.execute(query).ids == fixed.execute(query).ids

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
        assert result.stats.plan_strategies is not None

    def test_stats_record_plan_fields(self):
        db = make_database()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        stats = engine.execute(make_queries(db, count=1)[0]).stats
        assert stats.plan_strategies is not None
        assert all(isinstance(name, str) for name in stats.plan_strategies)
        assert not hasattr(stats, "plan_phase1")
        assert stats.plan_cache_hit in (True, False)
        assert isinstance(stats.predicted_integrations, float)
        assert stats.predicted_seconds > 0.0
        assert "plan" in stats.phase_seconds

    def test_batch_stats_roll_up_planner_counters(self):
        db = make_database()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        queries = make_queries(db, count=4)
        batch = engine.run_batch(queries + queries, workers=1)
        assert batch.stats.planned_queries == 8
        # The second copy of each query shape must hit the plan cache.
        assert batch.stats.plan_cache_hits >= 4
        assert batch.stats.predicted_integrations >= 0.0


class TestPlanCache:
    def test_repeat_shape_hits_cache(self, eigh_calls):
        db = make_database()
        planner = db.planner()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        eigh_calls.clear()
        query = make_queries(db, count=1)[0]
        first = engine.execute(query).stats
        # A miss decomposes the query's Σ and the canonical query's; the
        # what-if prepares and the real ones share those two.
        assert len(eigh_calls) == 2
        second = engine.execute(query).stats
        assert len(eigh_calls) == 2
        assert first.plan_cache_hit is False
        assert second.plan_cache_hit is True
        info = planner.cache_info()
        assert info["hits"] >= 1
        assert info["misses"] >= 1
        assert 0 < info["currsize"] <= info["maxsize"]

    def test_same_shape_different_center_shares_plan(self):
        """Plans depend only on the quantized (Σ-spectrum, δ, θ) shape."""
        db = make_database()
        planner = db.planner()
        sigma = 10.0 * np.array([[7.0, 3.4], [3.4, 3.0]])
        integrator = ExactIntegrator()
        a = planner.plan(
            ProbabilisticRangeQuery(Gaussian([100.0, 900.0], sigma), 25.0, 0.01),
            integrator,
        )
        b = planner.plan(
            ProbabilisticRangeQuery(Gaussian([800.0, 50.0], sigma), 25.0, 0.01),
            integrator,
        )
        assert a.key == b.key
        assert b.cache_hit is True
        assert a.chosen == b.chosen

    def test_lru_eviction_respects_cache_size(self, monkeypatch):
        monkeypatch.setattr(planner_module, "CACHE_SIZE", 2)
        db = make_database()
        planner = db.planner()
        integrator = ExactIntegrator()
        for delta in (10.0, 20.0, 40.0):
            planner.plan(
                ProbabilisticRangeQuery(
                    Gaussian([500.0, 500.0], 50.0 * np.eye(2)), delta, 0.05
                ),
                integrator,
            )
        assert planner.cache_info()["currsize"] == 2
        planner.clear_cache()
        assert planner.cache_info()["currsize"] == 0

    def test_cold_and_warm_cache_identical_results(self):
        """A warm plan cache may be faster, never different."""
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
        db = make_database()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        plan = engine.explain(make_queries(db, count=1)[0])
        assert plan.planned is True
        assert plan.comparison, "planner must attach the scored plans"
        costs = [choice.predicted_seconds for choice in plan.comparison]
        assert costs == sorted(costs)
        assert plan.predicted_seconds == costs[0]
        text = plan.render()
        assert "chosen by cost-based planner" in text
        assert "plans considered" in text
        assert "plan: strategies=" in text

    def test_fixed_explain_has_no_comparison(self):
        db = make_database()
        engine = db.engine(strategies="rr+or", integrator=ExactIntegrator())
        plan = engine.explain(make_queries(db, count=1)[0])
        assert plan.planned is False
        assert plan.comparison == ()

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
    def test_cost_model_drives_choice(self, monkeypatch):
        """An absurd BF prepare cost must push the planner off BF plans."""
        monkeypatch.setitem(planner_module.PREPARE_SECONDS, "BF", 1e6)
        db = make_database()
        planner = db.planner()
        decision = planner.plan(
            make_queries(db, count=1)[0], ExactIntegrator()
        )
        assert "BF" not in decision.chosen.strategy_names

    def test_custom_combo_menu(self, monkeypatch):
        monkeypatch.setattr(planner_module, "DEFAULT_COMBOS", ("rr", "rr+or"))
        db = make_database()
        planner = db.planner()
        decision = planner.plan(
            make_queries(db, count=1)[0], ExactIntegrator()
        )
        assert decision.chosen.strategies in ("rr", "rr+or")
        assert [c.strategies for c in decision.considered] in (
            ["rr", "rr+or"],
            ["rr+or", "rr"],
        )

    def test_one_plan_scored_per_combo(self):
        """Only the ``"intersect"`` plan of each combo can win, so it is
        the only one scored: |considered| = |combos|, each combo once."""
        db = make_database()
        planner = db.planner()
        for query in make_queries(db):
            decision = planner.plan(query, ExactIntegrator())
            assert len(decision.considered) == len(DEFAULT_COMBOS)
            assert sorted(c.strategies for c in decision.considered) == sorted(
                DEFAULT_COMBOS
            )

    def test_planned_engine_retrieves_what_intersect_retrieves(self):
        """A planned engine runs the chosen combo over the intersected
        Phase-1 rectangle, the same one a fixed engine of that combo
        searches; there is no other Phase-1 policy to ask for."""
        db = make_database()
        auto = db.engine(strategies="auto", integrator=ExactIntegrator())
        for query in make_queries(db):
            planned = auto.execute(query)
            combo = db.planner().plan(query, ExactIntegrator()).chosen
            fixed = db.engine(
                strategies=combo.strategies, integrator=ExactIntegrator()
            ).execute(query)
            assert planned.stats.retrieved == fixed.stats.retrieved
            assert planned.ids == fixed.ids
        with pytest.raises(TypeError):
            db.engine(strategies="auto", phase1="primary")

    def test_default_combo_menu_is_the_papers(self):
        assert DEFAULT_COMBOS == ("rr", "bf", "rr+bf", "rr+or", "bf+or", "all")

    def test_validation_errors(self):
        with pytest.raises(QueryError):
            QueryPlanner(np.empty((0, 2)))
        with pytest.raises(QueryError):
            QueryPlanner(np.arange(4.0))
        points = np.random.default_rng(0).random((10, 2))
        # One configuration: the removed knobs are not accepted at all.
        for knob in (
            {"phase1_modes": ("primary",)},
            {"integrators": ()},
            {"bins_per_efold": 4},
            {"n_samples": 4_000},
            {"rtheta_lookup": None},
            {"bf_lookup": None},
            {"fringe_filter": "exact"},
            {"targets": None},
        ):
            with pytest.raises(TypeError):
                QueryPlanner(points, **knob)
        assert list(inspect.signature(QueryPlanner.__init__).parameters) == [
            "self",
            "points",
        ]

    def test_uniform_fallback_without_estimator(self):
        """Above d=3 no histogram exists; plans still come out sane."""
        rng = np.random.default_rng(2)
        db = SpatialDatabase(rng.random((2_000, 4)) * 100.0)
        planner = db.planner()
        query = ProbabilisticRangeQuery(
            Gaussian(np.full(4, 50.0), 25.0 * np.eye(4)), 10.0, 0.01
        )
        decision = planner.plan(query, ExactIntegrator())
        assert isinstance(decision.chosen, PlanChoice)
        assert decision.chosen.predicted_seconds > 0.0

    def test_constant_column_plans_consistently(self):
        """Zero-volume bounds (a constant column above d = 3): the one
        uniform density ignores the flat axis in both of its queries, so
        predictions stay ordered and a small query no longer reads as
        "retrieves everything"."""
        rng = np.random.default_rng(4)
        points = rng.random((2_000, 4)) * 100.0
        points[:, 2] = 7.0
        db = SpatialDatabase(points)
        total = len(db)
        planner = db.planner()
        for delta, theta in ((5.0, 0.05), (10.0, 0.01), (400.0, 0.01)):
            query = ProbabilisticRangeQuery(
                Gaussian(np.full(4, 50.0), 25.0 * np.eye(4)), delta, theta
            )
            decision = planner.plan(query, ExactIntegrator())
            for choice in decision.considered:
                assert (
                    0.0
                    <= choice.predicted_candidates
                    <= choice.predicted_retrieved
                    <= total
                )
        small = planner.plan(
            ProbabilisticRangeQuery(
                Gaussian(np.full(4, 50.0), 25.0 * np.eye(4)), 5.0, 0.05
            ),
            ExactIntegrator(),
        )
        assert 0.0 < small.chosen.predicted_retrieved < 0.5 * total

    def test_plan_choice_fields(self):
        db = make_database()
        decision = db.planner().plan(
            make_queries(db, count=1)[0], ExactIntegrator()
        )
        chosen = decision.chosen
        assert chosen.strategies in DEFAULT_COMBOS
        assert [f.name for f in dataclasses.fields(chosen)] == [
            "strategies",
            "strategy_names",
            "predicted_retrieved",
            "predicted_candidates",
            "predicted_seconds",
        ]
        assert chosen.predicted_retrieved >= 0.0
        assert chosen.predicted_candidates >= 0.0


class TestPlanCacheThreadSafety:
    def test_concurrent_planning_no_duplicates_and_warm_parity(self):
        """Hammer one planner from many threads: the LRU must end up with
        exactly one entry per distinct shape, and every plan must be
        bit-identical to the cold single-threaded decision."""
        from concurrent.futures import ThreadPoolExecutor

        db = make_database()
        shapes = make_queries(db, count=8, seed=41)
        integrator = ExactIntegrator()

        cold_planner = QueryPlanner(db.points)
        cold = {
            id(q): cold_planner.plan(q, integrator).chosen for q in shapes
        }
        distinct_keys = {
            cold_planner._cache_key(q, integrator) for q in shapes
        }

        planner = QueryPlanner(db.points)
        workload = [shapes[i % len(shapes)] for i in range(160)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            decisions = list(
                pool.map(lambda q: (q, planner.plan(q, integrator)), workload)
            )

        info = planner.cache_info()
        assert info["currsize"] == len(distinct_keys), "duplicate cache entries"
        assert info["hits"] + info["misses"] == len(workload)
        assert info["hits"] >= len(workload) - 8 * len(distinct_keys)
        for query, decision in decisions:
            assert decision.chosen == cold[id(query)], (
                "warm/concurrent plan diverged from cold plan"
            )
            assert decision.key in distinct_keys

    def test_quantized_shape_key_helper_matches_cache_key(self):
        """The shared quantization helper is exactly the plan-cache key
        minus the integrator suffix (the serve result cache relies on
        this alignment)."""
        from repro.core.planner import (
            SHAPE_BINS_PER_EFOLD,
            quantize_log,
            quantized_shape_key,
        )

        db = make_database()
        planner = db.planner()
        integrator = ExactIntegrator()
        for query in make_queries(db, count=4, seed=7):
            key = planner._cache_key(query, integrator)
            assert key[:-1] == quantized_shape_key(query)
            assert key[-1] == integrator.name
        # One shape-bin constant: a quarter e-fold per bin, shared by the
        # plan key and the serve result-cache key.
        assert SHAPE_BINS_PER_EFOLD == 4
        assert quantize_log(np.e) == SHAPE_BINS_PER_EFOLD
        assert quantize_log(1.0) == 0
        assert quantize_log(0.0) == quantize_log(1e-300)
