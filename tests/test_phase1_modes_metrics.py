"""Tests for the one Phase-1 policy against the paper's, and tree quality metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments import _CountOnlyIntegrator
from repro.core.database import SpatialDatabase
from repro.core.engine import QueryEngine
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import (
    FilterStage,
    IntegrateStage,
    SearchStage,
    StageContext,
    combined_search_rect,
    phase1_rect,
)
from repro.core.stats import QueryStats
from repro.core.strategies import STRATEGY_COMBINATIONS, make_strategies
from repro.gaussian.distribution import Gaussian
from repro.index.rtree import RStarTree
from repro.integrate.cascade import CascadeIntegrator


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(44)
    points = rng.random((5000, 2)) * 1000
    db = SpatialDatabase(points)
    sigma = 10.0 * np.array([[7.0, 2 * np.sqrt(3)], [2 * np.sqrt(3), 3.0]])
    return db, Gaussian([500.0, 500.0], sigma)


@pytest.fixture(scope="module")
def world_3d():
    rng = np.random.default_rng(45)
    db = SpatialDatabase(rng.random((4000, 3)) * 1000)
    sigma = 160.0 * np.array([[7.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])
    return db, Gaussian([500.0, 500.0, 500.0], sigma)


def _primary_ids(db, strategies, query):
    """Rows the paper's Algorithms 1/2 retrieve: the first strategy's
    rectangle alone."""
    phase1_rect(query, strategies, QueryStats(), dim=db.index.dim)
    return np.asarray(db.index.range_search_rect(strategies[0].search_rect()))


def _phases_2_and_3(db, query, strategies, ids):
    """(integrated ids, free-accepted ids, answer) of Phases 2+3 over ``ids``."""
    ctx = StageContext(
        query,
        strategies,
        CascadeIntegrator(),
        candidate_ids=ids,
        points=db.index.points_of(ids),
    )
    FilterStage().run(ctx)
    # ``ctx.accepted`` is a mask over the rows of ``ids``; Phase 3 sets
    # more of its rows in place, so the free accepts are read first.
    integrated = sorted(ids[ctx.undecided].tolist())
    free = sorted(ids[ctx.accepted].tolist())
    IntegrateStage().run(ctx)
    return integrated, free, sorted(ids[ctx.accepted].tolist())


class TestPhase1Modes:
    """The engine has one Phase 1 — the intersection of every contributed
    rectangle.  The paper's Algorithms 1/2 search the first strategy's
    rectangle only; these tests pin that the two send the same rows to
    Phase 3, so the paper's policy needs no knob of its own."""

    def test_primary_mode_matches_paper_algorithm1(self, world):
        # Algorithm 1: the R-tree is searched with the RR region only; OR
        # and BF act as pure filters.  Its retrieved count equals an
        # RR-only engine's.
        db, gaussian = world
        query = ProbabilisticRangeQuery(gaussian, 25.0, 0.01)
        counting = _CountOnlyIntegrator()
        primary = _primary_ids(db, make_strategies("all"), query)
        rr_only = db.engine(strategies="rr", integrator=counting).execute(query)
        assert primary.size == rr_only.stats.retrieved

    def test_intersect_retrieves_no_more_than_primary(self, world):
        db, gaussian = world
        query = ProbabilisticRangeQuery(gaussian, 25.0, 0.01)
        counting = _CountOnlyIntegrator()
        primary = _primary_ids(db, make_strategies("all"), query)
        intersect = db.engine(strategies="all", integrator=counting).execute(query)
        assert intersect.stats.retrieved <= primary.size

    def test_results_identical_across_modes(self, world, world_3d):
        # An axis-aligned Σ in 2-D: BF's cube then cuts RR's box, so the
        # intersection retrieves strictly less for some combos.
        db_2d = world[0]
        for db, gaussian in (
            (db_2d, Gaussian([500.0, 500.0], np.diag([900.0, 100.0]))),
            world_3d,
        ):
            query = ProbabilisticRangeQuery(gaussian, 25.0, 0.01)
            shrunk = 0
            for spec in STRATEGY_COMBINATIONS:
                strategies = make_strategies(spec)
                primary = _primary_ids(db, strategies, query)
                rect = combined_search_rect(strategies)
                intersect = np.asarray(db.index.range_search_rect(rect))
                assert intersect.size <= primary.size
                shrunk += intersect.size < primary.size
                assert _phases_2_and_3(
                    db, query, strategies, primary
                ) == _phases_2_and_3(db, query, strategies, intersect), spec
            assert shrunk

    def test_invalid_mode_rejected(self, world):
        db, _ = world
        with pytest.raises(TypeError):
            QueryEngine(db.index, make_strategies("all"), phase1="primary")
        with pytest.raises(TypeError):
            db.engine(strategies="all", phase1="primary")
        with pytest.raises(TypeError):
            SearchStage(db.index, phase1="primary")


class TestQualityMetrics:
    def test_metrics_keys_and_ranges(self, rng):
        tree = RStarTree(2, max_entries=16)
        tree.bulk_load(range(2000), rng.random((2000, 2)) * 100)
        metrics = tree.quality_metrics()
        assert set(metrics) == {"avg_fill", "leaf_volume", "leaf_sibling_overlap"}
        assert 0.5 <= metrics["avg_fill"] <= 1.0  # STR packs nearly full
        assert metrics["leaf_volume"] > 0
        assert metrics["leaf_sibling_overlap"] >= 0

    def test_str_packs_fuller_than_dynamic(self, rng):
        pts = rng.random((1500, 2)) * 100
        packed = RStarTree(2, max_entries=16)
        packed.bulk_load(range(1500), pts)
        dynamic = RStarTree(2, max_entries=16)
        for i, p in enumerate(pts):
            dynamic.insert(i, p)
        assert (
            packed.quality_metrics()["avg_fill"]
            > dynamic.quality_metrics()["avg_fill"]
        )

    def test_empty_tree(self):
        metrics = RStarTree(2).quality_metrics()
        assert metrics["avg_fill"] == 1.0
        assert metrics["leaf_volume"] == 0.0
