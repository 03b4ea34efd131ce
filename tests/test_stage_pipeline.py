"""The stage pipeline: one driver behind every engine entry point.

Satellite contract for the refactor that removed the duplicated phase
bodies: ``execute``, ``run`` and ``run_batch`` all funnel through
:func:`repro.core.stages.execute_pipeline`, so the same query must
produce the same ``QueryStats`` *structure* (identical phase-timing keys
and identical counters) no matter which entry point ran it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExactIntegrator, Gaussian, SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import (
    FilterStage,
    IntegrateStage,
    StageContext,
    combined_search_rect,
    execute_pipeline,
    phase1_rect,
)
from repro.core.stats import QueryStats
from repro.core.strategies import make_strategies
from repro.errors import QueryError


@pytest.fixture
def db() -> SpatialDatabase:
    rng = np.random.default_rng(17)
    return SpatialDatabase(rng.random((3_000, 2)) * 1000.0)


@pytest.fixture
def query(paper_gaussian) -> ProbabilisticRangeQuery:
    return ProbabilisticRangeQuery(paper_gaussian, 25.0, 0.01)


def test_execute_and_run_produce_identical_stats_structure(db, query):
    """Same query, same engine config → same phase keys and counters."""
    engine = db.engine(strategies="all", integrator=ExactIntegrator())
    single = engine.execute(query)
    batched = engine.run_batch([query], workers=1).results[0]

    assert single.ids == batched.ids
    a, b = single.stats, batched.stats
    assert list(a.phase_seconds.keys()) == list(b.phase_seconds.keys())
    assert a.retrieved == b.retrieved
    assert a.rejected_by_filter == b.rejected_by_filter
    assert a.accepted_without_integration == b.accepted_without_integration
    assert a.integrations == b.integrations
    assert a.results == b.results


@pytest.mark.parametrize("spec", ["rr", "bf", "rr+or", "all"])
def test_phase_keys_are_the_pipeline_stages(db, query, spec):
    engine = db.engine(strategies=spec, integrator=ExactIntegrator())
    stats = engine.execute(query).stats
    assert list(stats.phase_seconds.keys()) == ["search", "filter", "integrate"]


def test_planned_query_adds_plan_phase(db, query):
    engine = db.engine(strategies="auto", integrator=ExactIntegrator())
    stats = engine.execute(query).stats
    assert list(stats.phase_seconds.keys())[0] == "plan"
    assert set(stats.phase_seconds) <= {"plan", "search", "filter", "integrate"}


def test_empty_result_short_circuits_later_stages(db):
    """A BF-proven-empty query never reaches filter or integrate."""
    huge_sigma = Gaussian([500.0, 500.0], 1e8 * np.eye(2))
    query = ProbabilisticRangeQuery(huge_sigma, 1.0, 0.4)
    engine = db.engine(strategies="bf", integrator=ExactIntegrator())
    result = engine.execute(query)
    assert result.ids == ()
    assert result.stats.empty_by_strategy == "BF"
    assert "integrate" not in result.stats.phase_seconds


def test_pipeline_composes_without_search_stage(db, query):
    """Filter+Integrate over externally supplied candidates (monitor path)."""
    strategies = make_strategies("all")
    stats = QueryStats()
    rect = phase1_rect(query, strategies, stats, dim=db.dim)
    ids = db.index.range_search_rect(rect)
    points = np.vstack([db.index.get(i) for i in ids])

    ctx = StageContext(
        query,
        strategies,
        ExactIntegrator(),
        stats,
        candidate_ids=np.asarray(ids),
        points=points,
    )
    manual = execute_pipeline(ctx, [FilterStage(), IntegrateStage()])
    reference = db.engine(
        strategies="all", integrator=ExactIntegrator()
    ).execute(query)
    assert manual == reference.ids


def test_combined_search_rect_policies(db, query):
    """One policy: the intersection of every contributed rectangle, inside
    the paper's Phase-1 rectangle (the first strategy's)."""
    strategies = make_strategies("all")
    for strategy in strategies:
        strategy.prepare(query)
    intersect = combined_search_rect(strategies)
    expected = strategies[0].search_rect()
    for strategy in strategies[1:]:
        expected = expected.intersection(strategy.search_rect())
    assert intersect == expected
    for strategy in strategies:
        assert strategy.search_rect().contains_rect(intersect)
    with pytest.raises(TypeError):
        combined_search_rect(strategies, phase1="primary")


def test_combined_search_rect_requires_a_contributor():
    with pytest.raises(QueryError):
        combined_search_rect([])
