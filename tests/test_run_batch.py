"""Batched execution: parity, determinism, and the block classify contract.

``run_batch`` seeds every query's integrator from its position in the
batch, so the same workload must come out bit-identical whether it runs
on 1, 2 or 4 workers — and identical to the sequential ``run``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workload import WorkloadGenerator, run_workload
from repro.core.database import SpatialDatabase
from repro.core.engine import BatchResult, QueryResult
from repro.core.query import ProbabilisticRangeQuery
from repro.core.kinds import (
    TargetGroupStrategy,
    KNNCutStrategy,
    MixtureFilterStrategy,
)
from repro.core.stats import QueryStats
from repro.core.strategies import (
    BoundingFunctionStrategy,
    EllipsoidStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
    Strategy,
)
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.integrate.importance import ImportanceSamplingIntegrator


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    rng = np.random.default_rng(99)
    return SpatialDatabase(rng.random((4000, 2)) * 1000.0)


@pytest.fixture(scope="module")
def workload(database) -> list[ProbabilisticRangeQuery]:
    return WorkloadGenerator(database, seed=5).batch(12)


def batch_counts(batch: BatchResult) -> tuple:
    s = batch.stats
    return (
        s.retrieved,
        s.accepted_without_integration,
        s.integrations,
        s.results,
        dict(s.rejected_by_filter),
    )


def test_run_batch_matches_sequential_run(database, workload):
    engine = database.engine()
    sequential = engine.run_batch(workload, workers=1, base_seed=17)
    for workers in (1, 2, 4):
        batch = engine.run_batch(workload, workers=workers, base_seed=17)
        assert batch.ids == sequential.ids, f"ids diverged at workers={workers}"
        assert batch_counts(batch) == batch_counts(sequential)
        assert batch.stats.workers == workers
        assert batch.stats.n_queries == len(workload)


def test_run_batch_with_adaptive_factory(database, workload):
    engine = database.engine()
    factory = lambda q, seed: ImportanceSamplingIntegrator(  # noqa: E731
        20_000, seed=seed, share_samples=True
    )
    sequential = engine.run_batch(
        workload, workers=1, base_seed=3, integrator_factory=factory
    )
    for workers in (2, 4):
        batch = engine.run_batch(
            workload, workers=workers, base_seed=3, integrator_factory=factory
        )
        assert batch.ids == sequential.ids
        # Same forked seeds => identical adaptive stopping points.
        assert batch.stats.integration_samples == (
            sequential.stats.integration_samples
        )


def test_run_workload_workers_parity(database, workload):
    seq = run_workload(database, workload, workers=1)
    par = run_workload(database, workload, workers=4)
    assert seq.answers == par.answers
    assert seq.integrations == par.integrations
    assert par.workers == 4 and par.wall_seconds is not None


def test_run_batch_rejects_bad_workers(database, workload):
    engine = database.engine()
    with pytest.raises(QueryError):
        engine.run_batch(workload, workers=0)


def test_run_batch_empty_batch(database):
    batch = database.engine().run_batch([])
    assert len(batch) == 0 and batch.stats.n_queries == 0


def test_batch_result_container_protocol(database, workload):
    batch = database.engine().run_batch(workload[:3], workers=2)
    assert len(batch) == 3
    assert [r for r in batch] == list(batch.results)
    assert batch[1] is batch.results[1]
    assert batch.ids == tuple(r.ids for r in batch.results)


class BlockStrategy(Strategy):
    """A third-party strategy written against the one block contract:
    ``prepare`` stores the Phase-1 rectangle, ``classify`` takes the whole
    ``(n, d)`` block and returns one int8 code per row."""

    name = "RRblock"

    def __init__(self):
        self._inner = RectilinearStrategy()
        self.blocks: list[int] = []

    def clone(self):
        # The base shallow copy would share the mutable ``_inner`` across
        # per-query clones — exactly the case the Strategy.clone docstring
        # says requires an override.
        return BlockStrategy()

    def prepare(self, query) -> None:
        self._inner.prepare(query)
        self._rect = self._inner.search_rect()

    def classify(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.blocks.append(pts.shape[0])
        return self._inner.classify(pts)


def test_classify_many_scalar_fallback(database):
    """``classify`` is the one block entry: a custom strategy's block call
    answers like the built-in, and no strategy carries a second name."""
    query = ProbabilisticRangeQuery(
        Gaussian([500.0, 500.0], 100.0 * np.eye(2)), 25.0, 0.05
    )
    custom = BlockStrategy()
    builtin = RectilinearStrategy()
    custom.prepare(query)
    builtin.prepare(query)
    rng = np.random.default_rng(1)
    points = 400.0 + 200.0 * rng.random((50, 2))
    codes = custom.classify(points)
    assert codes.dtype == np.int8 and custom.blocks == [50]
    np.testing.assert_array_equal(codes, builtin.classify(points))
    assert custom.classify(np.empty((0, 2))).size == 0
    for cls in (
        Strategy,
        RectilinearStrategy,
        ObliqueStrategy,
        BoundingFunctionStrategy,
        EllipsoidStrategy,
        TargetGroupStrategy,
        MixtureFilterStrategy,
        KNNCutStrategy,
    ):
        assert not hasattr(cls, "classify_many"), cls.__name__


def test_engine_accepts_scalar_only_strategy(database):
    """A custom block strategy runs end to end through ``run_batch`` with
    the built-in strategy's answer."""
    queries = WorkloadGenerator(database, seed=8).batch(3)
    reference = database.engine(strategies="rr").run_batch(
        queries, workers=1, base_seed=5
    )
    engine = database.engine(strategies=[BlockStrategy()])
    batch = engine.run_batch(queries, workers=2, base_seed=5)
    assert batch.ids == reference.ids
    # Same counts; only the filter's name in ``rejected_by_filter`` differs.
    assert batch_counts(batch)[:4] == batch_counts(reference)[:4]


def test_query_result_contains_uses_cached_set():
    result = QueryResult((3, 7, 11), QueryStats())
    assert 7 in result and 8 not in result
    assert result._id_set is result._id_set  # memoized, not rebuilt per check
    assert isinstance(result._id_set, frozenset)


class FaultyIntegrator(ImportanceSamplingIntegrator):
    """Raises on queries whose θ matches a poison value."""

    name = "faulty"

    def __init__(self, poison_theta: float, seed=None):
        super().__init__(5_000, seed=seed)
        self.poison_theta = poison_theta

    def fork(self, seed):
        return FaultyIntegrator(self.poison_theta, seed=seed)

    def decide(self, gaussian, points, delta, theta):
        if getattr(self, "_armed", False):
            raise RuntimeError("integrator blew up")
        return super().decide(gaussian, points, delta, theta)


class _ArmingFactory:
    """Arms the FaultyIntegrator only for the poisoned query."""

    def __init__(self, poison_theta: float):
        self.poison_theta = poison_theta

    def __call__(self, query, seed):
        integrator = FaultyIntegrator(self.poison_theta, seed=seed)
        integrator._armed = query.theta == self.poison_theta
        return integrator


def _poisoned_workload(database):
    """A workload whose middle query carries a recognisably unique θ."""
    queries = list(WorkloadGenerator(database, seed=21).batch(8))
    victim = queries[4]
    poisoned = ProbabilisticRangeQuery(
        victim.gaussian, victim.delta, 0.123456789
    )
    queries[4] = poisoned
    return queries, poisoned.theta


def test_run_batch_return_errors_isolates_failure(database):
    """A query whose integrator raises fails alone, with a typed error,
    identically for every worker count — and the batch still completes."""
    queries, poison = _poisoned_workload(database)
    engine = database.engine()
    reference = None
    for workers in (1, 2, 4):
        batch = engine.run_batch(
            queries,
            workers=workers,
            base_seed=11,
            integrator_factory=_ArmingFactory(poison),
            return_errors=True,
        )
        assert len(batch) == len(queries)
        assert batch.stats.failed == 1
        failed = [i for i, r in enumerate(batch.results) if r.failed]
        assert failed == [4]
        assert isinstance(batch[4].error, QueryError)
        assert "RuntimeError" in str(batch[4].error)
        assert isinstance(batch[4].error.__cause__, RuntimeError)
        assert batch[4].ids == ()
        healthy = tuple(r.ids for i, r in enumerate(batch.results) if i != 4)
        assert all(r.error is None for i, r in enumerate(batch.results) if i != 4)
        if reference is None:
            reference = healthy
        else:
            assert healthy == reference, f"results drifted at workers={workers}"


def test_run_batch_failure_raises_typed_error_by_default(database):
    queries, poison = _poisoned_workload(database)
    engine = database.engine()
    with pytest.raises(QueryError, match="RuntimeError"):
        engine.run_batch(
            queries,
            workers=4,
            integrator_factory=_ArmingFactory(poison),
        )


def test_run_batch_pool_survives_failures(database):
    """The engine stays healthy after a failing batch: the next batch on
    the same instance is complete and bit-identical to a fresh engine."""
    queries, poison = _poisoned_workload(database)
    engine = database.engine()
    engine.run_batch(
        queries,
        workers=4,
        base_seed=2,
        integrator_factory=_ArmingFactory(poison),
        return_errors=True,
    )
    clean = WorkloadGenerator(database, seed=33).batch(6)
    after = engine.run_batch(clean, workers=4, base_seed=7)
    fresh = database.engine().run_batch(clean, workers=4, base_seed=7)
    assert after.ids == fresh.ids
    assert after.stats.failed == 0


def test_run_batch_keeps_library_errors_untyped_wrapped(database):
    """A ReproError raised inside execution propagates as-is (no
    double-wrapping)."""
    queries, poison = _poisoned_workload(database)

    class TypedFaultFactory(_ArmingFactory):
        def __call__(self, query, seed):
            integrator = super().__call__(query, seed)
            if integrator._armed:
                class Typed(FaultyIntegrator):
                    def decide(self, g, p, d, t):
                        raise QueryError("already typed")
                typed = Typed(self.poison_theta, seed=seed)
                typed._armed = True
                return typed
            return integrator

    batch = database.engine().run_batch(
        queries,
        workers=2,
        integrator_factory=TypedFaultFactory(poison),
        return_errors=True,
    )
    assert str(batch[4].error) == "already typed"
    assert type(batch[4].error) is not QueryError or batch[4].error.args == (
        "already typed",
    )


def test_strategy_clone_isolates_prepared_state(database):
    template = RectilinearStrategy()
    q1 = ProbabilisticRangeQuery(
        Gaussian([100.0, 100.0], 50.0 * np.eye(2)), 10.0, 0.1
    )
    q2 = ProbabilisticRangeQuery(
        Gaussian([900.0, 900.0], 50.0 * np.eye(2)), 10.0, 0.1
    )
    a, b = template.clone(), template.clone()
    a.prepare(q1)
    b.prepare(q2)
    assert a.region.core.center[0] != b.region.core.center[0]
    with pytest.raises(QueryError):
        template.region  # the template itself stays unprepared
