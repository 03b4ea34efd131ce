"""Continuous monitoring for moving imprecise query objects.

The paper's motivating applications (robot localization, moving-object
monitoring) issue a *stream* of probabilistic range queries from nearby
locations with slowly drifting covariances.  Re-running Phase 1 from
scratch each epoch wastes index work: consecutive search regions overlap
almost entirely.

``MonitoringSession`` caches a candidate superset: the first query
retrieves an *expanded* rectangle (the current search region scaled by a
margin) and keeps its ids and points; every subsequent query whose search
rectangle still fits inside the cached rectangle is answered from the
cache with one vectorised containment test — zero index accesses, results
provably identical to a fresh query because the cache is a superset of
the new Phase-1 region.  When the object drifts out, the cache is rebuilt
around the new region.
"""

from __future__ import annotations

import numpy as np

from repro.core.database import SpatialDatabase
from repro.core.engine import QueryEngine, QueryResult
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stats import QueryStats
from repro.core.strategies import Strategy, make_strategies
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.geometry.mbr import Rect
from repro.integrate.base import ProbabilityIntegrator

__all__ = ["MonitoringSession"]


class _Cache:
    __slots__ = ("rect", "ids", "points")

    def __init__(self, rect: Rect, ids: list[int], points: np.ndarray):
        self.rect = rect
        self.ids = ids
        self.points = points


class MonitoringSession:
    """A reusable query session with candidate caching for moving queries.

    Parameters
    ----------
    database:
        The target objects.  The cache assumes the database is not mutated
        during the session; call :meth:`invalidate` after updates.
    strategies, integrator:
        Engine configuration, as in
        :meth:`repro.core.database.SpatialDatabase.engine`.
    margin:
        Relative enlargement of the cached rectangle (0.5 = each side 50 %
        longer than the current search region).  Larger margins survive
        longer drifts but hold more cached candidates.
    """

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        strategies: str | list[Strategy] = "all",
        integrator: ProbabilityIntegrator | None = None,
        margin: float = 0.5,
    ):
        if margin < 0:
            raise QueryError(f"margin must be >= 0, got {margin}")
        strategy_list = (
            make_strategies(strategies)
            if isinstance(strategies, str)
            else list(strategies)
        )
        self._database = database
        self._engine = QueryEngine(database.index, strategy_list, integrator)
        self.margin = float(margin)
        self._cache: _Cache | None = None
        self.cache_hits = 0
        self.cache_misses = 0

    def invalidate(self) -> None:
        """Drop the cached candidates (call after database updates)."""
        self._cache = None

    def query(
        self, gaussian: Gaussian, delta: float, theta: float
    ) -> QueryResult:
        """Execute PRQ(gaussian, delta, theta), reusing cached candidates."""
        query = ProbabilisticRangeQuery(gaussian, delta, theta)
        stats = QueryStats()
        with stats.time_phase("search"):
            rect = self._engine.prepare_search(query, stats)
            if rect is None:
                return QueryResult((), stats)
            cache = self._cache
            if cache is not None and cache.rect.contains_rect(rect):
                stats.cache_hit = True
                self.cache_hits += 1
                if cache.ids:
                    mask = rect.contains_points(cache.points)
                    slots = np.nonzero(mask)[0]
                    candidate_ids = [cache.ids[i] for i in slots]
                    points = cache.points[slots]
                else:
                    candidate_ids, points = [], np.empty((0, query.dim))
            else:
                self.cache_misses += 1
                expanded = Rect.from_center(
                    rect.center, (rect.extents / 2.0) * (1.0 + self.margin)
                )
                index = self._database.index
                cached_ids = index.range_search_rect(expanded)
                cached_points = index.points_of(cached_ids)
                self._cache = _Cache(expanded, cached_ids, cached_points)
                if cached_ids:
                    mask = rect.contains_points(cached_points)
                    slots = np.nonzero(mask)[0]
                    candidate_ids = [cached_ids[i] for i in slots]
                    points = cached_points[slots]
                else:
                    candidate_ids, points = [], np.empty((0, query.dim))
            stats.retrieved = len(candidate_ids)
        if not candidate_ids:
            return QueryResult((), stats)
        return self._engine.filter_and_integrate(query, candidate_ids, points, stats)
