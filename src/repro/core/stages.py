"""Composable execution stages behind the three-phase engine.

The paper's query processor is one fixed Search → Filter → Integrate
sequence; this module turns each phase into a stage object so the engine
(and anything else, such as ``explain``) can compose,
reorder or skip phases without duplicating the phase bodies.  A stage
consumes and mutates one :class:`StageContext`;
:func:`execute_pipeline` is the single shared driver that
``QueryEngine.execute``, ``run`` and ``run_batch`` all funnel through,
which is what guarantees the two paths can never drift apart.

Every stage times itself under its ``phase`` label, so the
``QueryStats.phase_seconds`` structure is identical no matter which entry
point built the pipeline.

The stages hand over rows, not ids.  :class:`SearchStage` stores the one
index search's :class:`~repro.index.base.SearchHits` as the candidate
``ids`` / ``points`` arrays; :class:`FilterStage` and
:class:`IntegrateStage` set rows of one boolean ``accepted`` mask over
them; :meth:`StageContext.answer` sorts the accepted ids as one array and
makes them Python ints only for the returned tuple.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stats import QueryStats
from repro.core.strategies import ACCEPT, REJECT, Strategy
from repro.errors import QueryError
from repro.geometry.mbr import Rect
from repro.index.base import SpatialIndex
from repro.integrate.base import ProbabilityIntegrator
from repro.obs import Observability

__all__ = [
    "StageContext",
    "Stage",
    "phase1_rect",
    "reject_only_candidates",
    "SearchStage",
    "FilterStage",
    "IntegrateStage",
    "execute_pipeline",
]


@dataclass
class StageContext:
    """Mutable per-execution state handed from stage to stage.

    ``candidate_ids``/``points`` are the candidate rows, row-aligned;
    they may be pre-populated (the subscription manager re-decides cached
    rows instead of running a :class:`SearchStage`).  ``finished``
    short-circuits the remaining stages (set when a strategy proves the
    result empty or Phase 1 retrieves nothing).
    """

    query: ProbabilisticRangeQuery
    strategies: list[Strategy]
    integrator: ProbabilityIntegrator
    stats: QueryStats = field(default_factory=QueryStats)
    candidate_ids: np.ndarray | None = None
    points: np.ndarray | None = None
    #: Boolean mask over the candidate rows accepted into the result (BF
    #: free accepts, then Phase-3 accepts); ``None`` before Phase 2.
    accepted: np.ndarray | None = None
    #: Boolean mask over the candidate rows still undecided.
    undecided: np.ndarray | None = None
    finished: bool = False
    #: Optional observability sink: when set, :func:`execute_pipeline`
    #: wraps every stage in a ``phase:<name>`` span and the integrator
    #: may emit tier spans beneath it.  Never affects results.
    obs: Observability | None = None

    def accept_mask(self) -> np.ndarray:
        """:attr:`accepted`, made all-False on first use."""
        if self.accepted is None:
            self.accepted = np.zeros(self.candidate_ids.size, dtype=bool)
        return self.accepted

    def answer(self) -> tuple[int, ...]:
        """The accepted ids, sorted; Python ints only from here on."""
        if self.accepted is None:
            return ()
        return tuple(np.sort(self.candidate_ids[self.accepted]).tolist())


class Stage(abc.ABC):
    """One phase of the pipeline; mutates the context in place."""

    #: Timing bucket in ``QueryStats.phase_seconds``.
    phase: str = "abstract"

    @abc.abstractmethod
    def run(self, ctx: StageContext) -> None:
        """Execute this phase against ``ctx``."""


def phase1_rect(
    query: ProbabilisticRangeQuery,
    strategies: list[Strategy],
    stats: QueryStats,
    *,
    dim: int,
) -> Rect | None:
    """Prepare every strategy and return the combined Phase-1 rectangle.

    ``dim`` is the dimensionality of the indexed points — all this step
    needs of the index, so a shard coordinator can route without one.
    Returns ``None`` when some strategy proved the result empty (the
    reason lands in ``stats.empty_by_strategy``).
    """
    if query.dim != dim:
        raise QueryError(
            f"query dimension {query.dim} does not match index "
            f"dimension {dim}"
        )
    for strategy in strategies:
        strategy.prepare(query)
    for strategy in strategies:
        if strategy.proves_empty:
            stats.empty_by_strategy = strategy.name
            return None
    rect = combined_search_rect(strategies)
    if rect is None:
        stats.empty_by_strategy = "intersection"
    return rect


def reject_only_candidates(
    index: SpatialIndex,
    query: ProbabilisticRangeQuery,
    strategies: list[Strategy],
) -> tuple[np.ndarray, np.ndarray]:
    """Phases 1+2 keeping every candidate no strategy REJECTs.

    Returns the surviving ``(ids, points)``.  BF free accepts are *not*
    honoured — an accepted candidate stays a survivor — so callers that
    need an actual probability per object (ranking, a θ sweep evaluated
    at the smallest θ) get one for every object the filters cannot rule
    out.
    """
    rect = phase1_rect(query, strategies, QueryStats(), dim=index.dim)
    if rect is None:
        return np.empty(0, dtype=np.int64), np.empty((0, index.dim))
    hits = index.range_search_rect(rect)
    ids, points = hits.ids, hits.points
    keep = np.ones(ids.size, dtype=bool)
    for strategy in strategies:
        if not keep.any():
            break
        codes = strategy.classify(points[keep])
        keep[np.nonzero(keep)[0][codes == REJECT]] = False
    return ids[keep], points[keep]


class SearchStage(Stage):
    """Phase 1: prepare the strategies and run one index range search
    over the intersection of their rectangles (:func:`combined_search_rect`).

    The search's :class:`~repro.index.base.SearchHits` become the
    candidate rows as they are: ids and points, gathered once.
    """

    phase = "search"

    def __init__(self, index: SpatialIndex):
        self.index = index

    def run(self, ctx: StageContext) -> None:
        rect = phase1_rect(ctx.query, ctx.strategies, ctx.stats, dim=self.index.dim)
        if rect is None:
            ctx.finished = True
            return
        hits = self.index.range_search_rect(rect)
        ctx.stats.retrieved = len(hits)
        if not ctx.stats.retrieved:
            ctx.finished = True
            return
        ctx.candidate_ids, ctx.points = hits.ids, hits.points


class FilterStage(Stage):
    """Phase 2: classify candidates with every strategy.

    A single REJECT drops a candidate; a single ACCEPT (only BF issues
    these) sets its row in ``ctx.accepted`` without integration;
    survivors stay in ``ctx.undecided`` for Phase 3.
    """

    phase = "filter"

    def run(self, ctx: StageContext) -> None:
        ids, points = ctx.candidate_ids, ctx.points
        assert ids is not None and points is not None
        accepted = np.zeros(ids.size, dtype=bool)
        live = np.arange(ids.size)  # the undecided rows, ascending
        for strategy in ctx.strategies:
            if not live.size:
                break
            if live.size == ids.size:  # nothing decided yet: no gather
                codes = strategy.classify_candidates(ids, points)
            else:
                codes = strategy.classify_candidates(ids[live], points[live])
            rejected = codes == REJECT
            accept = codes == ACCEPT
            ctx.stats.note_rejections(strategy.name, int(np.count_nonzero(rejected)))
            accepted[live[accept]] = True
            live = live[~(rejected | accept)]
        ctx.accepted = accepted
        ctx.stats.accepted_without_integration = int(np.count_nonzero(accepted))
        ctx.undecided = np.zeros(ids.size, dtype=bool)
        ctx.undecided[live] = True


class IntegrateStage(Stage):
    """Phase 3: θ-decide every still-undecided candidate.

    Decision-aware: the integrator only has to settle p ≥ θ per
    candidate, so bound-based backends (the cascade) can decide most of
    the block without ever computing a full probability, and
    ``ImportanceSamplingIntegrator.decide`` settles rows by sandwich
    bounds before drawing the rest on a staged budget.  The base-class
    ``decide()`` is ``qualification_probabilities`` + the ``estimate ≥ θ``
    rule, which the other sampling integrators keep.
    """

    phase = "integrate"

    def run(self, ctx: StageContext) -> None:
        ids_arr = ctx.candidate_ids
        assert ids_arr is not None and ctx.points is not None
        undecided = (
            ctx.undecided
            if ctx.undecided is not None
            else np.ones(ids_arr.size, dtype=bool)
        )
        to_integrate = np.nonzero(undecided)[0]
        ctx.stats.integrations = int(to_integrate.size)
        if not to_integrate.size:
            return
        query = ctx.query
        if ctx.obs is not None:
            # Hand the sink to the integrator for the duration of the
            # call so tier-aware backends (the cascade) can emit
            # ``tier:*`` child spans under this phase's span.
            ctx.integrator.obs = ctx.obs
        try:
            accept, tally, samples = ctx.integrator.decide_candidates(
                query.gaussian,
                ids_arr[to_integrate],
                ctx.points[to_integrate],
                query.delta,
                query.theta,
            )
        finally:
            if ctx.obs is not None:
                ctx.integrator.obs = None
        ctx.stats.integration_samples += samples
        for method, count in tally.items():
            ctx.stats.note_decision(method, count)
        ctx.accept_mask()[to_integrate[accept]] = True


def combined_search_rect(strategies: list[Strategy]) -> Rect | None:
    """The intersection of every contributed rectangle; ``None`` if empty.

    The paper's Algorithms 1/2 search with the first strategy's rectangle
    only.  Intersecting sends the same rows to Phase 3: every built-in
    filter REJECTs everything outside its own rectangle, so a row outside
    the intersection never survives Phase 2 — only ``retrieved`` and
    ``rejected_by_filter`` shrink.

    Raises :class:`QueryError` when no strategy contributes a rectangle.
    """
    rect: Rect | None = None
    for strategy in strategies:
        contribution = strategy.search_rect()
        if contribution is None:
            continue
        rect = contribution if rect is None else rect.intersection(contribution)
        if rect is None:
            return None
    if rect is None:
        raise QueryError(
            "no strategy contributed a Phase-1 search region; include RR, "
            "OR, EM or BF"
        )
    return rect


#: Per-stage span payload: phase name -> QueryStats fields worth carrying
#: on the ``phase:<name>`` span (part of the telemetry contract).
_SPAN_COUNTERS = {
    "search": ("retrieved",),
    "filter": ("accepted_without_integration",),
    "integrate": ("integrations", "integration_samples"),
}


def execute_pipeline(
    ctx: StageContext, stages: list[Stage]
) -> tuple[int, ...]:
    """Run ``stages`` in order over ``ctx`` and return the sorted result ids
    (:meth:`StageContext.answer`).

    Each stage's wall time accumulates under its ``phase`` label; a stage
    setting ``ctx.finished`` short-circuits the rest.  This is the single
    driver behind every engine entry point.  With ``ctx.obs`` set, every
    stage additionally runs inside a ``phase:<name>`` span carrying its
    headline counters.
    """
    obs = ctx.obs
    for stage in stages:
        if ctx.finished:
            break
        with ctx.stats.time_phase(stage.phase):
            if obs is None:
                stage.run(ctx)
            else:
                with obs.span(f"phase:{stage.phase}") as span:
                    stage.run(ctx)
                    span.annotate(
                        **{
                            name: getattr(ctx.stats, name)
                            for name in _SPAN_COUNTERS.get(stage.phase, ())
                        }
                    )
    ids = ctx.answer()
    ctx.stats.results = len(ids)
    return ids
