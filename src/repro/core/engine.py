"""The generic three-phase query processor (Section III-B).

Phase 1 (index-based search) intersects the search rectangles contributed
by the active strategies and runs one rectangle range search.  Phase 2
(filtering) classifies every candidate with every strategy; a single
REJECT drops the candidate, a single ACCEPT (only BF issues these) adds it
to the result without integration.  Phase 3 (probability computation)
evaluates the remaining candidates with the configured integrator and
keeps those with estimate >= θ.

The phases themselves live in :mod:`repro.core.stages` as composable
stage objects (`SearchStage`, `FilterStage`, `IntegrateStage`); both
engine entry points — :meth:`QueryEngine.execute` and
:meth:`QueryEngine.run_batch` — build a pipeline and hand it to the
single shared driver :func:`repro.core.stages.execute_pipeline`, so the
single-query and batch paths cannot drift apart.

The engine is strategy-agnostic: the paper's six configurations are just
different strategy lists (see :func:`repro.core.strategies.make_strategies`).
With a :class:`repro.core.planner.QueryPlanner` attached (the
``strategy="auto"`` path), each leg runs the planner's rule: the paper's
ALL (RR+BF+OR) for range-shaped legs, and the kind plan for k-NN.

Beyond single-query :meth:`QueryEngine.execute`, the engine offers a
batched path — :meth:`QueryEngine.run_batch`, sequential at
``workers=1`` and thread-parallel above — in which every query gets its
own strategy clones and a forked integrator seeded from one spawned
:class:`numpy.random.SeedSequence`.  Results therefore depend only on
(seed, query position), never on worker count or completion order:
``run_batch(queries, workers=k)`` is bit-identical to
``run_batch(queries, workers=1)`` for every ``k``, with or without a
planner.
"""

from __future__ import annotations

import functools
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.core.kinds import adapt_pipeline, query_kind, query_legs
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import (
    FilterStage,
    IntegrateStage,
    SearchStage,
    StageContext,
    execute_pipeline,
    phase1_rect,
)
from repro.core.stats import BatchStats, QueryStats
from repro.core.strategies import (
    STRATEGY_COMBINATIONS,
    Strategy,
    make_strategies,
)
from repro.errors import QueryError, ReproError
from repro.geometry.mbr import Rect
from repro.index.base import SpatialIndex
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.importance import ImportanceSamplingIntegrator
from repro.obs import Observability, span_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.planner import QueryPlanner

__all__ = ["QueryEngine", "QueryResult", "BatchResult", "QueryPlan"]

#: Signature of the optional per-query integrator factory accepted by
#: ``run_batch``: (query, spawned seed sequence) -> integrator.
IntegratorFactory = Callable[
    [ProbabilisticRangeQuery, np.random.SeedSequence], ProbabilityIntegrator
]


@dataclass(frozen=True)
class QueryResult:
    """Sorted result ids plus execution statistics.

    ``error`` is ``None`` on success.  Under
    ``run_batch(..., return_errors=True)`` a query whose execution raised
    gets an *empty* result carrying the typed error instead — the batch
    itself completes and every other query is unaffected.
    """

    ids: tuple[int, ...]
    stats: QueryStats
    #: Typed failure (always a ReproError subclass) when this query's
    #: execution raised and the caller asked for captured errors.
    error: ReproError | None = None

    @property
    def failed(self) -> bool:
        """True when this query failed (``error`` is set)."""
        return self.error is not None

    @functools.cached_property
    def _id_set(self) -> frozenset[int]:
        # Built lazily on first membership test and reused: ids is
        # immutable, so rebuilding a set per `in` would be pure waste.
        return frozenset(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._id_set


@dataclass(frozen=True)
class BatchResult:
    """Per-query results (input order) plus batch-level statistics."""

    results: tuple[QueryResult, ...]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> QueryResult:
        return self.results[i]

    @property
    def ids(self) -> tuple[tuple[int, ...], ...]:
        """The result id tuples, one per query, in input order."""
        return tuple(r.ids for r in self.results)


@dataclass(frozen=True)
class QueryPlan:
    """The output of :meth:`QueryEngine.explain` — an explainable plan:
    the strategy descriptions, the Phase-1 rectangle and, given a
    selectivity estimator, the predicted Phase-3 candidate count."""

    strategies: tuple[str, ...]
    descriptions: tuple[str, ...]
    search_rect: Rect | None
    proves_empty: str | None
    predicted_candidates: float | None
    #: BF pruning radius α∥ (None = result proven empty or BF inactive).
    alpha_upper: float | None = None
    #: BF free-accept radius α⊥ (None = no inner hole or BF inactive).
    alpha_lower: float | None = None

    def summary(self) -> str:
        """One-line digest: strategies, BF radii, predictions.

        When BF is active the α∥/α⊥ radii are included so the output is
        directly actionable (they are the exact prune/free-accept
        distances the filter will apply).
        """
        parts = [f"strategies={'+'.join(self.strategies)}"]
        if "BF" in self.strategies:
            upper = "-" if self.alpha_upper is None else f"{self.alpha_upper:.3f}"
            lower = "-" if self.alpha_lower is None else f"{self.alpha_lower:.3f}"
            parts.append(f"alpha_par={upper}")
            parts.append(f"alpha_perp={lower}")
        if self.proves_empty:
            parts.append(f"empty_by={self.proves_empty}")
        if self.predicted_candidates is not None:
            parts.append(f"predicted_phase3={self.predicted_candidates:.1f}")
        return " ".join(parts)

    def render(self) -> str:
        lines = [f"strategies: {' + '.join(self.strategies)}"]
        lines.extend(f"  {text}" for text in self.descriptions)
        if self.proves_empty:
            lines.append(f"result proven empty by {self.proves_empty}")
        elif self.search_rect is not None:
            lines.append(f"phase-1 search rectangle: {self.search_rect!r}")
        lines.append(f"plan: {self.summary()}")
        if self.predicted_candidates is not None:
            lines.append(
                f"predicted phase-3 candidates: {self.predicted_candidates:.1f}"
            )
        return "\n".join(lines)


class QueryEngine:
    """Executes probabilistic range queries over a spatial index.

    Parameters
    ----------
    index:
        Any :class:`repro.index.SpatialIndex` holding the target objects.
    strategies:
        Filtering strategies to combine; must be non-empty (the strategies
        also supply the Phase-1 search region).  With a ``planner`` each
        leg runs its plan's combination, reusing these strategies when
        they already are that combination; kind-specific plans keep them
        as the base list the kind adapters wrap.
    integrator:
        Phase-3 probability evaluator; defaults to the paper's importance
        sampling with 100,000 samples.
    planner:
        Optional :class:`repro.core.planner.QueryPlanner` (``"auto"``):
        the paper's ALL (RR+BF+OR) for range-shaped legs, and the kind
        plan for k-NN.  The plan's strategy names are recorded in the
        query's :class:`QueryStats`.
    obs:
        Optional :class:`repro.obs.Observability`.  When present, every
        execution emits hierarchical spans (query → phase → integrator
        tier) and feeds the metrics registry per the telemetry contract
        in ``docs/observability.md``.  Observability is RNG-free, so
        results are bit-identical with it on or off.
    targets:
        Optional :class:`repro.core.kinds.TargetCovarianceTable` holding
        per-object target covariances.  Required to execute
        :class:`repro.core.kinds.UncertainTargetQuery`, which runs as one
        PRQ per covariance group (:func:`repro.core.kinds.query_legs`).
    """

    def __init__(
        self,
        index: SpatialIndex,
        strategies: list[Strategy],
        integrator: ProbabilityIntegrator | None = None,
        *,
        planner: "QueryPlanner | None" = None,
        obs: Observability | None = None,
        targets=None,
    ):
        self.index = index
        self._configure(strategies, integrator, planner, obs, targets)

    def _configure(self, strategies, integrator, planner, obs, targets) -> None:
        """Validate and store everything but the index (the sharded
        subclass reaches its index through the shard database)."""
        if not strategies:
            raise QueryError("at least one strategy is required")
        self.strategies = list(strategies)
        self.integrator = integrator or ImportanceSamplingIntegrator()
        self.planner = planner
        self.obs = obs
        self.targets = targets

    def execute(self, query: ProbabilisticRangeQuery) -> QueryResult:
        return self._execute_with(query, self.integrator, obs=self.obs)

    def run_batch(
        self,
        queries: Sequence[ProbabilisticRangeQuery],
        *,
        workers: int = 1,
        base_seed: int = 0,
        integrator_factory: IntegratorFactory | None = None,
        return_errors: bool = False,
    ) -> BatchResult:
        """Execute independent queries, fanned out over a thread pool.

        Returns a :class:`BatchResult` whose ``results`` follow the input
        order.  Determinism contract: because every query owns its
        strategy clones and a seed spawned by position, the results are
        bit-identical for every ``workers`` value.  ``workers=1`` is the
        sequential reference.  ``integrator_factory(query, seed_seq)``
        overrides the default fork of the engine's integrator, e.g. to
        tune an adaptive sampler to each query's own θ.
        The engine instance itself is never mutated, so one engine can
        serve many concurrent ``run_batch`` calls.

        Fault isolation: with ``return_errors=True`` a query whose
        execution raises fails *alone* — its slot in the batch becomes an
        empty :class:`QueryResult` carrying a typed
        :class:`~repro.errors.ReproError` (non-library exceptions are
        wrapped in :class:`~repro.errors.QueryError`), every other query
        runs to completion, and the worker pool stays healthy for the
        next batch.  With the default ``return_errors=False`` the first
        failure propagates to the caller (wrapped the same way if it was
        not already typed) after the pool has drained — never a hang,
        never a silently dropped query.
        """
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        queries = list(queries)
        seeds = np.random.SeedSequence(base_seed).spawn(len(queries))
        obs = self.obs
        # Lock-free observability: each query records into its own child
        # tracer/registry; the children are absorbed in *input order*
        # after the pool drains, so traces and metrics are deterministic
        # regardless of completion order (and never contended).
        children = (
            [obs.child() for _ in queries] if obs is not None else None
        )

        def task(pair) -> QueryResult:
            i, query, seed = pair
            try:
                if integrator_factory is not None:
                    integrator = integrator_factory(query, seed)
                else:
                    integrator = self.integrator.fork(seed)
                child = children[i] if children is not None else None
                return self._execute_with(
                    query, integrator, seed=seed, obs=child
                )
            except BaseException as exc:  # noqa: BLE001 - re-typed below
                error = self._typed_failure(i, exc, return_errors)
                return QueryResult((), QueryStats(), error=error)

        start = time.perf_counter()
        pairs = [(i, q, s) for i, (q, s) in enumerate(zip(queries, seeds))]
        with span_of(
            obs, "batch", queries=len(queries), workers=workers
        ) as batch_span:
            if workers == 1 or len(queries) <= 1:
                results = [task(pair) for pair in pairs]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(task, pairs))
        wall = time.perf_counter() - start

        batch = BatchStats.of(results, workers=workers, wall_seconds=wall)
        if obs is not None:
            for child in children:
                obs.absorb(child, parent=batch_span.span)
            obs.record_batch(batch)
        return BatchResult(tuple(results), batch)

    @staticmethod
    def _typed_failure(
        i: int, exc: BaseException, return_errors: bool
    ) -> ReproError:
        """Query ``i``'s failure as a :class:`ReproError` (non-library
        exceptions wrapped in :class:`QueryError`): returned for capture
        under ``return_errors``, raised otherwise."""
        if isinstance(exc, ReproError):
            error = exc
        else:
            error = QueryError(f"query {i} failed: {type(exc).__name__}: {exc}")
            error.__cause__ = exc
        if not return_errors:
            raise error from exc
        return error

    # ------------------------------------------------------------------
    # The shared execution path: every entry point turns its query into
    # legs here and runs them through the one stage driver.
    # ------------------------------------------------------------------

    def legs(
        self,
        query: ProbabilisticRangeQuery,
        integrator: ProbabilityIntegrator,
        *,
        seed: np.random.SeedSequence | None = None,
        obs: Observability | None = None,
    ) -> Iterator[
        tuple[
            ProbabilisticRangeQuery,
            list[Strategy],
            ProbabilityIntegrator,
            QueryStats,
        ]
    ]:
        """The legs ``query`` runs as, each ready for the stages.

        Yields one ``(leg, strategies, decider, stats)`` per leg of
        :func:`query_legs`: the leg's query; fresh clones of the
        strategies its plan runs, kind-adapted by :func:`adapt_pipeline`
        and behind the leg's group restriction; the integrator that
        decides its Phase 3 (``integrator``, or the kind's wrapper of
        it); and its :class:`QueryStats`, holding the planning time and
        the plan's strategy names.  ``seed`` seeds a k-NN leg that
        leaves its own seed ``None``.

        This is the one place that clones the engine's strategies, so no
        entry point ever prepares them, and every entry point — batches,
        :meth:`execute`, :meth:`explain`, the shard coordinator, the
        subscription monitor and the degraded serve path — runs the same
        plan.  Legs are planned one at a time as they are drawn, so a
        leg's ``phase:plan`` span sits just ahead of its phases.
        """
        for leg, restrict in query_legs(query, self.targets):
            stats = QueryStats()
            strategies = self.strategies
            if self.planner is not None:
                with stats.time_phase("plan"), span_of(
                    obs, "phase:plan"
                ) as plan_span:
                    try:
                        strategies = self._apply_plan(
                            leg, strategies, integrator, stats
                        )
                    finally:
                        plan_span.annotate(
                            strategies="+".join(stats.plan_strategies or ())
                        )
            # Only the k-NN adapter probes an index; a sharded engine
            # builds its full coordinator index on first access.
            strategies, decider = adapt_pipeline(
                leg,
                [s.clone() for s in strategies],
                integrator,
                index=self.index if query_kind(leg) == "knn" else None,
                seed=seed,
            )
            yield leg, [*restrict, *strategies], decider, stats

    def _execute_with(
        self,
        query: ProbabilisticRangeQuery,
        integrator: ProbabilityIntegrator,
        *,
        seed: np.random.SeedSequence | None = None,
        obs: Observability | None,
    ) -> QueryResult:
        parts: list[QueryStats] = []
        answers: list[tuple[int, ...]] = []
        with span_of(
            obs, "query", delta=query.delta, theta=query.theta
        ) as query_span:
            try:
                for leg, strategies, decider, part in self.legs(
                    query, integrator, seed=seed, obs=obs
                ):
                    parts.append(part)
                    ctx = StageContext(leg, strategies, decider, part, obs=obs)
                    stages = [
                        SearchStage(self.index), FilterStage(), IntegrateStage()
                    ]
                    answers.append(execute_pipeline(ctx, stages))
            finally:
                stats = QueryStats.combine(parts) if parts else QueryStats()
                query_span.annotate(
                    retrieved=stats.retrieved,
                    integrations=stats.integrations,
                    results=stats.results,
                )
        if obs is not None:
            obs.record_query(stats)
        # Each leg's answer is sorted already; only a union needs sorting.
        ids = (
            answers[0]
            if len(answers) == 1
            else tuple(sorted(itertools.chain.from_iterable(answers)))
        )
        return QueryResult(ids, stats)

    def _apply_plan(
        self,
        query: ProbabilisticRangeQuery,
        strategies: list[Strategy],
        integrator: ProbabilityIntegrator,
        stats: QueryStats,
    ) -> list[Strategy]:
        """Plan ``query`` and return the strategies its plan runs.

        A combo plan reuses ``strategies`` when they already are that
        combo, as they are on an ``"auto"`` engine, whose base list is
        ALL.  Kind-specific plans carry the kind name (not a strategy
        combo) as their spec; the base strategies pass through untouched
        and :func:`adapt_pipeline` swaps in the kind adapters afterwards.
        """
        chosen = self.planner.plan(query, integrator)
        names = tuple(s.name for s in strategies)
        if chosen.strategies in STRATEGY_COMBINATIONS and names != chosen.strategy_names:
            strategies = make_strategies(chosen.strategies)
        stats.plan_strategies = chosen.strategy_names
        return strategies

    def explain(
        self, query: ProbabilisticRangeQuery, *, estimator=None
    ) -> "QueryPlan":
        """Describe how this engine would process ``query`` without running
        Phase 3.

        Returns a :class:`QueryPlan` with each strategy's derived geometry
        (region radii/half-widths), the combined Phase-1 rectangle, and —
        when a :class:`repro.core.selectivity.SelectivityEstimator` is
        supplied — the predicted Phase-3 candidate count.  An
        uncertain-target query is described by the plan of each of its
        legs (:func:`repro.core.kinds.query_legs`); with several target
        covariance groups, every description line names its group and the
        Phase-1 rectangle is the union of the legs'.
        """
        plans = [
            self._explain_leg(leg, strategies, stats, estimator)
            for leg, strategies, _, stats in self.legs(query, self.integrator)
        ]
        if len(plans) == 1:
            return plans[0]
        rects = [p.search_rect for p in plans if p.search_rect is not None]
        return QueryPlan(
            strategies=tuple(
                dict.fromkeys(name for p in plans for name in p.strategies)
            ),
            descriptions=tuple(
                f"group {group}: {text}"
                for group, plan in enumerate(plans)
                for text in (plan.summary(), *plan.descriptions)
            ),
            search_rect=Rect.union_of(rects) if rects else None,
            proves_empty=(
                plans[0].proves_empty
                if all(p.proves_empty for p in plans)
                else None
            ),
            predicted_candidates=_sum_known(
                p.predicted_candidates for p in plans
            ),
        )

    def _explain_leg(
        self,
        query: ProbabilisticRangeQuery,
        strategies: list[Strategy],
        stats: QueryStats,
        estimator,
    ) -> "QueryPlan":
        rect = phase1_rect(query, strategies, stats, dim=self.index.dim)
        descriptions: list[str] = []
        alpha_upper = alpha_lower = None
        for strategy in strategies:
            if strategy.name == "RR":
                region = strategy.region  # type: ignore[attr-defined]
                widths = (region.core.extents / 2.0).round(3).tolist()
                descriptions.append(
                    f"RR: theta-region box half-widths {widths}, "
                    f"dilated by delta={region.delta:g}"
                )
            elif strategy.name == "OR":
                half = strategy.box.half_widths.round(3).tolist()  # type: ignore[attr-defined]
                descriptions.append(f"OR: oblique box half-widths {half}")
            elif strategy.name == "BF":
                alpha_upper = strategy.alpha_upper  # type: ignore[attr-defined]
                alpha_lower = strategy.alpha_lower  # type: ignore[attr-defined]
                descriptions.append(
                    "BF: prune beyond "
                    + (
                        f"{alpha_upper:.3f}"
                        if alpha_upper is not None
                        else "— (empty result)"
                    )
                    + ", accept within "
                    + (
                        f"{alpha_lower:.3f}"
                        if alpha_lower is not None
                        else "— (no hole)"
                    )
                )
            elif strategy.name == "MIX":
                descriptions.append(
                    f"MIX: {strategy.n_live} of {strategy.n_components} "  # type: ignore[attr-defined]
                    "component regions live, unioned for Phase 1"
                )
            elif strategy.name == "KNN":
                descriptions.append(
                    f"KNN: sample-driven candidate cut radius "
                    f"{strategy.cut_radius:.3f}"  # type: ignore[attr-defined]
                )
        predicted = None
        if estimator is not None and rect is not None:
            predicted = estimator.estimate_candidates(query, list(strategies))
        return QueryPlan(
            strategies=tuple(s.name for s in strategies),
            descriptions=tuple(descriptions),
            search_rect=rect,
            proves_empty=stats.empty_by_strategy,
            predicted_candidates=predicted,
            alpha_upper=alpha_upper,
            alpha_lower=alpha_lower,
        )


def _sum_known(values) -> float | None:
    """The sum of the values that are not ``None`` (``None`` if none is)."""
    known = [v for v in values if v is not None]
    return sum(known) if known else None
