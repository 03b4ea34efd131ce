"""Standing subscriptions: safe-region monitoring through the service.

A *subscription* is one PRQ(q, δ, θ) that stays registered while its
query object moves.  Instead of re-running the pipeline per location
update (the legacy ``repro.core.monitor`` loop), the
:class:`SubscriptionManager` anchors each subscription once — full
answer plus a :class:`~repro.core.saferegion.SafeRegion` — and then
answers every update by classifying it against the region:

- **survived** — the shift is covered by every cached row's slack; the
  anchor answer is returned unchanged.  O(1): one d×d mat-vec and a
  binary search, no index, no integration.
- **reintegrated** — only the slack-exhausted border rows run Phase 2/3
  again (fresh strategy clones over the cached points); every other
  decision is proven to stand.
- **replanned** — the covariance changed, the translated Phase-1
  rectangle escaped the cached candidate superset, or too many slacks
  broke: the subscription re-anchors exactly as it subscribed.

Anchoring and reintegration are one path (``_anchor``): the strategies
are prepared once, and Phase 2/3 decide the cached superset's rows
inside the prepared Phase-1 rectangle — the very rows a cold run
retrieves — on the database's full index (the coordinator's, for a
:class:`~repro.shard.engine.ShardedEngine`).  An anchor searches the
index at most once, for a new superset; no engine batch path runs.

Every non-degraded answer is **bit-identical** to a cold full
evaluation of the same query at the updated location — the contract
``docs/monitoring.md`` proves and ``tests/test_monitor_subscriptions.py``
checks against random trajectories.  The guarantee needs two gates,
enforced at :meth:`SubscriptionManager.subscribe`: the engine's
integrator must be *composition independent* (per-candidate decisions
cannot depend on how candidates are grouped — true of the default
cascade) and the query must be an exact-target PRQ (kinded queries ride
the regular request path).

Deadline pressure degrades *soundly*: when an update carries a
``deadline`` smaller than the predicted reintegration cost, the manager
answers with the proven-certain ids plus one ``(id, lower, upper)``
χ²-sandwich interval per still-open row, flags the response
``stale=True`` and leaves the subscription's committed answer untouched
(a later unconstrained update, or a replan, re-converges).  Structural
replans always execute fully — a broken region cannot answer soundly at
any fidelity.

Telemetry (when the service has an :class:`~repro.obs.Observability`):
``repro_monitor_*`` metrics and one ``monitor:update`` span per update,
as tabulated in ``docs/monitoring.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.kinds import query_kind
from repro.core.query import ProbabilisticRangeQuery
from repro.core.saferegion import (
    DECISION_REINTEGRATE,
    DECISION_REPLAN,
    DECISION_SURVIVED,
    RegionDecision,
    SafeRegion,
)
from repro.core.stages import (
    FilterStage,
    IntegrateStage,
    StageContext,
    execute_pipeline,
    phase1_rect,
)
from repro.errors import QueryError, ReproError, ServiceError
from repro.gaussian.distribution import Gaussian
from repro.obs import span_of
from repro.serve.degrade import CostTracker, sandwich_triage
from repro.serve.request import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    check_deadline,
    query_seed,
)

__all__ = [
    "SubscriptionManager",
    "MonitorSnapshot",
    "MonitorResponse",
    "REQUEST_SUBSCRIBE",
    "REQUEST_UPDATE",
    "REQUEST_UNSUBSCRIBE",
    "REQUEST_NOTIFY",
    "REQUEST_TYPES",
    "OUTCOME_SURVIVED",
    "OUTCOME_REINTEGRATED",
    "OUTCOME_REPLANNED",
    "OUTCOME_DEGRADED",
]

#: Register a standing query; the response carries its first full answer.
REQUEST_SUBSCRIBE = "subscribe"
#: Move (and optionally re-shape) a subscription's query object.
REQUEST_UPDATE = "update"
#: Retire a subscription and drop its safe region.
REQUEST_UNSUBSCRIBE = "unsubscribe"
#: Read a subscription's committed answer without touching its state.
REQUEST_NOTIFY = "notify"
#: Every request type the monitoring surface accepts, in contract order.
REQUEST_TYPES = (
    REQUEST_SUBSCRIBE,
    REQUEST_UPDATE,
    REQUEST_UNSUBSCRIBE,
    REQUEST_NOTIFY,
)

#: The cached answer survived as-is (O(1), no integration).
OUTCOME_SURVIVED = DECISION_SURVIVED
#: Border rows were re-decided; the rest of the answer was proven stable.
OUTCOME_REINTEGRATED = "reintegrated"
#: The subscription re-anchored around the new location.
OUTCOME_REPLANNED = "replanned"
#: The deadline bit: certain ids plus sound intervals, state untouched.
OUTCOME_DEGRADED = "degraded"

#: Cold-start reintegration-cost prediction, seconds: a reintegration
#: re-decides a few cached rows, an order of magnitude cheaper than the
#: full execution the request path's prior stands for.
REINTEGRATE_COST_PRIOR = 0.005


@dataclass(frozen=True)
class MonitorResponse:
    """The manager's answer to one verb call.

    ``status`` reuses the service vocabulary (``ok``/``degraded``/
    ``failed``); ``outcome`` is one of the ``OUTCOME_*`` constants for
    updates (empty for the other verbs).  ``ids`` is the full exact
    answer except on degraded responses, where it holds only *proven*
    accepts and ``bounds`` encloses every still-open candidate.
    ``added``/``removed`` are the delta against the subscription's
    previously committed answer (empty on degraded responses, which
    commit nothing).
    """

    request_id: int | str | None
    type: str
    status: str
    subscription_id: int | str | None = None
    outcome: str = ""
    ids: tuple[int, ...] = ()
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    #: Sound ``(object_id, lower, upper)`` enclosures for candidates a
    #: degraded update could not decide against θ.
    bounds: tuple[tuple[int, float, float], ...] = ()
    #: Cached rows re-decided by this update (0 for survived/notify).
    rechecked: int = 0
    #: Mahalanobis length of the update's mean shift from the anchor.
    shift: float = 0.0
    #: True when this answer (or, for ``notify``, the committed answer it
    #: echoes) has been overtaken by a degraded update.
    stale: bool = False
    error: ReproError | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the request produced a usable answer."""
        return self.status in (STATUS_OK, STATUS_DEGRADED)

    def to_dict(self) -> dict:
        """A JSON-serializable digest (the ``repro serve`` output rows)."""
        payload: dict = {
            "id": self.request_id,
            "type": self.type,
            "status": self.status,
            "subscription_id": self.subscription_id,
            "ids": list(self.ids),
            "stale": self.stale,
            "service_ms": round(self.seconds * 1e3, 3),
        }
        if self.type == REQUEST_UPDATE:
            payload["outcome"] = self.outcome
            payload["added"] = list(self.added)
            payload["removed"] = list(self.removed)
            payload["rechecked"] = self.rechecked
            payload["shift"] = round(self.shift, 6)
        if self.bounds:
            payload["bounds"] = [
                [obj_id, lower, upper] for obj_id, lower, upper in self.bounds
            ]
        if self.error is not None:
            payload["error"] = str(self.error)
        return payload


@dataclass(frozen=True)
class MonitorSnapshot:
    """Structured monitoring state, mirroring `QueryService.snapshot`.

    Cumulative verb/outcome counters plus the instantaneous subscription
    count, so harnesses read monitoring pressure (update-storm survival
    mix, degraded share) without scraping the metrics exposition.
    """

    #: Subscriptions currently registered.
    active_subscriptions: int
    subscribed: int
    unsubscribed: int
    updates: int
    survived: int
    reintegrated: int
    replanned: int
    degraded: int
    notified: int
    failed: int
    #: Cached candidate rows re-decided across all updates.
    rechecked_candidates: int
    #: survived / updates, 0.0 before any update.
    survival_rate: float

    def to_dict(self) -> dict:
        """A JSON-serializable dict (the ``repro load`` report rows)."""
        return asdict(self)


@dataclass
class _Subscription:
    """Mutable per-subscription state (guarded by the manager lock)."""

    key: int | str
    #: The current anchor: its query, exact answer and candidate cache.
    region: SafeRegion
    #: The last committed (full-fidelity) answer.
    reported: tuple[int, ...]
    #: True when a degraded update has been seen since ``reported``.
    stale: bool = False


class SubscriptionManager:
    """Safe-region monitoring over one engine (plain or sharded).

    Thread-safe and synchronous: every verb runs on the calling thread
    under one lock (updates are designed to be cheap — that is the whole
    point), bypassing the service's micro-batch queue.  Construct
    directly or reach the one a :class:`~repro.serve.QueryService` owns
    as ``service.monitor``.

    ``degrade`` switches deadline-aware degradation exactly as on the
    request path.  The safe-region tuning (cache margin, replan bounds)
    is :mod:`repro.core.saferegion`'s.
    """

    def __init__(
        self,
        database,
        engine,
        *,
        degrade: bool = True,
        obs=None,
        clock=None,
    ):
        self.database = database
        self.engine = engine
        self.degrade = bool(degrade)
        self._clock = clock if clock is not None else time.monotonic
        self._obs = obs
        self._lock = threading.Lock()
        self._subs: dict[int | str, _Subscription] = {}
        self._auto_key = 0
        self._reintegrate_cost = CostTracker(prior=REINTEGRATE_COST_PRIOR)
        self._counters: dict[str, int] = {
            "subscribed": 0,
            "unsubscribed": 0,
            "updates": 0,
            "survived": 0,
            "reintegrated": 0,
            "replanned": 0,
            "degraded": 0,
            "notified": 0,
            "failed": 0,
            "rechecked_candidates": 0,
        }
        # The registry dict is not locked, so every monitor metric is
        # registered here — before any other thread can race the
        # registration — and only the pre-fetched objects are written
        # later (under the manager lock).
        self._metrics = None
        if obs is not None and getattr(obs, "metrics", None) is not None:
            from repro.obs import COUNT_BUCKETS, TIME_BUCKETS

            registry = obs.metrics
            self._metrics = {
                "updates": registry.counter(
                    "repro_monitor_updates_total",
                    "Subscription updates by outcome.",
                    labelnames=("outcome",),
                ),
                "seconds": registry.histogram(
                    "repro_monitor_update_seconds",
                    "Wall seconds per subscription update.",
                    buckets=TIME_BUCKETS,
                ),
                "rechecked": registry.histogram(
                    "repro_monitor_rechecked_candidates",
                    "Cached rows re-decided per update.",
                    buckets=COUNT_BUCKETS,
                ),
                "subscriptions": registry.gauge(
                    "repro_monitor_subscriptions",
                    "Currently active subscriptions.",
                ),
            }

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def subscribe(
        self,
        gaussian: Gaussian,
        delta: float,
        theta: float,
        *,
        subscription_id: int | str | None = None,
        request_id: int | str | None = None,
    ) -> MonitorResponse:
        """Register a standing PRQ; the response carries its full answer.

        Raises :class:`~repro.errors.ServiceError` on API misuse (an
        integrator without composition independence, a kinded query, a
        duplicate id, a dimension mismatch); execution failures come back
        as ``failed`` responses instead.
        """
        started = self._clock()
        if not self.engine.integrator.composition_independent:
            raise ServiceError(
                "subscriptions require a composition-independent "
                "integrator (the cascade, exact methods, or a "
                "CandidateSeededIntegrator wrap): per-candidate decisions "
                "must not depend on which candidates are rechecked "
                "together"
            )
        if gaussian.dim != self.database.dim:
            raise QueryError(
                f"subscription dimension {gaussian.dim} does not match "
                f"database dimension {self.database.dim}"
            )
        query = ProbabilisticRangeQuery(gaussian, delta, theta)
        if query_kind(query) != "prq":
            raise ServiceError(
                "subscriptions cover exact-target PRQs only; kinded "
                "queries ride the regular request path"
            )
        with self._lock:
            key = subscription_id
            if key is None:
                self._auto_key += 1
                key = self._auto_key
            if key in self._subs:
                raise ServiceError(f"subscription {key!r} already exists")
            try:
                region = self._anchor(query, reuse=None)
            except ReproError as exc:
                self._counters["failed"] += 1
                return MonitorResponse(
                    request_id=request_id,
                    type=REQUEST_SUBSCRIBE,
                    status=STATUS_FAILED,
                    subscription_id=key,
                    error=exc,
                    seconds=self._clock() - started,
                )
            self._subs[key] = _Subscription(
                key=key, region=region, reported=region.answer
            )
            self._counters["subscribed"] += 1
            if self._metrics is not None:
                self._metrics["subscriptions"].set(len(self._subs))
        return MonitorResponse(
            request_id=request_id,
            type=REQUEST_SUBSCRIBE,
            status=STATUS_OK,
            subscription_id=key,
            ids=region.answer,
            added=region.answer,
            seconds=self._clock() - started,
        )

    def update(
        self,
        subscription_id: int | str,
        mean,
        sigma=None,
        *,
        deadline: float | None = None,
        request_id: int | str | None = None,
    ) -> MonitorResponse:
        """Move a subscription's query object and return the fresh answer.

        The safe region classifies the shift in O(1); the response's
        ``outcome`` says what that cost: ``survived`` (nothing executed),
        ``reintegrated`` (Phase 2/3 over ``rechecked`` cached rows),
        ``replanned`` (a fresh anchor and region), or ``degraded``
        (the ``deadline`` bit — proven ids plus sound intervals,
        committed state untouched).  An unknown subscription or a
        negative/NaN ``deadline`` is a ``failed`` response.
        """
        started = self._clock()
        with self._lock:
            sub = self._subs.get(subscription_id)
            try:
                check_deadline(deadline)
                if sub is None:
                    raise QueryError(
                        f"unknown subscription {subscription_id!r}"
                    )
            except ReproError as exc:
                self._counters["failed"] += 1
                return MonitorResponse(
                    request_id=request_id,
                    type=REQUEST_UPDATE,
                    status=STATUS_FAILED,
                    subscription_id=subscription_id,
                    error=exc,
                    seconds=self._clock() - started,
                )
            with span_of(
                self._obs, "monitor:update", subscription=str(sub.key)
            ) as span:
                try:
                    response = self._update_locked(
                        sub, mean, sigma, deadline, request_id, started
                    )
                    span.annotate(
                        outcome=response.outcome,
                        rechecked=response.rechecked,
                        shift=response.shift,
                    )
                except ReproError as exc:
                    self._counters["failed"] += 1
                    response = MonitorResponse(
                        request_id=request_id,
                        type=REQUEST_UPDATE,
                        status=STATUS_FAILED,
                        subscription_id=sub.key,
                        error=exc,
                        seconds=self._clock() - started,
                    )
            self._counters["updates"] += 1
            if self._metrics is not None and response.outcome:
                self._metrics["updates"].inc(1, outcome=response.outcome)
                self._metrics["seconds"].observe(response.seconds)
                self._metrics["rechecked"].observe(response.rechecked)
        return response

    def unsubscribe(
        self,
        subscription_id: int | str,
        *,
        request_id: int | str | None = None,
    ) -> MonitorResponse:
        """Retire a subscription; its last committed answer is echoed."""
        started = self._clock()
        with self._lock:
            sub = self._subs.pop(subscription_id, None)
            if sub is None:
                self._counters["failed"] += 1
                return MonitorResponse(
                    request_id=request_id,
                    type=REQUEST_UNSUBSCRIBE,
                    status=STATUS_FAILED,
                    subscription_id=subscription_id,
                    error=QueryError(
                        f"unknown subscription {subscription_id!r}"
                    ),
                    seconds=self._clock() - started,
                )
            self._counters["unsubscribed"] += 1
            if self._metrics is not None:
                self._metrics["subscriptions"].set(len(self._subs))
        return MonitorResponse(
            request_id=request_id,
            type=REQUEST_UNSUBSCRIBE,
            status=STATUS_OK,
            subscription_id=subscription_id,
            ids=sub.reported,
            stale=sub.stale,
            seconds=self._clock() - started,
        )

    def notify(
        self,
        subscription_id: int | str,
        *,
        request_id: int | str | None = None,
    ) -> MonitorResponse:
        """Read the committed answer without touching subscription state.

        ``stale=True`` warns that a degraded update has been observed
        since the answer was committed — re-issue the update without a
        deadline to re-converge.
        """
        started = self._clock()
        with self._lock:
            sub = self._subs.get(subscription_id)
            if sub is None:
                self._counters["failed"] += 1
                return MonitorResponse(
                    request_id=request_id,
                    type=REQUEST_NOTIFY,
                    status=STATUS_FAILED,
                    subscription_id=subscription_id,
                    error=QueryError(
                        f"unknown subscription {subscription_id!r}"
                    ),
                    seconds=self._clock() - started,
                )
            self._counters["notified"] += 1
            return MonitorResponse(
                request_id=request_id,
                type=REQUEST_NOTIFY,
                status=STATUS_OK,
                subscription_id=subscription_id,
                ids=sub.reported,
                stale=sub.stale,
                seconds=self._clock() - started,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> MonitorSnapshot:
        """Structured monitoring state (see :class:`MonitorSnapshot`)."""
        with self._lock:
            c = dict(self._counters)
            active = len(self._subs)
        return MonitorSnapshot(
            active_subscriptions=active,
            survival_rate=c["survived"] / c["updates"] if c["updates"] else 0.0,
            **c,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    def region_of(self, subscription_id: int | str) -> SafeRegion:
        """The subscription's current safe region (for inspection/tests)."""
        with self._lock:
            sub = self._subs.get(subscription_id)
            if sub is None:
                raise QueryError(f"unknown subscription {subscription_id!r}")
            return sub.region

    # ------------------------------------------------------------------
    # Internals (caller holds the lock)
    # ------------------------------------------------------------------

    def _update_locked(
        self, sub, mean, sigma, deadline, request_id, started
    ) -> MonitorResponse:
        mean = np.asarray(mean, dtype=float)
        query = sub.region.query
        decision = sub.region.classify(
            mean, None if sigma is None else np.asarray(sigma, dtype=float)
        )
        if decision.kind == DECISION_REINTEGRATE:
            if (
                self.degrade
                and deadline is not None
                and self._reintegrate_cost.would_exceed(deadline)
            ):
                return self._degraded_update(
                    sub, mean, decision, request_id, started
                )
            # Re-anchor at the new position: the rectangle is prepared
            # anew, the candidate cache carries over and the shell radii
            # are memo hits.  This keeps the measured shift per-update
            # instead of cumulative, so slow motion keeps hitting the
            # O(1) survived path.
            shifted = ProbabilisticRangeQuery(
                query.gaussian.moved_to(mean), query.delta, query.theta
            )
            region = self._anchor(shifted, reuse=sub.region, decision=decision)
            if region is not None:
                self._reintegrate_cost.observe(self._clock() - started)
                return self._commit(
                    sub, region, OUTCOME_REINTEGRATED, decision, request_id, started
                )
            decision = RegionDecision(
                DECISION_REPLAN, reason="cache-overrun", shift=decision.shift
            )
        if decision.kind == DECISION_REPLAN:
            # Structural breaks always execute fully, deadline or not: a
            # broken region cannot answer soundly at any fidelity.
            # An unchanged Σ keeps the subscription's one decomposition.
            gaussian = (
                query.gaussian.moved_to(mean)
                if sigma is None
                else Gaussian(mean, sigma)
            )
            region = self._anchor(
                ProbabilisticRangeQuery(gaussian, query.delta, query.theta),
                reuse=sub.region,
            )
            return self._commit(
                sub, region, OUTCOME_REPLANNED, decision, request_id, started
            )
        # Survived: the anchor answer is provably exact at the new mean.
        return self._commit(
            sub, sub.region, OUTCOME_SURVIVED, decision, request_id, started
        )

    def _commit(
        self, sub, region, outcome, decision, request_id, started
    ) -> MonitorResponse:
        answer = region.answer
        previous = frozenset(sub.reported)
        current = frozenset(answer)
        added = tuple(sorted(current - previous))
        removed = tuple(sorted(previous - current))
        sub.region = region
        sub.reported = answer
        sub.stale = False
        self._counters[outcome] += 1
        self._counters["rechecked_candidates"] += decision.n_recheck
        return MonitorResponse(
            request_id=request_id,
            type=REQUEST_UPDATE,
            status=STATUS_OK,
            subscription_id=sub.key,
            outcome=outcome,
            ids=answer,
            added=added,
            removed=removed,
            rechecked=decision.n_recheck,
            shift=decision.shift,
            seconds=self._clock() - started,
        )

    def _degraded_update(
        self, sub, mean, decision, request_id, started
    ) -> MonitorResponse:
        """Sound partial answer under deadline pressure; commits nothing.

        Only reached for *reintegrate* decisions, so Σ is unchanged and
        the translated rectangle fits the cache — the preconditions under
        which the sandwich intervals below enclose the truth.
        """
        query = sub.region.query
        certain = sub.region.certain_accept_ids(decision)
        rows = decision.recheck
        assert rows is not None
        bounds: list[tuple[int, float, float]] = []
        accepted: list[int] = list(certain)
        if rows.size:
            ids = sub.region.ids[rows]
            sure, bounds = sandwich_triage(
                query.gaussian.moved_to(mean),
                ids,
                sub.region.points[rows],
                query.delta,
                query.theta,
            )
            accepted.extend(ids[sure].tolist())
        sub.stale = True
        self._counters[OUTCOME_DEGRADED] += 1
        self._counters["rechecked_candidates"] += decision.n_recheck
        return MonitorResponse(
            request_id=request_id,
            type=REQUEST_UPDATE,
            status=STATUS_DEGRADED,
            subscription_id=sub.key,
            outcome=OUTCOME_DEGRADED,
            ids=tuple(sorted(accepted)),
            bounds=tuple(bounds),
            rechecked=decision.n_recheck,
            shift=decision.shift,
            stale=True,
            seconds=self._clock() - started,
        )

    def _anchor(
        self,
        query: ProbabilisticRangeQuery,
        *,
        reuse: SafeRegion | None,
        decision: RegionDecision | None = None,
    ) -> SafeRegion | None:
        """The exact answer to ``query`` anchored in a fresh safe region.

        Subscribe, replan and reintegration all run here.  The engine's
        one leg of ``query`` (:meth:`~repro.core.engine.QueryEngine.legs`:
        its plan's fresh strategies, so a concurrent scheduler batch on
        the same engine is never perturbed) is prepared once, and
        Filter/Integrate decide the candidate rows that fall inside the
        prepared Phase-1 rectangle with an integrator forked from
        ``query``'s fingerprint seed — the rows, strategies and
        integrator entry state of a cold run, so the answer is
        bit-identical to one (composition independence makes the
        regrouping invisible).

        An anchor (``decision is None``) decides its candidate
        superset's rows: ``reuse``'s superset when it still covers the
        rectangle, else one index search.  A reintegration decides the
        ``decision.recheck`` rows of ``reuse`` and keeps its proven
        accepts; it returns ``None`` when the prepared rectangle escapes
        the cached superset (classify's O(d) check relies on translation
        equivariance, the prepared strategies are definitive).
        """
        # One leg: subscriptions cover exact-target PRQs only.
        ((_, strategies, decider, stats),) = self.engine.legs(
            query, self.engine.integrator.fork(query_seed(query))
        )
        rect = phase1_rect(query, strategies, stats, dim=self.database.dim)
        if decision is None:
            superset = SafeRegion.superset(
                rect, index=self.database.index, reuse=reuse
            )
            _, ids, points = superset
            kept: list[int] = []
        else:
            assert reuse is not None and reuse.cached_rect is not None
            if rect is not None and not reuse.cached_rect.contains_rect(rect):
                return None
            superset = (reuse.cached_rect, reuse.ids, reuse.points)
            ids, points = reuse.ids[decision.recheck], reuse.points[decision.recheck]
            kept = reuse.certain_accept_ids(decision)
        answer: tuple[int, ...] = ()
        if rect is not None:
            # A strategy proving the answer empty (rect None) subsumes
            # every kept accept: both proofs are sound.
            inside = rect.contains_points(points)
            ctx = StageContext(
                query,
                strategies,
                decider,
                stats,
                candidate_ids=ids[inside],
                points=points[inside],
                finished=not inside.any(),
                obs=self._obs,
            )
            decided = execute_pipeline(ctx, [FilterStage(), IntegrateStage()])
            answer = tuple(sorted({*kept, *decided}))
        return SafeRegion.build(
            query, answer, anchor_rect=rect, superset=superset
        )
