"""The embedded query service: one resident process, many clients.

:class:`QueryService` owns a :class:`~repro.core.database.SpatialDatabase`
plus one warm :class:`~repro.core.engine.QueryEngine`.  Incoming :class:`~repro.serve.request.PRQRequest`
objects land in a bounded :class:`~repro.serve.batching.AdmissionQueue`;
a single scheduler thread drains them under the batch-window/max-batch
policy and coalesces each drain into one
:meth:`~repro.core.engine.QueryEngine.run_batch` call — concurrent
clients get the engine's batch speedup without knowing about each other.

Service guarantees (the contract ``docs/serving.md`` spells out):

- **Admission control** — a full queue rejects immediately with a typed
  ``overloaded`` response; ``submit`` never blocks and never throws for
  load reasons.
- **Deadline awareness** — a request still queued past its deadline gets
  ``deadline_exceeded``; one that would predictably blow its budget is
  downgraded to sandwich-bound evaluation and answered ``degraded`` with
  sound probability bounds (:mod:`repro.serve.degrade`).
- **Fault isolation** — a request whose execution raises fails alone
  (``run_batch(..., return_errors=True)``); the scheduler, the pool and
  every other in-flight request are unaffected.
- **Determinism** — non-degraded responses are bit-identical to running
  the same query through ``run_batch`` directly: the default integrator
  (the deterministic cascade) draws no randomness, and sampling
  integrators are forked from each request's parameter-derived seed, so
  coalescing never changes results.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field

from repro.core.engine import QueryResult
from repro.core.kinds import query_kind
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    QueryError,
    ServiceClosedError,
    ServiceError,
)
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.cascade import CascadeIntegrator
from repro.obs import QUEUE_BUCKETS, TIME_BUCKETS, Observability, span_of
from repro.serve.batching import AdmissionQueue
from repro.serve.cache import ResultCache
from repro.serve.degrade import CostTracker, degraded_execute
from repro.serve.monitor import SubscriptionManager
from repro.serve.request import (
    PRQRequest,
    PRQResponse,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OVERLOADED,
)

__all__ = ["ServiceConfig", "ServiceSnapshot", "QueryService"]

#: Cold-start full-execution cost prediction, seconds, until the first
#: executed request feeds the :class:`~repro.serve.degrade.CostTracker`.
COST_PRIOR = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`QueryService` (all have serving defaults).

    ``max_batch``/``batch_window`` are the micro-batching policy: a drain
    coalesces at most ``max_batch`` requests and waits at most
    ``batch_window`` seconds after the first arrival for company.
    ``max_queue`` bounds admission; ``workers`` fans the coalesced
    ``run_batch`` out over threads.  ``cache_size=0`` disables the
    result cache.
    """

    max_queue: int = 256
    max_batch: int = 32
    batch_window: float = 0.002
    workers: int = 4
    strategies: str = "all"
    integrator: ProbabilityIntegrator | None = None
    cache_size: int = 1024
    degrade: bool = True
    obs: Observability | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if not 0 <= self.batch_window < math.inf:
            raise ServiceError(
                f"batch_window must be finite and >= 0 seconds, "
                f"got {self.batch_window}"
            )
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.cache_size < 0:
            raise ServiceError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )


@dataclass(frozen=True)
class ServiceSnapshot:
    """A structured, point-in-time view of one service's internal state.

    :meth:`QueryService.snapshot` returns this instead of making callers
    scrape the Prometheus exposition: load harnesses, dashboards and
    tests read queue depth, in-flight count, cache hit rate and the
    shed/coalesced counters as plain typed fields.  All counters are
    cumulative since service start; ``queue_depth``/``in_flight``/
    ``cache_entries`` are instantaneous.
    """

    #: Requests currently waiting in the admission queue.
    queue_depth: int
    #: Configured admission bound (``ServiceConfig.max_queue``).
    queue_capacity: int
    #: Submitted requests without a terminal response yet (queued or
    #: mid-execution).
    in_flight: int
    submitted: int
    #: Full-fidelity engine executions (post-coalescing leaders).
    executed: int
    ok: int
    degraded: int
    overloaded: int
    deadline_exceeded: int
    failed: int
    cache_hits: int
    cache_misses: int
    #: Entries resident in the result cache (0 when caching is off).
    cache_entries: int
    #: hits / (hits + misses), 0.0 before any lookup.
    cache_hit_rate: float
    #: In-flight duplicates coalesced into another request's execution.
    deduplicated: int
    batches: int
    coalesced_batches: int
    max_batch_size: int

    def to_dict(self) -> dict:
        """A JSON-serializable dict (the ``repro load`` report rows)."""
        return asdict(self)


class _Pending:
    """One queued request with its future and submission timestamp."""

    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: PRQRequest, future: Future, enqueued_at: float):
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at

    @property
    def priority(self) -> int:
        return self.request.priority

    def remaining(self, now: float) -> float:
        """Seconds of deadline budget left (+inf without a deadline)."""
        if self.request.deadline is None:
            return float("inf")
        return self.request.deadline - (now - self.enqueued_at)


class QueryService:
    """A resident, thread-safe PRQ service over one spatial database.

    Construct directly or via :meth:`SpatialDatabase.serve`; the
    scheduler thread starts immediately and runs until :meth:`close`
    (also a context manager).  :meth:`submit` returns a
    :class:`concurrent.futures.Future` resolving to a
    :class:`PRQResponse`.  The keyword knobs are :class:`ServiceConfig`'s
    fields, validated into ``service.config``.
    """

    def __init__(self, database, **knobs):
        # ``clock`` is injectable for tests: every deadline/degradation
        # decision and every latency figure reads it instead of the wall
        # clock, so deadline behaviour can be driven deterministically.
        clock = knobs.pop("clock", None)
        self._clock = clock if clock is not None else time.monotonic
        self.config = ServiceConfig(**knobs)
        self.database = database
        integrator = self.config.integrator or CascadeIntegrator()
        self._obs = self.config.obs
        self.engine = database.engine(
            strategies=self.config.strategies,
            integrator=integrator,
            obs=self._obs,
        )
        self._queue = AdmissionQueue(self.config.max_queue, clock=self._clock)
        self._cache = (
            ResultCache(self.config.cache_size)
            if self.config.cache_size > 0
            else None
        )
        self._cost = CostTracker(prior=COST_PRIOR)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {
            "submitted": 0,
            "executed": 0,
            "ok": 0,
            "degraded": 0,
            "overloaded": 0,
            "deadline_exceeded": 0,
            "failed": 0,
            "cache_hits": 0,
            "deduplicated": 0,
            "batches": 0,
            "coalesced_batches": 0,
            "max_batch_size": 0,
        }
        self._published: dict[str, int] = {}
        # Standing queries: the subscription manager shares the engine
        # (and clock/obs) but answers synchronously on the caller's
        # thread, bypassing the micro-batch queue.  Constructed before
        # the scheduler thread starts so its metrics registration never
        # races the registry (which is not locked).
        self.monitor = SubscriptionManager(
            database,
            self.engine,
            degrade=self.config.degrade,
            obs=self._obs,
            clock=self._clock,
        )
        self._closing = threading.Event()
        self._scheduler = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True
        )
        self._scheduler.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, request: PRQRequest) -> "Future[PRQResponse]":
        """Enqueue one request; never blocks on load.

        Returns a future resolving to the request's :class:`PRQResponse`.
        Cache hits resolve immediately; a full queue resolves immediately
        with an ``overloaded`` response (carrying
        :class:`~repro.errors.OverloadedError`) instead of blocking or
        raising.  Only misuse raises: submitting to a closed service is
        a :class:`~repro.errors.ServiceClosedError`, and a wrong-
        dimension request a :class:`~repro.errors.QueryError`.
        """
        if self._closing.is_set():
            raise ServiceClosedError("service is closed")
        if request.gaussian.dim != self.database.dim:
            raise QueryError(
                f"request dimension {request.gaussian.dim} does not match "
                f"database dimension {self.database.dim}"
            )
        self._count("submitted")
        future: Future = Future()
        if self._cache is not None:
            cached = self._cache.get(request)
            if cached is not None:
                self._count("cache_hits")
                self._count("ok")
                future.set_result(
                    PRQResponse(
                        request_id=request.request_id,
                        status=STATUS_OK,
                        ids=cached,
                        cache_hit=True,
                    )
                )
                return future
        pending = _Pending(request, future, self._clock())
        try:
            admitted = self._queue.offer(pending)
        except ServiceError:
            raise ServiceClosedError("service is closed") from None
        if not admitted:
            self._count("overloaded")
            future.set_result(
                PRQResponse(
                    request_id=request.request_id,
                    status=STATUS_OVERLOADED,
                    error=OverloadedError(self.config.max_queue),
                )
            )
        return future

    def snapshot(self) -> ServiceSnapshot:
        """Structured service state for harnesses and dashboards.

        Queue depth, in-flight count, cache hit rate and the shed/coalesced
        counters as one frozen :class:`ServiceSnapshot`, so callers never
        scrape the Prometheus text exposition for state they can read
        directly.
        """
        with self._lock:
            c = dict(self._counters)
        cache_info = self._cache.info() if self._cache is not None else None
        hits = c["cache_hits"]
        misses = cache_info["misses"] if cache_info is not None else 0
        lookups = hits + misses
        resolved = (
            c["ok"]
            + c["degraded"]
            + c["overloaded"]
            + c["deadline_exceeded"]
            + c["failed"]
        )
        return ServiceSnapshot(
            queue_depth=len(self._queue),
            queue_capacity=self.config.max_queue,
            in_flight=max(c["submitted"] - resolved, 0),
            cache_misses=misses,
            cache_entries=(
                cache_info["currsize"] if cache_info is not None else 0
            ),
            cache_hit_rate=hits / lookups if lookups else 0.0,
            **c,
        )

    @property
    def clock(self):
        """The service's time source (injected, or ``time.monotonic``)."""
        return self._clock

    def close(self, *, timeout: float = 30.0) -> None:
        """Stop accepting requests, drain the queue, join the scheduler.

        Every request admitted before ``close`` still gets its response.
        Idempotent; also invoked by the context-manager exit.
        """
        if self._closing.is_set():
            self._scheduler.join(timeout=timeout)
            return
        self._closing.set()
        self._scheduler.join(timeout=timeout)
        if self._scheduler.is_alive():  # pragma: no cover - defensive
            raise ServiceError("scheduler failed to drain within timeout")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def _loop(self) -> None:
        poll = max(self.config.batch_window, 0.01)
        while True:
            batch = self._queue.next_batch(
                max_batch=self.config.max_batch,
                window=self.config.batch_window,
                poll=poll,
            )
            if batch:
                try:
                    self._process(batch)
                except BaseException as exc:  # pragma: no cover - last resort
                    self._fail_batch(batch, exc)
                continue
            if self._closing.is_set() and len(self._queue) == 0:
                self._queue.close()
                self._flush_metrics()
                break

    def _fail_batch(self, batch: list[_Pending], exc: BaseException) -> None:
        """Resolve a batch whose processing itself blew up (never hangs)."""
        error = (
            exc
            if isinstance(exc, ServiceError)
            else ServiceError(f"scheduler failure: {type(exc).__name__}: {exc}")
        )
        for pending in batch:
            if not pending.future.done():
                self._count("failed")
                pending.future.set_result(
                    PRQResponse(
                        request_id=pending.request.request_id,
                        status=STATUS_FAILED,
                        error=error,
                    )
                )

    def _process(self, batch: list[_Pending]) -> None:
        now = self._clock()
        depth = len(batch) + len(self._queue)
        expired: list[_Pending] = []
        degrade: list[_Pending] = []
        full: list[_Pending] = []
        for pending in batch:
            remaining = pending.remaining(now)
            if remaining <= 0:
                expired.append(pending)
            elif (
                self.config.degrade
                # Sandwich-bound degradation only exists for exact-target
                # PRQs; kinded queries always run the full pipeline.
                and query_kind(pending.request.query) == "prq"
                and self._cost.would_exceed(remaining)
            ):
                degrade.append(pending)
            else:
                full.append(pending)
        with span_of(
            self._obs,
            "serve:batch",
            size=len(batch),
            full=len(full),
            degraded=len(degrade),
            expired=len(expired),
        ):
            for pending in expired:
                self._resolve_expired(pending, now)
            for pending in degrade:
                self._resolve_degraded(pending)
            if full:
                self._run_full(full)
        self._count("batches")
        if len(full) > 1:
            self._count("coalesced_batches")
        with self._lock:
            self._counters["max_batch_size"] = max(
                self._counters["max_batch_size"], len(full)
            )
        self._record_metrics(batch, depth, len(full))

    def _resolve_expired(self, pending: _Pending, now: float) -> None:
        waited = now - pending.enqueued_at
        self._count("deadline_exceeded")
        pending.future.set_result(
            PRQResponse(
                request_id=pending.request.request_id,
                status=STATUS_DEADLINE_EXCEEDED,
                error=DeadlineExceededError(
                    pending.request.deadline or 0.0, waited
                ),
                queued_seconds=waited,
                service_seconds=self._clock() - pending.enqueued_at,
            )
        )

    def _resolve_degraded(self, pending: _Pending) -> None:
        started = self._clock()
        try:
            ids, bounds, stats = degraded_execute(
                self.engine, pending.request.query
            )
        except Exception as exc:
            self._resolve_failed(pending, exc, started)
            return
        self._count("degraded")
        if self._obs is not None:
            self._obs.record_query(stats)
        pending.future.set_result(
            PRQResponse(
                request_id=pending.request.request_id,
                status=STATUS_DEGRADED,
                ids=ids,
                degraded=True,
                bounds=bounds,
                batch_size=1,
                queued_seconds=started - pending.enqueued_at,
                service_seconds=self._clock() - pending.enqueued_at,
                stats=stats,
            )
        )

    def _resolve_failed(
        self, pending: _Pending, exc: Exception, started: float
    ) -> None:
        error = (
            exc
            if isinstance(exc, ServiceError)
            else QueryError(f"execution failed: {type(exc).__name__}: {exc}")
        )
        self._count("failed")
        pending.future.set_result(
            PRQResponse(
                request_id=pending.request.request_id,
                status=STATUS_FAILED,
                error=error,
                queued_seconds=started - pending.enqueued_at,
                service_seconds=self._clock() - pending.enqueued_at,
            )
        )

    def _run_full(self, full: list[_Pending]) -> None:
        """One coalesced ``run_batch`` over every full-fidelity request.

        Bit-identical in-flight duplicates (same parameter fingerprint)
        are coalesced into a single execution whose result fans out to
        every copy — the thundering-herd half of the caching story, and
        on a single core the main micro-batching throughput win.  Sound
        because a response is a pure function of the request fingerprint
        (deterministic integrators trivially; sampling integrators via
        the fingerprint-derived seed).
        """
        started = self._clock()
        groups: dict[bytes, list[_Pending]] = {}
        for pending in full:
            groups.setdefault(pending.request.fingerprint, []).append(pending)
        leaders = [copies[0] for copies in groups.values()]
        self._count("deduplicated", len(full) - len(leaders))
        queries = [pending.request.query for pending in leaders]
        by_query = {id(q): p.request for q, p in zip(queries, leaders)}

        def factory(query, _seed):
            request = by_query[id(query)]
            return self.engine.integrator.fork(request.seed_sequence())

        batch = self.engine.run_batch(
            queries,
            workers=min(self.config.workers, len(queries)),
            integrator_factory=factory,
            return_errors=True,
        )
        finished = self._clock()
        self._count("executed", len(leaders))
        per_query = (finished - started) / len(leaders)
        for leader, result in zip(leaders, batch.results):
            for pending in groups[leader.request.fingerprint]:
                self._resolve_executed(pending, result, started, len(full))
            if not result.failed:
                self._cost.observe(max(result.stats.total_seconds, per_query))

    def _resolve_executed(
        self,
        pending: _Pending,
        result: QueryResult,
        started: float,
        batch_size: int,
    ) -> None:
        if result.failed:
            self._count("failed")
            pending.future.set_result(
                PRQResponse(
                    request_id=pending.request.request_id,
                    status=STATUS_FAILED,
                    error=result.error,
                    batch_size=batch_size,
                    queued_seconds=started - pending.enqueued_at,
                    service_seconds=self._clock() - pending.enqueued_at,
                    stats=result.stats,
                )
            )
            return
        self._count("ok")
        if self._cache is not None:
            self._cache.put(pending.request, result.ids)
        pending.future.set_result(
            PRQResponse(
                request_id=pending.request.request_id,
                status=STATUS_OK,
                ids=result.ids,
                batch_size=batch_size,
                queued_seconds=started - pending.enqueued_at,
                service_seconds=self._clock() - pending.enqueued_at,
                stats=result.stats,
            )
        )

    # ------------------------------------------------------------------
    # Telemetry (scheduler thread only — the registry is not locked)
    # ------------------------------------------------------------------

    def _record_metrics(
        self, batch: list[_Pending], depth: int, full_size: int
    ) -> None:
        obs = self._obs
        if obs is None or obs.metrics is None:
            return
        registry = obs.metrics
        now = self._clock()
        registry.histogram(
            "repro_serve_queue_depth",
            "Requests queued (including the drained batch) at drain time.",
            buckets=QUEUE_BUCKETS,
        ).observe(depth)
        registry.histogram(
            "repro_serve_batch_size",
            "Coalesced micro-batch sizes (full-fidelity requests per drain).",
            buckets=QUEUE_BUCKETS,
        ).observe(full_size)
        wait_hist = registry.histogram(
            "repro_serve_wait_seconds",
            "Per-request queue wait before execution began.",
            buckets=TIME_BUCKETS,
        )
        for pending in batch:
            wait_hist.observe(max(now - pending.enqueued_at, 0.0))
        self._publish_counters(registry)

    def _flush_metrics(self) -> None:
        """Publish counter increments that landed after the last drain.

        Cache hits and overload rejections are counted at submit time, so
        without a final flush any increment between the last drain and
        ``close`` would never reach the registry.
        """
        obs = self._obs
        if obs is None or obs.metrics is None:
            return
        self._publish_counters(obs.metrics)

    def _publish_counters(self, registry) -> None:
        requests = registry.counter(
            "repro_serve_requests_total",
            "Service responses by terminal status.",
            labelnames=("status",),
        )
        cache_outcomes = registry.counter(
            "repro_serve_cache_requests_total",
            "Result-cache lookups by outcome.",
            labelnames=("outcome",),
        )
        with self._lock:
            snapshot = dict(self._counters)
        cache_info = self._cache.info() if self._cache is not None else None
        deltas = {
            ("status", "ok"): snapshot["ok"],
            ("status", "degraded"): snapshot["degraded"],
            ("status", "overloaded"): snapshot["overloaded"],
            ("status", "deadline_exceeded"): snapshot["deadline_exceeded"],
            ("status", "failed"): snapshot["failed"],
        }
        if cache_info is not None:
            deltas[("outcome", "hit")] = cache_info["hits"]
            deltas[("outcome", "miss")] = cache_info["misses"]
        for (label, value), total in deltas.items():
            key = f"{label}:{value}"
            delta = total - self._published.get(key, 0)
            if delta > 0:
                target = requests if label == "status" else cache_outcomes
                target.inc(delta, **{label: value})
                self._published[key] = total
        dedup_delta = snapshot["deduplicated"] - self._published.get(
            "deduplicated", 0
        )
        if dedup_delta > 0:
            registry.counter(
                "repro_serve_deduplicated_total",
                "In-flight duplicate requests coalesced into one execution.",
            ).inc(dedup_delta)
            self._published["deduplicated"] = snapshot["deduplicated"]
        registry.gauge(
            "repro_serve_queue_capacity", "Configured admission-queue bound."
        ).set(self.config.max_queue)
        if self._cache is not None:
            self._cache.publish_metrics(registry)
