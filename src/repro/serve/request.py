"""Request and response types for the embedded query service.

A :class:`PRQRequest` is one client's PRQ(q, δ, θ) plus its service-level
envelope — deadline, priority, request id.  The service answers every
request with a :class:`PRQResponse` whose ``status`` is always one of the
five ``STATUS_*`` constants; overload and deadline misses are *responses*
(carrying the matching typed :class:`repro.errors.ServiceError`), never
exceptions thrown at the submitting thread.

Determinism contract: a request's :meth:`PRQRequest.seed_sequence` is
derived from a SHA-256 fingerprint of its exact parameters (center,
covariance, δ, θ; :func:`query_fingerprint`), so any sampling
integrator the service forks for it draws the same stream no matter
which micro-batch the request lands in — responses are a pure function
of the request, independent of coalescing.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stats import QueryStats
from repro.errors import ReproError, ServiceError
from repro.gaussian.distribution import Gaussian

__all__ = [
    "PRQRequest",
    "PRQResponse",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_OVERLOADED",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_FAILED",
    "query_fingerprint",
    "query_seed",
]

#: The request completed fully; ``ids`` is the exact PRQ answer.
STATUS_OK = "ok"
#: The request was downgraded to bounded evaluation to meet its deadline;
#: ``ids`` holds only *certain* accepts and ``bounds`` the undecided rest.
STATUS_DEGRADED = "degraded"
#: Admission control rejected the request (queue full); never executed.
STATUS_OVERLOADED = "overloaded"
#: The deadline expired while the request waited in the queue.
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
#: Execution raised a typed error; ``error`` carries it.
STATUS_FAILED = "failed"


def check_deadline(deadline: float | None) -> None:
    """Reject a deadline that is negative or NaN (``None`` means none)."""
    if deadline is not None and not deadline >= 0:
        raise ServiceError(f"deadline must be >= 0 seconds, got {deadline}")


@dataclass(frozen=True)
class PRQRequest:
    """One client request: a PRQ spec plus its service envelope.

    Parameters
    ----------
    gaussian:
        The query object's location distribution N(q, Σ).
    delta, theta:
        The PRQ range and probability threshold (validated exactly as
        :class:`~repro.core.query.ProbabilisticRangeQuery` does).
    deadline:
        Optional latency budget in *seconds from submission*.  A request
        still queued past its deadline is answered
        ``deadline_exceeded``; one that would (predictably) blow the
        budget under full evaluation is downgraded along the cascade and
        answered ``degraded`` with sound probability bounds.
    priority:
        Higher values are drained from the queue first (FIFO within a
        priority level).  Admission control ignores priority: a full
        queue rejects everyone equally.
    request_id:
        Optional caller-supplied correlation id, echoed on the response.
    """

    gaussian: Gaussian
    delta: float
    theta: float
    deadline: float | None = None
    priority: int = 0
    request_id: int | str | None = None

    def __post_init__(self) -> None:
        # Delegate PRQ validation (delta/theta/gaussian checks) eagerly,
        # so a malformed request fails at construction, not deep inside
        # the scheduler thread.
        query = ProbabilisticRangeQuery(self.gaussian, self.delta, self.theta)
        object.__setattr__(self, "_query", query)
        check_deadline(self.deadline)

    @classmethod
    def from_query(
        cls,
        query: ProbabilisticRangeQuery,
        *,
        deadline: float | None = None,
        priority: int = 0,
        request_id: int | str | None = None,
    ) -> "PRQRequest":
        """Wrap an already-built query — including kinded ones — as a request.

        This is how uncertain-target, mixture and k-NN queries
        (:mod:`repro.core.kinds`) ride through the service: the query
        object itself is preserved, so the engine executes it through the
        same kind adapters as a direct ``run_batch`` call.
        """
        request = cls(
            query.gaussian,
            query.delta,
            query.theta,
            deadline=deadline,
            priority=priority,
            request_id=request_id,
        )
        object.__setattr__(request, "_query", query)
        return request

    @property
    def query(self) -> ProbabilisticRangeQuery:
        """The validated PRQ spec this request asks for."""
        return self._query  # type: ignore[attr-defined]

    @functools.cached_property
    def fingerprint(self) -> bytes:
        """:func:`query_fingerprint` of this request's query."""
        return query_fingerprint(self.query)

    def seed_sequence(self) -> np.random.SeedSequence:
        """:func:`query_seed` of this request's query."""
        return query_seed(self.query)


def query_fingerprint(query: ProbabilisticRangeQuery) -> bytes:
    """SHA-256 over the exact query parameters (center, Σ, δ, θ).

    Two queries share a fingerprint iff their parameters are
    bit-identical — the exactness guarantee behind the result cache, the
    service's in-flight coalescing and every fingerprint-seeded
    integrator.  Kinded queries additionally hash their kind tag and the
    kind parameters (mixture components and weights; k-NN's ``k``,
    sample budget and seed), so a mixture never collides with a plain
    PRQ on its envelope.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(query.gaussian.mean, float).tobytes())
    digest.update(np.ascontiguousarray(query.gaussian.sigma, float).tobytes())
    digest.update(np.float64(query.delta).tobytes())
    digest.update(np.float64(query.theta).tobytes())
    kind = getattr(query, "kind", "prq")
    if kind != "prq":
        digest.update(kind.encode())
    if kind == "mixture":
        mixture = query.mixture  # type: ignore[attr-defined]
        for component, weight in zip(mixture.components, mixture.weights):
            digest.update(np.ascontiguousarray(component.mean, float).tobytes())
            digest.update(np.ascontiguousarray(component.sigma, float).tobytes())
            digest.update(np.float64(weight).tobytes())
    elif kind == "knn":
        digest.update(np.int64(query.k).tobytes())  # type: ignore[attr-defined]
        digest.update(np.int64(query.n_samples).tobytes())  # type: ignore[attr-defined]
        digest.update(repr(query.seed).encode())  # type: ignore[attr-defined]
    return digest.digest()


def query_seed(query: ProbabilisticRangeQuery) -> np.random.SeedSequence:
    """A seed stream that is a pure function of the query parameters.

    The service forks sampling integrators from this, so estimates never
    depend on which micro-batch (or queue position) a request rode in;
    the subscription manager forks every anchor and reintegration from
    it, so a subscription decides exactly as a direct request would.
    """
    return np.random.SeedSequence(
        int.from_bytes(query_fingerprint(query)[:16], "big")
    )


@dataclass(frozen=True)
class PRQResponse:
    """The service's answer to one :class:`PRQRequest`.

    ``status`` is one of the ``STATUS_*`` constants.  For ``degraded``
    responses, ``ids`` lists only objects *proven* to qualify and
    ``bounds`` carries one ``(object_id, lower, upper)`` triple per
    candidate whose qualification probability could not be decided
    against θ within the degraded budget — the interval is a rigorous
    enclosure of the true probability (χ² sandwich bounds), so a client
    can still act soundly on partial information.
    """

    request_id: int | str | None
    status: str
    ids: tuple[int, ...] = ()
    #: True iff ``status == STATUS_DEGRADED``.
    degraded: bool = False
    #: Sound per-candidate probability bounds for undecided candidates
    #: of a degraded response: ``(object_id, lower, upper)`` triples.
    bounds: tuple[tuple[int, float, float], ...] = ()
    #: The typed error behind an ``overloaded``/``deadline_exceeded``/
    #: ``failed`` status; ``None`` on success.
    error: ReproError | None = None
    #: True when the answer came from the result cache (no execution).
    cache_hit: bool = False
    #: Size of the coalesced micro-batch this request executed in
    #: (0 when it never executed: cache hits, rejections).
    batch_size: int = 0
    #: Seconds spent queued before execution started.
    queued_seconds: float = 0.0
    #: Seconds from submission to response completion.
    service_seconds: float = 0.0
    #: Engine statistics for executed requests (``None`` otherwise).
    stats: QueryStats | None = None

    @property
    def ok(self) -> bool:
        """True when the request produced a usable answer (ok/degraded)."""
        return self.status in (STATUS_OK, STATUS_DEGRADED)

    def to_dict(self) -> dict:
        """A JSON-serializable digest (the ``repro serve`` output rows)."""
        payload: dict = {
            "id": self.request_id,
            "status": self.status,
            "ids": list(self.ids),
            "degraded": self.degraded,
            "cache_hit": self.cache_hit,
            "batch_size": self.batch_size,
            "queued_ms": round(self.queued_seconds * 1e3, 3),
            "service_ms": round(self.service_seconds * 1e3, 3),
        }
        if self.bounds:
            payload["bounds"] = [
                [obj_id, lower, upper] for obj_id, lower, upper in self.bounds
            ]
        if self.error is not None:
            payload["error"] = str(self.error)
        return payload
