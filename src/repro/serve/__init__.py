"""repro.serve — an embedded, zero-network query service.

The serving layer turns one :class:`~repro.core.database.SpatialDatabase`
into a long-lived, thread-safe query endpoint without any network stack:
clients in the same process :meth:`~QueryService.submit`
:class:`PRQRequest` objects and receive futures of typed
:class:`PRQResponse` answers.  A single scheduler thread coalesces
concurrent requests into the engine's batched execution path (dynamic
micro-batching), enforces admission control at a bounded queue, degrades
deadline-pressed requests to sound sandwich-bound answers, and serves
repeated requests from a keyed LRU result cache.

Entry points::

    service = db.serve(max_batch=32, batch_window=0.002)   # or QueryService(db, ...)
    response = service.submit(PRQRequest(gaussian, delta, theta)).result()

``repro serve`` exposes the same loop over JSON-lines on the command
line.  The full lifecycle, batching knobs, degradation semantics and
telemetry contract are documented in ``docs/serving.md``.

The service also hosts *standing* queries: ``service.monitor`` is a
:class:`SubscriptionManager` that anchors each subscription to a
pre-approximated safe region and answers location updates in O(1)
whenever the cached answer provably survives (``docs/monitoring.md``).
"""

from __future__ import annotations

from repro.serve.batching import AdmissionQueue
from repro.serve.cache import ResultCache
from repro.serve.degrade import DEGRADED_TIER, CostTracker, degraded_execute
from repro.serve.monitor import (
    MonitorResponse,
    MonitorSnapshot,
    OUTCOME_DEGRADED,
    OUTCOME_REINTEGRATED,
    OUTCOME_REPLANNED,
    OUTCOME_SURVIVED,
    REQUEST_NOTIFY,
    REQUEST_SUBSCRIBE,
    REQUEST_TYPES,
    REQUEST_UNSUBSCRIBE,
    REQUEST_UPDATE,
    SubscriptionManager,
)
from repro.serve.request import (
    PRQRequest,
    PRQResponse,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OVERLOADED,
)
from repro.serve.service import QueryService, ServiceConfig, ServiceSnapshot

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceSnapshot",
    "PRQRequest",
    "PRQResponse",
    "SubscriptionManager",
    "MonitorSnapshot",
    "MonitorResponse",
    "AdmissionQueue",
    "ResultCache",
    "CostTracker",
    "degraded_execute",
    "DEGRADED_TIER",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_OVERLOADED",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_FAILED",
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
