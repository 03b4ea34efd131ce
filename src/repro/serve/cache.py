"""Exact-fingerprint result LRU cache for the query service.

Every entry is keyed on the request's SHA-256 fingerprint (center, Σ, δ,
θ; :func:`repro.serve.request.query_fingerprint`) — a hit therefore only
ever returns the result of a bit-identical request, never of a merely
similar one, so cached responses are exactly what re-execution would
produce.  This is the serving-time reuse the pre-approximation
literature argues for, applied at the level of whole results.

Thread-safe; hit/miss counters are published to the metrics registry as
``repro_serve_cache_requests_total{outcome=...}`` plus entry/capacity
gauges (see ``docs/serving.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ServiceError
from repro.serve.request import PRQRequest

__all__ = ["ResultCache"]


class ResultCache:
    """LRU map from exact request identity to result id tuples.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted beyond it.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ServiceError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[bytes, tuple[int, ...]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, request: PRQRequest) -> tuple[int, ...] | None:
        """The cached result ids for an identical past request, or None."""
        key = request.fingerprint
        with self._lock:
            ids = self._entries.get(key)
            if ids is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return ids

    def put(self, request: PRQRequest, ids: tuple[int, ...]) -> None:
        """Remember a *non-degraded* result for ``request``."""
        key = request.fingerprint
        with self._lock:
            self._entries[key] = tuple(ids)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> dict[str, int]:
        """Hit/miss counters plus current and maximum size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "currsize": len(self._entries),
                "maxsize": self.max_entries,
            }

    def publish_metrics(self, registry) -> None:
        """Snapshot cache state into a metrics registry (gauges)."""
        if registry is None:
            return
        info = self.info()
        registry.gauge(
            "repro_serve_cache_entries",
            "Results currently resident in the serve cache.",
        ).set(info["currsize"])
        registry.gauge(
            "repro_serve_cache_size",
            "Configured serve result-cache capacity.",
        ).set(info["maxsize"])
