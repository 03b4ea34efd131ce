"""Deterministic, zero-dependency metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` holds named metrics and renders them as a
Prometheus-style text exposition (``# TYPE`` headers, ``name{label="v"}
value`` sample lines).  Three properties make it safe to wire through the
query engine's hot paths:

- **Deterministic output.**  Histograms use *fixed* bucket edges supplied
  at registration (never adaptive ones), and ``render()`` sorts metric
  families by name and samples by label values, so two runs over the same
  workload produce byte-identical expositions (timing histograms aside).
- **Lock-free batch merging.**  ``run_batch`` gives every query its own
  child registry and folds them back with :meth:`MetricsRegistry.merge`
  in *input order* after the pool drains — no locks on the hot path, no
  dependence on completion order.
- **No RNG, no side effects.**  Recording a sample touches plain Python
  floats and dicts only, so enabling metrics cannot perturb seeded
  sampling streams — engine results stay bit-identical on or off.

Example — the exposition format::

    >>> registry = MetricsRegistry()
    >>> queries = registry.counter(
    ...     "repro_queries_total", "Queries executed")
    >>> queries.inc()
    >>> rejections = registry.counter(
    ...     "repro_filter_rejections_total",
    ...     "Phase-2 rejections by strategy", labelnames=("strategy",))
    >>> rejections.inc(3, strategy="RR")
    >>> rejections.inc(2, strategy="BF")
    >>> cands = registry.histogram(
    ...     "repro_phase3_candidates", "Candidates reaching Phase 3",
    ...     buckets=(1, 10, 100))
    >>> cands.observe(7)
    >>> print(registry.render())
    # TYPE repro_filter_rejections_total counter
    repro_filter_rejections_total{strategy="BF"} 2
    repro_filter_rejections_total{strategy="RR"} 3
    # TYPE repro_phase3_candidates histogram
    repro_phase3_candidates_bucket{le="1"} 0
    repro_phase3_candidates_bucket{le="10"} 1
    repro_phase3_candidates_bucket{le="100"} 1
    repro_phase3_candidates_bucket{le="+Inf"} 1
    repro_phase3_candidates_sum 7
    repro_phase3_candidates_count 1
    # TYPE repro_queries_total counter
    repro_queries_total 1

Merging child registries (how ``run_batch`` aggregates workers)::

    >>> child = MetricsRegistry()
    >>> child.counter("repro_queries_total", "Queries executed").inc(4)
    >>> registry.merge(child)
    >>> registry.get_sample("repro_queries_total")
    5.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "COUNT_BUCKETS",
    "QUEUE_BUCKETS",
]

#: Fixed bucket edges (seconds) for every duration histogram in the
#: telemetry contract — spans ~0.1 ms .. 10 s, log-ish spacing.
TIME_BUCKETS: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixed bucket edges for candidate/result-count histograms.
COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)

#: Fixed bucket edges for the serving layer's small-cardinality
#: distributions (queue depth at drain time, coalesced micro-batch
#: sizes): powers of two so doubling the batch window shifts mass by
#: exactly one bucket.
QUEUE_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_key(
    labelnames: tuple[str, ...], labels: dict[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ReproError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_labels(labelnames: tuple[str, ...], key: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{value}"' for name, value in zip(labelnames, key)
    )
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    name: str
    help: str
    labelnames: tuple[str, ...] = ()
    _samples: dict[tuple[str, ...], float] = field(default_factory=dict)

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(self.labelnames, labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(self.labelnames, labels), 0.0)

    def merge(self, other: "Counter") -> None:
        for key, value in other._samples.items():
            self._samples[key] = self._samples.get(key, 0.0) + value

    def render(self) -> list[str]:
        lines = [f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._samples):
            lines.append(
                f"{self.name}{_render_labels(self.labelnames, key)} "
                f"{_format_value(self._samples[key])}"
            )
        return lines


@dataclass
class Gauge(Counter):
    """A value that can go up and down; ``merge`` keeps the maximum."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._samples[_label_key(self.labelnames, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def merge(self, other: "Counter") -> None:
        # Max is the only order-independent fold that is also meaningful
        # for the gauges in the contract (cache sizes, worker counts).
        for key, value in other._samples.items():
            self._samples[key] = max(self._samples.get(key, value), value)


@dataclass
class Histogram:
    """Cumulative-bucket histogram over *fixed* edges.

    The edges are part of the telemetry contract: they are supplied at
    registration and never adapt to the data, so expositions from
    different runs and different workers line up bucket for bucket.
    """

    name: str
    help: str
    buckets: tuple[float, ...]
    labelnames: tuple[str, ...] = ()
    _counts: dict[tuple[str, ...], list[int]] = field(default_factory=dict)
    _sums: dict[tuple[str, ...], float] = field(default_factory=dict)
    _totals: dict[tuple[str, ...], int] = field(default_factory=dict)

    kind = "histogram"

    def __post_init__(self) -> None:
        edges = tuple(float(edge) for edge in self.buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ReproError(
                f"histogram {self.name} needs strictly increasing bucket "
                f"edges, got {self.buckets}"
            )
        self.buckets = edges

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                counts[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(self.labelnames, labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(self.labelnames, labels), 0.0)

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ReproError(
                f"histogram {self.name} bucket edges differ: "
                f"{self.buckets} vs {other.buckets}"
            )
        for key, counts in other._counts.items():
            mine = self._counts.setdefault(key, [0] * len(self.buckets))
            for i, c in enumerate(counts):
                mine[i] += c
        for key, value in other._sums.items():
            self._sums[key] = self._sums.get(key, 0.0) + value
        for key, total in other._totals.items():
            self._totals[key] = self._totals.get(key, 0) + total

    def render(self) -> list[str]:
        lines = [f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._counts):
            labels = _render_labels(self.labelnames, key)
            for edge, cumulative in zip(self.buckets, self._counts[key]):
                le = _format_value(edge)
                if labels:
                    bucket_labels = labels[:-1] + f',le="{le}"}}'
                else:
                    bucket_labels = f'{{le="{le}"}}'
                lines.append(
                    f"{self.name}_bucket{bucket_labels} {cumulative}"
                )
            if labels:
                inf_labels = labels[:-1] + ',le="+Inf"}'
            else:
                inf_labels = '{le="+Inf"}'
            lines.append(
                f"{self.name}_bucket{inf_labels} {self._totals[key]}"
            )
            lines.append(
                f"{self.name}_sum{labels} "
                f"{_format_value(self._sums[key])}"
            )
            lines.append(f"{self.name}_count{labels} {self._totals[key]}")
        return lines


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Registration is idempotent: asking for an existing name returns the
    existing metric (with a type/label/bucket consistency check), so the
    engine can declare its metrics lazily from several call sites.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(
        self, name: str, help: str = "", *, labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", *, labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: tuple[float, ...],
        labelnames: tuple[str, ...] = (),
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if (
                not isinstance(existing, Histogram)
                or existing.labelnames != tuple(labelnames)
                or existing.buckets != tuple(float(b) for b in buckets)
            ):
                raise ReproError(
                    f"metric {name!r} already registered with a different "
                    "type, labels or bucket edges"
                )
            return existing
        metric = Histogram(
            name, help, buckets=tuple(buckets), labelnames=tuple(labelnames)
        )
        self._metrics[name] = metric
        return metric

    def _register(self, cls, name: str, help: str, *, labelnames):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(
                labelnames
            ):
                raise ReproError(
                    f"metric {name!r} already registered with a different "
                    "type or labels"
                )
            return existing
        metric = cls(name, help, labelnames=tuple(labelnames))
        self._metrics[name] = metric
        return metric

    def get_sample(self, name: str, **labels: str) -> float:
        """One sample's current value (counter/gauge), for tests and docs."""
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            raise ReproError(
                f"{name} is a histogram; read .count()/.sum() instead"
            )
        return metric.value(**labels)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's samples into this one.

        Counters and histograms add; gauges keep the maximum.  Metrics
        present only in ``other`` are adopted wholesale.  ``run_batch``
        calls this once per query child, in input order, after the worker
        pool has drained — which is what keeps batch metrics lock-free
        *and* deterministic.
        """
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = metric
            else:
                mine.merge(metric)

    def render(self) -> str:
        """The Prometheus-style text exposition, sorted by metric name."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)
