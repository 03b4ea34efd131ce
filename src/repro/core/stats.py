"""Per-query statistics: phase timings and candidate counters.

The paper's evaluation reports exactly these quantities — Table I is
Phase-1+2+3 wall time, Table II/III are candidate counts entering Phase 3
— so the engine records them on every execution.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["QueryStats", "BatchStats"]


@dataclass
class QueryStats:
    """Counters and wall-clock timings for one query execution.

    ``integrations`` is the paper's headline cost driver: the number of
    candidates that reached numerical integration (the "number of
    candidates" columns of Tables II and III).
    """

    retrieved: int = 0
    rejected_by_filter: dict[str, int] = field(default_factory=dict)
    accepted_without_integration: int = 0
    integrations: int = 0
    results: int = 0
    #: Wall time per pipeline stage, keyed by the stage's phase label.
    #: A ``strategies="auto"`` engine adds ``"plan"`` ahead of
    #: the pipeline's own ``"search"``/``"filter"``/``"integrate"``;
    #: other callers of :meth:`time_phase` may introduce further keys.
    #: ``Observability.record_query`` folds each entry into the
    #: ``repro_phase_seconds{phase=...}`` histogram (docs/observability.md).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    integration_samples: int = 0
    #: Phase-3 decisions keyed by the deciding evaluator's method label —
    #: for the cascade this is the per-tier breakdown
    #: ("cascade-sandwich"/"cascade-ruben"/"cascade-imhof").
    tier_decisions: dict[str, int] = field(default_factory=dict)
    empty_by_strategy: str | None = None
    #: Strategy names of the ``"auto"`` plan (None = fixed engine).
    plan_strategies: tuple[str, ...] | None = None
    #: Always None: the planner keeps no plan cache.
    plan_cache_hit: bool | None = None

    @contextmanager
    def time_phase(self, phase: str):
        """Accumulate wall time into ``phase_seconds[phase]``.

        The engine uses the stage labels ``'search'``/``'filter'``/
        ``'integrate'`` plus ``'plan'`` when a planner runs;
        the label set is open — whatever key is passed becomes a
        ``phase_seconds`` entry (and a ``phase`` label value in the
        exported metrics).
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + elapsed

    @classmethod
    def combine(cls, parts: Sequence["QueryStats"]) -> "QueryStats":
        """One query's stats from those of its disjoint parts — the legs
        of an uncertain-target query, or a shard coordinator and its tasks.

        Counters and timings add up, the planned strategy names are the
        parts' ordered union, and the query is proven empty only if
        every part was.  A single part is returned as is.
        """
        if len(parts) == 1:
            return parts[0]
        total = cls()
        for part in parts:
            _add_counters(total, part)
            if part.plan_strategies is not None:
                total.plan_strategies = tuple(dict.fromkeys(
                    (*(total.plan_strategies or ()), *part.plan_strategies)
                ))
        if all(part.empty_by_strategy for part in parts):
            total.empty_by_strategy = parts[0].empty_by_strategy
        return total

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected_by_filter.values())

    def note_rejections(self, strategy_name: str, count: int) -> None:
        if count:
            self.rejected_by_filter[strategy_name] = (
                self.rejected_by_filter.get(strategy_name, 0) + count
            )

    def note_decision(self, method: str, count: int = 1) -> None:
        """Record a Phase-3 θ-decision made by evaluator tier ``method``."""
        if count:
            self.tier_decisions[method] = (
                self.tier_decisions.get(method, 0) + count
            )

    def summary(self) -> str:
        """One-line human-readable digest used by the bench harness."""
        phases = ", ".join(
            f"{name}={seconds * 1e3:.1f}ms"
            for name, seconds in self.phase_seconds.items()
        )
        return (
            f"retrieved={self.retrieved} rejected={self.total_rejected} "
            f"accepted_free={self.accepted_without_integration} "
            f"integrated={self.integrations} results={self.results} [{phases}]"
        )


@dataclass
class BatchStats:
    """Aggregate counters over one ``QueryEngine.run``/``run_batch`` call.

    Per-query ``QueryStats`` remain available on each ``QueryResult``;
    this rolls them up into the totals a capacity planner reads first.
    ``wall_seconds`` is the end-to-end batch wall time — under parallel
    execution it is less than ``cpu_seconds``, the sum of the per-query
    phase timings.
    """

    n_queries: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    #: Queries that failed with a captured typed error
    #: (``run_batch(..., return_errors=True)``); their counters are all
    #: zero, so the other aggregates cover successful queries only.
    failed: int = 0
    retrieved: int = 0
    rejected_by_filter: dict[str, int] = field(default_factory=dict)
    accepted_without_integration: int = 0
    integrations: int = 0
    integration_samples: int = 0
    tier_decisions: dict[str, int] = field(default_factory=dict)
    results: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    #: Queries that went through the ``"auto"`` planner.
    planned_queries: int = 0

    @classmethod
    def of(cls, results, *, workers: int, wall_seconds: float) -> "BatchStats":
        """Roll one batch's ``QueryResult`` list up into its totals."""
        batch = cls(workers=workers, wall_seconds=wall_seconds)
        for result in results:
            batch.merge(result.stats)
            batch.failed += result.failed
        return batch

    def merge(self, stats: QueryStats) -> None:
        """Fold one query's counters into the batch totals."""
        self.n_queries += 1
        _add_counters(self, stats)
        if stats.plan_strategies is not None:
            self.planned_queries += 1
        self.latencies.append(stats.total_seconds)

    @property
    def cpu_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected_by_filter.values())

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds > 0:
            return self.n_queries / self.wall_seconds
        return float("inf")

    def summary(self) -> str:
        """One-line digest of the whole batch."""
        failures = f" failed={self.failed}" if self.failed else ""
        return (
            f"queries={self.n_queries} workers={self.workers} "
            f"wall={self.wall_seconds * 1e3:.1f}ms "
            f"retrieved={self.retrieved} rejected={self.total_rejected} "
            f"accepted_free={self.accepted_without_integration} "
            f"integrated={self.integrations} results={self.results}"
            f"{failures}"
        )


def _add_counters(total: QueryStats | BatchStats, part: QueryStats) -> None:
    """Add ``part``'s additive counters and phase timings into ``total``:
    the one fold behind :meth:`QueryStats.combine` and
    :meth:`BatchStats.merge`."""
    total.retrieved += part.retrieved
    total.accepted_without_integration += part.accepted_without_integration
    total.integrations += part.integrations
    total.integration_samples += part.integration_samples
    total.results += part.results
    for into, counts in (
        (total.rejected_by_filter, part.rejected_by_filter),
        (total.tier_decisions, part.tier_decisions),
        (total.phase_seconds, part.phase_seconds),
    ):
        for key, value in counts.items():
            into[key] = into.get(key, 0) + value
