"""Deadline-aware degradation: bounded answers instead of late ones.

When a request's remaining deadline budget is smaller than the service's
running estimate of full Phase-3 cost, the scheduler downgrades it along
the existing evaluation cascade: Phases 1–2 run unchanged (they are
cheap and exact), but Phase 3 is capped at the cascade's first tier —
the vectorised noncentral-χ² *sandwich bounds* of
:func:`repro.gaussian.quadform.chi2_sandwich_bounds_block`.  One CDF call
over the whole candidate block yields a rigorous ``[lower, upper]``
enclosure of every qualification probability:

- ``lower ≥ θ`` — the candidate *provably* qualifies → returned in
  ``ids``;
- ``upper < θ`` — provably does not qualify → dropped;
- otherwise — undecided; returned in ``bounds`` as an
  ``(object_id, lower, upper)`` triple.

The response is flagged ``degraded=True`` and its bounds are sound: the
true probability always lies inside the reported interval, so a client
can still act safely on it (treat undecided as "maybe", or re-submit
without a deadline).  :class:`CostTracker` supplies the full-cost
prediction — an exponential moving average over recently executed
requests, seeded by a fixed prior.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import FilterStage, SearchStage, StageContext
from repro.core.stats import QueryStats
from repro.errors import ServiceError
from repro.gaussian.quadform import chi2_sandwich_bounds_block

__all__ = ["CostTracker", "degraded_execute", "DEGRADED_TIER"]

#: Weight of the newest sample in :class:`CostTracker`'s moving average.
COST_ALPHA = 0.2
#: Factor on the predicted full-execution cost a deadline must cover:
#: > 1 degrades borderline requests rather than gambling on them.
DEGRADE_SAFETY = 2.0

#: Phase-3 decision label degraded requests record in
#: ``QueryStats.tier_decisions`` (mirrors the cascade's ``cascade-*``).
DEGRADED_TIER = "degraded-sandwich"


class CostTracker:
    """Exponential moving average of full per-request execution cost.

    The scheduler feeds it each executed request's wall seconds; the
    degradation check asks :meth:`predict` whether a pending request's
    remaining budget covers a full execution (with the
    :data:`DEGRADE_SAFETY` factor, so a borderline request degrades
    rather than gambles).  Before any sample
    arrives the tracker predicts ``prior`` seconds — choose it generous
    so a cold service degrades conservatively only for genuinely tight
    deadlines.
    """

    def __init__(self, *, prior: float):
        if prior <= 0:
            raise ServiceError(f"prior must be > 0 seconds, got {prior}")
        self._ema = float(prior)
        self._samples = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Fold one executed request's wall seconds into the average."""
        if seconds < 0:
            return
        with self._lock:
            if self._samples == 0:
                self._ema = float(seconds)
            else:
                self._ema += COST_ALPHA * (float(seconds) - self._ema)
            self._samples += 1

    def predict(self) -> float:
        """Predicted seconds to fully execute one request."""
        with self._lock:
            return self._ema

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def would_exceed(self, remaining: float) -> bool:
        """True when ``remaining`` seconds cannot cover a full run."""
        return remaining < self.predict() * DEGRADE_SAFETY


def sandwich_triage(
    gaussian, ids: np.ndarray, points: np.ndarray, delta: float, theta: float
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Decide what one sandwich pass over ``points`` can decide.

    Returns ``(accept, bounds)``: the boolean mask of rows with
    ``lower ≥ θ``, and one ``(id, lower, upper)`` triple, sorted by id,
    per row with ``lower < θ ≤ upper``.  Rows with ``upper < θ`` are
    dropped.
    """
    enclosure = chi2_sandwich_bounds_block(gaussian, points, delta)
    lower, upper = enclosure[:, 0], enclosure[:, 1]
    accept = lower >= theta
    undecided = ~accept & (upper >= theta)
    bounds = [
        (int(obj_id), float(lo), float(hi))
        for obj_id, lo, hi in zip(ids[undecided], lower[undecided], upper[undecided])
    ]
    bounds.sort(key=lambda triple: triple[0])
    return accept, bounds


def degraded_execute(
    engine, query: ProbabilisticRangeQuery
) -> tuple[tuple[int, ...], tuple[tuple[int, float, float], ...], QueryStats]:
    """Run Phases 1–2 fully, then bound Phase 3 with one sandwich pass.

    Returns ``(certain_ids, bounds, stats)``: the sorted ids proven to
    qualify (filter free-accepts plus sandwich ``lower ≥ θ``), one
    ``(object_id, lower, upper)`` triple per undecided candidate, and the
    usual per-phase statistics (Phase-3 decisions recorded under
    ``degraded-sandwich``).  Uses fresh strategy clones, so the engine —
    and any concurrent full batch on it — is never mutated.
    """
    stats = QueryStats()
    strategies = [s.clone() for s in engine.strategies]
    ctx = StageContext(query, strategies, engine.integrator, stats)
    with stats.time_phase("search"):
        SearchStage(engine.index).run(ctx)
    bounds: list[tuple[int, float, float]] = []
    if not ctx.finished:
        with stats.time_phase("filter"):
            FilterStage().run(ctx)
        assert ctx.undecided is not None and ctx.candidate_ids is not None
        rows = np.nonzero(ctx.undecided)[0]
        stats.integrations = int(rows.size)
        if rows.size:
            with stats.time_phase("integrate"):
                accept, bounds = sandwich_triage(
                    query.gaussian,
                    ctx.candidate_ids[rows],
                    ctx.points[rows],
                    query.delta,
                    query.theta,
                )
                ctx.accept_mask()[rows[accept]] = True
                stats.note_decision(DEGRADED_TIER, int(rows.size))
    ids = ctx.answer()
    stats.results = len(ids)
    return ids, tuple(bounds), stats
