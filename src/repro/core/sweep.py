"""Amortized evaluation of one query at many probability thresholds.

Exploring "how does the answer change with θ" (the paper's §V-B-3 sweep,
or an end user tuning confidence) naively costs one full query per θ.
But the expensive quantity — each candidate's qualification probability —
does not depend on θ at all.  :func:`threshold_sweep` evaluates the
probabilities once over the *widest* region (the smallest θ requested) and
then answers every threshold by comparison, guaranteeing mutually
consistent, monotonically nested answer sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import reject_only_candidates
from repro.core.strategies import make_strategies
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.exact import ExactIntegrator

__all__ = ["ThresholdSweepResult", "threshold_sweep"]


@dataclass(frozen=True)
class ThresholdSweepResult:
    """Probabilities for every candidate plus per-θ answer sets."""

    candidate_ids: tuple[int, ...]
    probabilities: tuple[float, ...]
    answers: dict[float, tuple[int, ...]]

    def answer(self, theta: float) -> tuple[int, ...]:
        try:
            return self.answers[theta]
        except KeyError:
            raise QueryError(
                f"theta={theta} was not part of the sweep; available: "
                f"{sorted(self.answers)}"
            ) from None


def threshold_sweep(
    database: SpatialDatabase,
    gaussian: Gaussian,
    delta: float,
    thetas,
    *,
    strategies: str = "all",
    integrator: ProbabilityIntegrator | None = None,
) -> ThresholdSweepResult:
    """Answer PRQ(gaussian, delta, θ) for every θ in ``thetas`` at the cost
    of (roughly) the single widest query.

    Phases 1+2 run once at θ_min (whose region is a superset of every
    other θ's region); BF acceptance is disabled for that pass because an
    acceptance at θ_min does not certify larger thresholds.  Probabilities
    are evaluated once; each answer set is a simple comparison.
    """
    theta_list = sorted(float(t) for t in thetas)
    if not theta_list:
        raise QueryError("thetas must be non-empty")
    if theta_list[0] <= 0.0 or theta_list[-1] >= 1.0:
        raise QueryError(f"every theta must lie in (0, 1), got {theta_list}")
    evaluator = integrator or ExactIntegrator()
    theta_min = theta_list[0]
    query = ProbabilisticRangeQuery(gaussian, delta, theta_min)

    kept, points = reject_only_candidates(
        database.index, query, make_strategies(strategies)
    )
    kept_ids = tuple(kept.tolist())
    estimates = evaluator.qualification_probabilities(gaussian, points, delta)
    probabilities = tuple(result.estimate for result in estimates)

    answers: dict[float, tuple[int, ...]] = {}
    for theta in theta_list:
        answers[theta] = tuple(
            sorted(
                obj_id
                for obj_id, probability in zip(kept_ids, probabilities)
                if probability >= theta
            )
        )
    return ThresholdSweepResult(kept_ids, probabilities, answers)
