"""Probabilistic nearest-neighbour queries (paper future work, Section VII).

For a Gaussian query object, the qualification probability of a target o
is P(o is among the k nearest objects to the query's true location) — a
d-dimensional integral over the query density of an indicator that depends
on *all* objects at once, so no per-object closed form exists.  The
``knn`` query kind (:class:`repro.core.kinds.KNNCutStrategy` /
:class:`~repro.core.kinds.KNNDecider`) estimates it by Monte Carlo over
the query location: it draws n sample locations from N(q, Σ), keeps the
objects within the sound cut ``2·R + kth(q)`` of q (R the largest sample
distance from q, kth(q) the k-th neighbour distance at q), and counts,
per object, the samples it is among the k nearest of.  The probabilities
are unbiased binomial estimates; objects with estimate >= θ qualify.

For k = 1 an *exact* upper bound exists in the spirit of the paper's BF
strategy: ``P(o is NN) <= P(o beats o')`` for any single competitor o',
and "o beats o'" is the half-space event ‖x − o‖ ≤ ‖x − o'‖ — a *linear*
inequality in x, whose probability under a Gaussian is a closed-form
normal CDF (:func:`halfspace_win_probability`).  Minimizing over a few
strong competitors gives a cheap sound upper bound
(:func:`bisector_upper_bounds`); a Monte Carlo winner whose bound is
below θ does not qualify.

:func:`probabilistic_nearest_neighbors` runs the kind's cut and win
counter and returns the per-candidate probabilities, which the set-valued
pipeline result of a :class:`~repro.core.kinds.KNNQuery` does not; both
answer with the same ids for the same seed and budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.core.database import SpatialDatabase
from repro.core.kinds import KNNCutStrategy, KNNDecider, KNNQuery
from repro.core.stages import phase1_rect
from repro.core.stats import QueryStats
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian

__all__ = [
    "NearestNeighborCandidate",
    "probabilistic_nearest_neighbors",
    "halfspace_win_probability",
    "bisector_upper_bounds",
]


def halfspace_win_probability(
    gaussian: Gaussian, candidate: np.ndarray, competitor: np.ndarray
) -> float:
    """Exact P(‖x − candidate‖ <= ‖x − competitor‖) for x ~ N(q, Σ).

    Expanding both squared norms, the event is the half-space
    ``2 (competitor − candidate)ᵀ x <= ‖competitor‖² − ‖candidate‖²``;
    under the Gaussian a linear functional aᵀx is N(aᵀq, aᵀΣa), so the
    probability is one normal CDF evaluation.
    """
    o = np.asarray(candidate, dtype=float)
    c = np.asarray(competitor, dtype=float)
    if o.shape != (gaussian.dim,) or c.shape != (gaussian.dim,):
        raise QueryError(
            f"candidate/competitor must have shape ({gaussian.dim},), got "
            f"{o.shape} and {c.shape}"
        )
    direction = 2.0 * (c - o)
    norm_sq = float(direction @ direction)
    if norm_sq == 0.0:
        return 1.0  # identical points: a tie counts as a win (<=)
    bound = float(c @ c - o @ o)
    mean = float(direction @ gaussian.mean)
    std = float(np.sqrt(direction @ gaussian.sigma @ direction))
    return float(special.ndtr((bound - mean) / std))


def bisector_upper_bounds(
    gaussian: Gaussian,
    candidates: np.ndarray,
    *,
    n_competitors: int = 4,
) -> np.ndarray:
    """Sound upper bounds on P(candidate is the NN), one per candidate row.

    For each candidate the bound is the minimum half-space win probability
    against its ``n_competitors`` nearest *other* candidates — any losing
    competitor disproves being the nearest neighbour, so every bound is a
    valid (conservative) upper bound on the NN probability.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    n = pts.shape[0]
    if n == 0:
        return np.empty(0)
    if n == 1:
        return np.ones(1)
    take = min(n_competitors, n - 1)
    # Pairwise squared distances between candidates; each candidate's
    # strongest competitors are its nearest candidate neighbours.
    d2 = (
        np.einsum("ij,ij->i", pts, pts)[:, None]
        - 2.0 * pts @ pts.T
        + np.einsum("ij,ij->i", pts, pts)[None, :]
    )
    np.fill_diagonal(d2, np.inf)
    bounds = np.ones(n)
    for i in range(n):
        rivals = np.argpartition(d2[i], take - 1)[:take]
        for j in rivals:
            bounds[i] = min(
                bounds[i], halfspace_win_probability(gaussian, pts[i], pts[j])
            )
    return bounds


@dataclass(frozen=True)
class NearestNeighborCandidate:
    """One object with its estimated probability of being a k-NN."""

    obj_id: int
    probability: float
    stderr: float


def probabilistic_nearest_neighbors(
    database: SpatialDatabase,
    gaussian: Gaussian,
    k: int = 1,
    theta: float = 0.5,
    *,
    n_samples: int = 2_000,
    seed: int = 0,
) -> list[NearestNeighborCandidate]:
    """Objects that are a k-NN of the Gaussian query with probability >= θ.

    Results are sorted by descending probability.  ``n_samples`` trades
    accuracy for time; the standard error of each probability is reported.
    The cut and the win count are the ``knn`` kind's: one search of the
    :class:`~repro.core.kinds.KNNCutStrategy` rectangle, then
    :meth:`~repro.core.kinds.KNNDecider.win_fractions`.
    """
    query = KNNQuery.create(gaussian, k, theta, n_samples=n_samples, seed=seed)
    index = database.index
    decider = KNNDecider(index, query, np.random.default_rng(seed))
    cut = [KNNCutStrategy(decider)]
    hits = index.range_search_rect(phase1_rect(query, cut, QueryStats(), dim=index.dim))
    rows, fractions, qualify = decider.win_fractions(
        gaussian, hits.ids, hits.points, theta
    )
    results = [
        NearestNeighborCandidate(
            obj_id, p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
        )
        for obj_id, p_hat in zip(
            hits.ids[rows[qualify]].tolist(), fractions[qualify].tolist()
        )
    ]
    results.sort(key=lambda c: (-c.probability, c.obj_id))
    return results
