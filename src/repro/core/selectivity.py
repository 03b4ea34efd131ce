"""Selectivity estimation for probabilistic range queries.

A query optimizer facing PRQ(q, δ, θ) wants to predict the Phase-3
workload *before* running the query — e.g. to pick a strategy combination
or an integrator budget.  The integration regions of Figs. 13–16 make this
a density question: the expected candidate count of a strategy is the
integral of the data density over its region.

``SelectivityEstimator`` builds a d-dimensional histogram of the dataset
once, then estimates any strategy's candidate count by sampling its region
(uniformly over the region's bounding rectangle, thinned by region
membership) and summing histogram densities.  Practical for d ≤ 3 where a
dense histogram fits in memory; the constructor refuses larger d, and
:class:`UniformDensity` stands in there with the same two density queries
(``estimate_in_rect``, ``density_at``).  :func:`undecided_mass` is the one
sampled region-mass routine behind ``estimate_candidates``.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import phase1_rect
from repro.core.stats import QueryStats
from repro.core.strategies import UNKNOWN, Strategy, make_strategies
from repro.errors import QueryError
from repro.geometry.mbr import Rect

__all__ = ["SelectivityEstimator", "UniformDensity", "undecided_mass"]

#: Histograms beyond this dimension would be sparse and huge.
_MAX_DIM = 3


def undecided_mass(
    density,
    strategy_sets: Mapping[Hashable, Sequence[Strategy]],
    region: Rect,
    *,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Data mass each prepared strategy set leaves UNKNOWN inside ``region``.

    One uniform sample set over ``region``, one ``classify`` pass per
    distinct strategy instance and one ``density.density_at`` lookup serve
    every set — common random numbers, so the ranking between sets is far
    more stable than independent estimates (and ~|sets|× cheaper).

    ``region`` must contain every set's Phase-1 rectangle (e.g. their
    union).  No per-set rectangle mask is needed: a filter
    rejects everything outside its own region, which lies inside its own
    search rectangle, so a sample every member leaves UNKNOWN is already
    inside every member's rectangle.
    """
    rng = np.random.default_rng(seed)
    samples = region.lows + rng.random((n_samples, region.dim)) * region.extents
    weights = density.density_at(samples)
    cell = region.volume() / n_samples
    unknown: dict[int, np.ndarray] = {}
    masses = {}
    for key, strategies in strategy_sets.items():
        mask = np.ones(n_samples, dtype=bool)
        for strategy in strategies:
            if id(strategy) not in unknown:
                unknown[id(strategy)] = strategy.classify(samples) == UNKNOWN
            mask &= unknown[id(strategy)]
        masses[key] = float(weights[mask].sum() * cell)
    return masses


class UniformDensity:
    """``total`` points spread evenly over ``bounds`` — the density model
    where no histogram exists (d > 3).

    An axis on which the bounds have zero extent (a constant column, a
    single point) has no spread to take a ratio against: it is left out of
    the volume, and a rectangle or point must cover the constant to see
    any data at all.
    """

    def __init__(self, total: int, bounds: Rect):
        self.total = int(total)
        self._bounds = bounds
        self._live = bounds.extents > 0
        self._volume = float(np.prod(bounds.extents[self._live]))

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Points per unit volume at each row (0 outside the data bounds)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.where(
            self._bounds.contains_points(pts), self.total / self._volume, 0.0
        )

    def estimate_in_rect(self, rect: Rect) -> float:
        """Expected number of points inside an axis-aligned rectangle."""
        clipped = rect.intersection(self._bounds)
        if clipped is None:
            return 0.0
        covered = float(np.prod(clipped.extents[self._live]))
        return self.total * covered / self._volume


class SelectivityEstimator:
    """Histogram-based candidate-count estimator.

    Parameters
    ----------
    points:
        The dataset (n, d), d <= 3.
    bins:
        Histogram bins per dimension.
    """

    def __init__(self, points: np.ndarray, bins: int = 48):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise QueryError(
                f"points must be a non-empty (n, d) array, got {pts.shape}"
            )
        if pts.shape[1] > _MAX_DIM:
            raise QueryError(
                f"histogram selectivity supports d <= {_MAX_DIM}, got d = "
                f"{pts.shape[1]}; estimate by sampling the index instead"
            )
        if bins < 2:
            raise QueryError(f"bins must be >= 2, got {bins}")
        self._dim = pts.shape[1]
        self._counts, edges = np.histogramdd(pts, bins=bins)
        self._edges = edges
        self._lows = np.array([e[0] for e in edges])
        self._highs = np.array([e[-1] for e in edges])
        self._widths = np.array([e[1] - e[0] for e in edges])
        self._bins = bins
        self.total = pts.shape[0]

    @property
    def dim(self) -> int:
        return self._dim

    # ------------------------------------------------------------------
    # Density queries
    # ------------------------------------------------------------------

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Points per unit volume at each row (0 outside the data bounds)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cell_volume = float(np.prod(self._widths))
        raw = (pts - self._lows) / self._widths
        outside = np.any((raw < 0) | (raw > self._bins), axis=1)
        cells = np.clip(np.floor(raw).astype(int), 0, self._bins - 1)
        density = self._counts[tuple(cells.T)] / cell_volume
        density[outside] = 0.0
        return density

    def estimate_in_rect(self, rect: Rect) -> float:
        """Expected number of points inside an axis-aligned rectangle."""
        if rect.dim != self._dim:
            raise QueryError(
                f"rect has dimension {rect.dim}, estimator has {self._dim}"
            )
        # Fractional bin coverage per dimension, as an outer product.
        weights = []
        for axis in range(self._dim):
            edges = self._edges[axis]
            lo = np.clip(rect.lows[axis], edges[0], edges[-1])
            hi = np.clip(rect.highs[axis], edges[0], edges[-1])
            left = np.minimum(np.maximum(lo, edges[:-1]), edges[1:])
            right = np.minimum(np.maximum(hi, edges[:-1]), edges[1:])
            weights.append((right - left) / (edges[1:] - edges[:-1]))
        coverage = weights[0]
        for axis_weights in weights[1:]:
            coverage = np.multiply.outer(coverage, axis_weights)
        return float(np.sum(self._counts * coverage))

    # ------------------------------------------------------------------
    # Strategy workload prediction
    # ------------------------------------------------------------------

    def estimate_candidates(
        self,
        query: ProbabilisticRangeQuery,
        strategies: str | list[Strategy] = "all",
        *,
        n_samples: int = 20_000,
        seed: int = 0,
    ) -> float:
        """Expected Phase-3 candidate count for a strategy combination.

        Monte Carlo over the combined bounding rectangle: sample uniform
        locations, keep those every strategy leaves UNDECIDED (not
        rejected, not BF-accepted), and integrate the data density over
        that region.
        """
        strategy_list = (
            make_strategies(strategies)
            if isinstance(strategies, str)
            else list(strategies)
        )
        if not strategy_list:
            raise QueryError("at least one strategy is required")
        rect = phase1_rect(query, strategy_list, QueryStats(), dim=self._dim)
        if rect is None:
            return 0.0
        masses = undecided_mass(
            self, {None: strategy_list}, rect, n_samples=n_samples, seed=seed
        )
        return masses[None]
