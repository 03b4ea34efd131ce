"""SelectivityEstimator accuracy: predictions vs brute-force ground truth.

Satellite contract: ``estimate_candidates`` must track the true Phase-3
candidate count on uniform *and* clustered data in d = 2 and d = 3, and
``estimate_in_rect`` must handle degenerate rectangles (zero area,
entirely outside the data domain) without blowing up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Gaussian, SelectivityEstimator
from repro.core.query import ProbabilisticRangeQuery
from repro.core.selectivity import UniformDensity, undecided_mass
from repro.core.stages import phase1_rect
from repro.core.stats import QueryStats
from repro.core.strategies import UNKNOWN, make_strategies
from repro.geometry.mbr import Rect


def uniform_points(n: int, dim: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, dim)) * 1000.0


def clustered_points(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.random((5, dim)) * 1000.0
    assignments = rng.integers(5, size=n)
    points = centers[assignments] + rng.standard_normal((n, dim)) * 40.0
    return np.clip(points, 0.0, 1000.0)


def brute_force_candidates(
    points: np.ndarray, query: ProbabilisticRangeQuery, spec: str
) -> int:
    """True Phase-3 count: points every prepared filter leaves UNKNOWN.

    Filters reject everything outside their own regions, so a point that
    is UNKNOWN to all of them necessarily lies inside the combined
    Phase-1 rectangle — no index search needed for ground truth.
    """
    strategies = make_strategies(spec)
    for strategy in strategies:
        strategy.prepare(query)
    if any(s.proves_empty for s in strategies):
        return 0
    undecided = np.ones(points.shape[0], dtype=bool)
    for strategy in strategies:
        undecided &= strategy.classify(points) == UNKNOWN
    return int(np.count_nonzero(undecided))


def query_for(dim: int, center, gamma: float = 400.0):
    # Anisotropic covariances in both dimensions: an isotropic Σ would
    # make BF's accept and prune radii coincide and empty out Phase 3.
    if dim == 2:
        root3 = np.sqrt(3.0)
        sigma = gamma * np.array([[7.0, 2 * root3], [2 * root3, 3.0]]) / 5.0
    else:
        sigma = gamma * np.diag([3.5, 1.5, 0.6])
    return ProbabilisticRangeQuery(
        Gaussian(np.asarray(center, dtype=float), sigma), 60.0, 0.01
    )


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("maker", [uniform_points, clustered_points])
@pytest.mark.parametrize("spec", ["rr", "all"])
def test_estimate_candidates_tracks_brute_force(dim, maker, spec):
    points = maker(20_000, dim, seed=dim * 11)
    estimator = SelectivityEstimator(points)
    # Query centred on the densest data point so the count is large
    # enough for a meaningful relative-error bound.
    densities = estimator.density_at(points[:4_000])
    center = points[:4_000][int(np.argmax(densities))]
    query = query_for(dim, center)

    actual = brute_force_candidates(points, query, spec)
    predicted = estimator.estimate_candidates(query, spec, n_samples=30_000)

    assert actual > 50, "test query must produce a non-trivial candidate set"
    assert predicted == pytest.approx(actual, rel=0.25), (
        f"d={dim} {maker.__name__} {spec}: predicted {predicted:.0f} "
        f"vs actual {actual}"
    )


def test_estimate_candidates_empty_query_is_zero():
    points = uniform_points(5_000, 2, seed=3)
    estimator = SelectivityEstimator(points)
    # theta so high the BF upper bound proves the result empty.
    hopeless = ProbabilisticRangeQuery(
        Gaussian([500.0, 500.0], 1e8 * np.eye(2)), 1.0, 0.4
    )
    assert estimator.estimate_candidates(hopeless, "all") == 0.0


def test_estimate_candidates_far_from_data_is_small():
    points = clustered_points(10_000, 2, seed=4)
    estimator = SelectivityEstimator(points)
    query = query_for(2, [-5_000.0, -5_000.0])
    predicted = estimator.estimate_candidates(query, "all", n_samples=5_000)
    assert predicted == pytest.approx(0.0, abs=1.0)


class TestDegenerateRects:
    @pytest.fixture
    def estimator(self) -> SelectivityEstimator:
        return SelectivityEstimator(uniform_points(8_000, 2, seed=5))

    def test_zero_area_rect(self, estimator):
        rect = Rect([500.0, 500.0], [500.0, 500.0])
        assert estimator.estimate_in_rect(rect) == 0.0

    def test_zero_width_slab(self, estimator):
        """One collapsed axis → zero volume → zero expected points."""
        rect = Rect([0.0, 500.0], [1000.0, 500.0])
        assert estimator.estimate_in_rect(rect) == 0.0

    def test_rect_outside_domain(self, estimator):
        rect = Rect([2_000.0, 2_000.0], [3_000.0, 3_000.0])
        assert estimator.estimate_in_rect(rect) == 0.0

    def test_rect_partially_outside_clips(self, estimator):
        inside = estimator.estimate_in_rect(Rect([0.0, 0.0], [500.0, 500.0]))
        overhanging = estimator.estimate_in_rect(
            Rect([-10_000.0, -10_000.0], [500.0, 500.0])
        )
        assert overhanging == pytest.approx(inside, rel=1e-9)

    def test_whole_domain_counts_everything(self, estimator):
        rect = Rect([-1.0, -1.0], [1_001.0, 1_001.0])
        assert estimator.estimate_in_rect(rect) == pytest.approx(8_000, rel=1e-6)

    def test_dimension_mismatch_raises(self, estimator):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            estimator.estimate_in_rect(Rect([0.0] * 3, [1.0] * 3))


# ----------------------------------------------------------------------
# The invariants the planner's pruning rests on
# ----------------------------------------------------------------------


def _densities():
    points = clustered_points(6_000, 3, seed=8)
    bounds = Rect(points.min(axis=0), points.max(axis=0))
    return [
        SelectivityEstimator(points),
        UniformDensity(points.shape[0], bounds),
    ]


@pytest.mark.parametrize("density", _densities(), ids=["histogram", "uniform"])
def test_estimate_in_rect_is_monotone_under_containment(density):
    """inner ⊆ outer ⇒ estimate(inner) ≤ estimate(outer): why a plan over
    the intersected Phase-1 rectangle is never predicted to retrieve more
    than one over the paper's first-strategy rectangle."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = np.sort(rng.uniform(-200.0, 1_200.0, (2, 3)), axis=0)
        outer = Rect(a, b)
        shrink = rng.random((2, 3)) * 0.5 * outer.extents
        inner = Rect(a + shrink[0], b - shrink[1])
        assert outer.contains_rect(inner)
        small = density.estimate_in_rect(inner)
        large = density.estimate_in_rect(outer)
        assert 0.0 <= small <= large * (1.0 + 1e-12) + 1e-9
        assert large <= density.total * (1.0 + 1e-9)


def test_uniform_density_ignores_zero_extent_axes():
    bounds = Rect([0.0, 5.0, 0.0], [10.0, 5.0, 20.0])
    density = UniformDensity(400, bounds)
    covering = Rect([0.0, 4.0, 0.0], [5.0, 6.0, 20.0])
    assert density.estimate_in_rect(covering) == pytest.approx(200.0)
    missing = Rect([0.0, 5.5, 0.0], [5.0, 6.0, 20.0])
    assert density.estimate_in_rect(missing) == 0.0
    on, off = density.density_at([[1.0, 5.0, 1.0], [1.0, 5.1, 1.0]])
    assert on == pytest.approx(400 / 200.0)
    assert off == 0.0
    # A single point: every axis flat, all of the data or none of it.
    point = UniformDensity(3, Rect([1.0, 2.0], [1.0, 2.0]))
    assert point.estimate_in_rect(Rect([0.0, 0.0], [3.0, 3.0])) == 3.0
    assert point.estimate_in_rect(Rect([2.0, 0.0], [3.0, 3.0])) == 0.0


@pytest.mark.parametrize("spec", ["rr", "bf+or", "all"])
def test_estimate_candidates_is_the_single_set_case_of_undecided_mass(spec):
    """One Monte Carlo, two callers: ``estimate_candidates`` is the
    planner's shared routine with one strategy set over its own Phase-1
    rectangle, and sharing the samples with other sets changes nothing."""
    points = clustered_points(10_000, 2, seed=6)
    estimator = SelectivityEstimator(points)
    query = query_for(2, points[0])
    n_samples, seed = 4_000, 5

    strategies = make_strategies(spec)
    rect = phase1_rect(query, strategies, QueryStats(), dim=2)
    alone = undecided_mass(
        estimator, {spec: strategies}, rect, n_samples=n_samples, seed=seed
    )
    assert estimator.estimate_candidates(
        query, spec, n_samples=n_samples, seed=seed
    ) == pytest.approx(alone[spec], rel=1e-12, abs=1e-12)

    other = make_strategies("rr+bf")
    for strategy in other:
        strategy.prepare(query)
    shared = undecided_mass(
        estimator,
        {"other": other, spec: strategies},
        rect,
        n_samples=n_samples,
        seed=seed,
    )
    assert shared[spec] == alone[spec]
    # …and the rectangle mask the filters already imply is redundant: over
    # a region padded well beyond the Phase-1 rectangle, every sample all
    # members leave UNKNOWN already lies inside that rectangle.
    padded = Rect(rect.lows - 50.0, rect.highs + 50.0)
    samples = padded.lows + np.random.default_rng(seed).random(
        (40_000, 2)
    ) * padded.extents
    unknown = np.ones(samples.shape[0], dtype=bool)
    for strategy in strategies:
        unknown &= strategy.classify(samples) == UNKNOWN
    assert unknown.any() and not unknown.all()
    assert rect.contains_points(samples[unknown]).all()
