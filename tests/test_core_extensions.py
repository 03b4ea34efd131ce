"""Tests for the future-work extensions: probabilistic k-NN, uncertain
targets, and the closed-form 1-D case."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.database import SpatialDatabase
from repro.core.kinds import (
    TargetCovarianceTable,
    UncertainObject,
    UncertainTargetQuery,
)
from repro.core.nn import probabilistic_nearest_neighbors
from repro.core.oned import (
    OneDimensionalDatabase,
    interval_probability,
    qualifying_interval,
)
from repro.errors import IndexError_, QueryError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import qualification_probability_exact
from repro.integrate.exact import ExactIntegrator


class TestProbabilisticNN:
    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(5)
        return SpatialDatabase(rng.random((2000, 2)) * 100)

    def test_probabilities_match_brute_force(self, db):
        gaussian = Gaussian([50.0, 50.0], 4.0 * np.eye(2))
        results = probabilistic_nearest_neighbors(
            db, gaussian, k=1, theta=0.02, n_samples=4000, seed=1
        )
        assert results, "at least one object must clear a 2% NN threshold"
        # Brute-force check: resample and recount over ALL points.
        rng = np.random.default_rng(999)
        samples = gaussian.sample(4000, rng)
        all_points = np.vstack([db.point(i) for i in range(len(db))])
        brute_counts = np.zeros(len(db), dtype=int)
        for start in range(0, 4000, 500):
            block = samples[start : start + 500]
            d2 = ((block[:, None, :] - all_points[None, :, :]) ** 2).sum(axis=2)
            np.add.at(brute_counts, np.argmin(d2, axis=1), 1)
        # Not a strict equality (different sample sets); the top object must
        # agree and probabilities must be plausible.
        top = results[0]
        assert top.obj_id == int(np.argmax(brute_counts))
        assert abs(top.probability - brute_counts.max() / 4000) < 0.05

    def test_probabilities_sum_to_at_most_k(self, db):
        gaussian = Gaussian([30.0, 70.0], 9.0 * np.eye(2))
        results = probabilistic_nearest_neighbors(
            db, gaussian, k=3, theta=0.01, n_samples=3000, seed=2
        )
        assert sum(r.probability for r in results) <= 3.0 + 1e-9

    def test_sorted_by_probability(self, db):
        gaussian = Gaussian([50.0, 50.0], 25.0 * np.eye(2))
        results = probabilistic_nearest_neighbors(
            db, gaussian, k=2, theta=0.005, n_samples=2000, seed=3
        )
        probs = [r.probability for r in results]
        assert probs == sorted(probs, reverse=True)

    def test_tight_gaussian_certain_nn(self, db):
        # Vanishing uncertainty: the NN of the mean wins with probability 1.
        mean = db.point(123) + 0.01
        gaussian = Gaussian(mean, 1e-8 * np.eye(2))
        results = probabilistic_nearest_neighbors(
            db, gaussian, k=1, theta=0.99, n_samples=500, seed=4
        )
        assert len(results) == 1
        assert results[0].obj_id == 123
        assert results[0].probability == 1.0

    def test_validation(self, db):
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(QueryError):
            probabilistic_nearest_neighbors(db, gaussian, k=0)
        with pytest.raises(QueryError):
            probabilistic_nearest_neighbors(db, gaussian, theta=0.0)
        with pytest.raises(QueryError):
            probabilistic_nearest_neighbors(db, gaussian, n_samples=5)
        with pytest.raises(QueryError):
            probabilistic_nearest_neighbors(db, Gaussian([0.0], np.eye(1)), k=1)
        with pytest.raises(QueryError):
            probabilistic_nearest_neighbors(db, gaussian, k=10**7)


def uncertain_query(objects, gaussian, delta, theta):
    """UncertainTargetQuery over ``objects`` through the unified engine."""
    db = SpatialDatabase(
        np.vstack([obj.mean for obj in objects]),
        ids=[obj.obj_id for obj in objects],
        target_table=TargetCovarianceTable.from_objects(objects),
    )
    result = db.engine(integrator=ExactIntegrator()).execute(
        UncertainTargetQuery(gaussian, delta, theta)
    )
    return list(result.ids), result.stats


def shared_sigma_objects(points, sigma):
    return [UncertainObject(i, Gaussian(p, sigma)) for i, p in enumerate(points)]


class TestUncertainTargets:
    def test_reduces_to_exact_when_targets_precise(self, rng):
        # Near-zero target covariance: results must match the exact-target
        # machinery on the same points.
        points = rng.random((500, 2)) * 100
        objects = shared_sigma_objects(points, 1e-12 * np.eye(2))
        precise = SpatialDatabase(points)
        gaussian = Gaussian([50.0, 50.0], 20.0 * np.eye(2))
        got, stats = uncertain_query(objects, gaussian, 10.0, 0.05)
        expected = precise.probabilistic_range_query(
            gaussian, 10.0, 0.05, strategies="all", integrator=ExactIntegrator()
        )
        assert got == sorted(expected.ids)
        assert stats.results == len(got)

    def test_convolution_against_monte_carlo(self, rng):
        # One uncertain target: P(||x - y|| <= delta) by simulation.
        target = UncertainObject(0, Gaussian([10.0, 0.0], np.diag([4.0, 1.0])))
        query_gaussian = Gaussian([0.0, 0.0], np.diag([2.0, 2.0]))
        delta, theta = 12.0, 0.5
        got, _ = uncertain_query([target], query_gaussian, delta, theta)
        x = query_gaussian.sample(300_000, rng)
        y = target.gaussian.sample(300_000, rng)
        p = np.mean(np.sum((x - y) ** 2, axis=1) <= delta**2)
        assert (0 in got) == (p >= theta)
        # And the convolved closed form agrees with simulation.
        combined = query_gaussian.convolve(Gaussian([0.0, 0.0], target.gaussian.sigma))
        exact = qualification_probability_exact(
            combined, target.mean, delta
        )
        assert exact == pytest.approx(p, abs=0.005)

    def test_uncertainty_widens_or_shrinks_result(self, rng):
        # Increasing target uncertainty lowers qualification probability for
        # well-inside targets (mass leaks out of the ball).
        points = np.array([[1.0, 0.0]])
        q = Gaussian([0.0, 0.0], 0.5 * np.eye(2))
        small = shared_sigma_objects(points, 0.01 * np.eye(2))
        large = shared_sigma_objects(points, 25.0 * np.eye(2))
        got_small, _ = uncertain_query(small, q, 3.0, 0.8)
        got_large, _ = uncertain_query(large, q, 3.0, 0.8)
        assert got_small == [0]
        assert got_large == []

    def test_phase1_prunes_far_targets(self, rng):
        points = np.vstack([rng.random((50, 2)) * 5, [[500.0, 500.0]]])
        objects = shared_sigma_objects(points, np.eye(2))
        got, stats = uncertain_query(
            objects, Gaussian([2.0, 2.0], np.eye(2)), 3.0, 0.1
        )
        assert 50 not in got
        assert stats.retrieved < len(points)

    def test_validation(self):
        with pytest.raises(QueryError):
            TargetCovarianceTable.from_objects([])
        with pytest.raises(QueryError):
            TargetCovarianceTable.from_objects(
                [
                    UncertainObject(0, Gaussian([0.0], np.eye(1))),
                    UncertainObject(1, Gaussian([0.0, 0.0], np.eye(2))),
                ]
            )
        with pytest.raises(IndexError_, match="duplicate"):
            SpatialDatabase(np.array([[0.0], [1.0]]), ids=[0, 0])


class TestOneDimensional:
    def test_interval_probability_matches_normal_cdf(self):
        got = interval_probability(q=1.0, sigma=2.0, o=2.0, delta=1.5)
        expected = stats.norm.cdf(3.5, 1, 2) - stats.norm.cdf(0.5, 1, 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_qualifying_interval_symmetric(self):
        interval = qualifying_interval(q=5.0, sigma=1.0, delta=2.0, theta=0.5)
        assert interval is not None
        lo, hi = interval
        assert lo + hi == pytest.approx(10.0)
        # The boundary object has probability exactly theta.
        assert interval_probability(5.0, 1.0, hi, 2.0) == pytest.approx(0.5)

    def test_qualifying_interval_none_when_unreachable(self):
        assert qualifying_interval(0.0, 10.0, 0.1, 0.9) is None

    def test_database_query_matches_brute_force(self, rng):
        values = rng.random(3000) * 100
        db = OneDimensionalDatabase(values)
        q, sigma, delta, theta = 50.0, 5.0, 8.0, 0.3
        got = db.probabilistic_range_query(q, sigma, delta, theta)
        probs = stats.norm.cdf((values + delta - q) / sigma) - stats.norm.cdf(
            (values - delta - q) / sigma
        )
        expected = sorted(np.nonzero(probs >= theta)[0].tolist())
        assert got == expected

    def test_database_empty_result(self, rng):
        db = OneDimensionalDatabase(rng.random(100) * 100)
        assert db.probabilistic_range_query(50.0, 100.0, 0.1, 0.9) == []

    def test_qualification_probabilities_vectorised(self, rng):
        values = np.array([1.0, 5.0, 9.0])
        db = OneDimensionalDatabase(values)
        probs = db.qualification_probabilities(5.0, 2.0, 3.0)
        for v, p in zip(np.sort(values), probs):
            assert p == pytest.approx(
                interval_probability(5.0, 2.0, float(v), 3.0), rel=1e-12
            )

    def test_custom_ids(self):
        db = OneDimensionalDatabase([3.0, 1.0, 2.0], ids=["c", "a", "b"])
        got = db.probabilistic_range_query(2.0, 1.0, 5.0, 0.5)
        assert got == ["a", "b", "c"]

    def test_validation(self):
        with pytest.raises(QueryError):
            OneDimensionalDatabase([])
        with pytest.raises(QueryError):
            OneDimensionalDatabase([1.0], ids=[1, 2])
        with pytest.raises(QueryError):
            interval_probability(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(QueryError):
            interval_probability(0.0, 1.0, 1.0, -1.0)
        with pytest.raises(QueryError):
            qualifying_interval(0.0, 1.0, 1.0, 1.5)
