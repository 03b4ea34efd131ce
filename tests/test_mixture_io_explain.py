"""Tests for Gaussian mixtures, real-data loaders, and the plan explainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.kinds import MixtureRangeQuery
from repro.core.query import ProbabilisticRangeQuery
from repro.core.selectivity import SelectivityEstimator
from repro.datasets.io import (
    load_corel_color_moments,
    load_tiger_line_segments,
    normalize_to_square,
)
from repro.errors import GeometryError, QueryError, ReproError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.mixture import GaussianMixture
from repro.integrate.exact import ExactIntegrator


@pytest.fixture
def bimodal(paper_sigma_10):
    return GaussianMixture(
        [
            Gaussian([300.0, 500.0], paper_sigma_10),
            Gaussian([700.0, 500.0], 0.5 * paper_sigma_10),
        ],
        weights=[0.6, 0.4],
    )


class TestGaussianMixture:
    def test_weights_normalized(self, paper_sigma_10):
        mixture = GaussianMixture(
            [Gaussian([0.0, 0.0], paper_sigma_10)] * 2, weights=[2.0, 6.0]
        )
        np.testing.assert_allclose(mixture.weights, [0.25, 0.75])

    def test_default_uniform_weights(self, paper_sigma_10):
        mixture = GaussianMixture([Gaussian([0.0, 0.0], paper_sigma_10)] * 4)
        np.testing.assert_allclose(mixture.weights, [0.25] * 4)

    def test_mean_and_covariance_match_samples(self, rng, bimodal):
        samples = bimodal.sample(150_000, rng)
        np.testing.assert_allclose(samples.mean(axis=0), bimodal.mean(), atol=1.5)
        cov = bimodal.covariance()
        np.testing.assert_allclose(
            np.cov(samples.T), cov, atol=0.01 * float(np.max(np.abs(cov)))
        )

    def test_pdf_is_weighted_sum(self, bimodal, rng):
        pts = rng.uniform(200, 800, size=(20, 2))
        expected = 0.6 * bimodal.components[0].pdf(pts) + 0.4 * bimodal.components[
            1
        ].pdf(pts)
        np.testing.assert_allclose(bimodal.pdf(pts), expected, rtol=1e-12)

    def test_qualification_probability_matches_mc(self, bimodal, rng):
        point = np.array([310.0, 505.0])
        exact = bimodal.qualification_probability(point, 30.0)
        samples = bimodal.sample(400_000, rng)
        frac = np.mean(np.sum((samples - point) ** 2, axis=1) <= 900.0)
        assert exact == pytest.approx(frac, abs=0.004)

    def test_validation(self, paper_sigma_10):
        with pytest.raises(GeometryError):
            GaussianMixture([])
        with pytest.raises(GeometryError):
            GaussianMixture(
                [Gaussian([0.0], np.eye(1)), Gaussian([0.0, 0.0], np.eye(2))]
            )
        with pytest.raises(GeometryError):
            GaussianMixture(
                [Gaussian([0.0, 0.0], paper_sigma_10)], weights=[0.0]
            )
        with pytest.raises(GeometryError):
            GaussianMixture(
                [Gaussian([0.0, 0.0], paper_sigma_10)], weights=[1.0, 1.0]
            )


def mixture_query(db, mixture, delta, theta):
    """MixtureRangeQuery through the unified engine, exact Phase 3."""
    result = db.engine(integrator=ExactIntegrator()).execute(
        MixtureRangeQuery.create(mixture, delta, theta)
    )
    return list(result.ids), result.stats


class TestMixtureQueries:
    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(31)
        points = rng.random((4000, 2)) * 1000
        return points, SpatialDatabase(points)

    def test_matches_brute_force(self, world, bimodal):
        points, db = world
        delta, theta = 30.0, 0.05
        got, stats = mixture_query(db, bimodal, delta, theta)
        expected = [
            int(i)
            for i in range(points.shape[0])
            if bimodal.qualification_probability(points[i], delta) >= theta
        ]
        assert got == expected
        assert stats.results == len(got)

    def test_answers_near_both_modes(self, world, bimodal):
        points, db = world
        got, _ = mixture_query(db, bimodal, 30.0, 0.05)
        answers = points[np.asarray(got)]
        near_left = np.linalg.norm(answers - [300.0, 500.0], axis=1) < 150
        near_right = np.linalg.norm(answers - [700.0, 500.0], axis=1) < 150
        assert np.any(near_left) and np.any(near_right)
        assert np.all(near_left | near_right)

    def test_single_component_matches_plain_engine(self, world, paper_sigma_10):
        points, db = world
        gaussian = Gaussian([500.0, 500.0], paper_sigma_10)
        single = GaussianMixture([gaussian])
        got, _ = mixture_query(db, single, 25.0, 0.01)
        plain = db.probabilistic_range_query(
            gaussian, 25.0, 0.01, integrator=ExactIntegrator()
        )
        assert got == sorted(plain.ids)

    def test_validation(self, world, bimodal):
        _, db = world
        with pytest.raises(QueryError):
            mixture_query(db, bimodal, 30.0, 0.0)
        mixture_3d = GaussianMixture([Gaussian(np.zeros(3), np.eye(3))])
        with pytest.raises(QueryError):
            mixture_query(db, mixture_3d, 1.0, 0.1)


class TestDataLoaders:
    def test_corel_loader(self, tmp_path):
        path = tmp_path / "ColorMoments.asc"
        path.write_text(
            "1 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9\n"
            "2 1.1 1.2 1.3 1.4 1.5 1.6 1.7 1.8 1.9\n"
        )
        data = load_corel_color_moments(path)
        assert data.shape == (2, 9)
        assert data[1, 0] == pytest.approx(1.1)

    def test_tiger_loader_midpoints(self, tmp_path):
        path = tmp_path / "segments.txt"
        path.write_text("0 0 2 2\n# a comment\n\n4,0,6,2\n")
        midpoints = load_tiger_line_segments(path)
        np.testing.assert_allclose(midpoints, [[1.0, 1.0], [5.0, 1.0]])

    def test_loader_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("1 2 3\n")
        with pytest.raises(ReproError):
            load_corel_color_moments(path)

    def test_loader_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_tiger_line_segments(tmp_path / "absent.txt")

    def test_loader_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("a b c d\n")
        with pytest.raises(ReproError):
            load_tiger_line_segments(path)

    def test_normalize_to_square(self, rng):
        pts = rng.random((50, 2)) * [3.0, 7.0] + [10.0, -5.0]
        normalized = normalize_to_square(pts, extent=1000.0)
        np.testing.assert_allclose(normalized.min(axis=0), [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(
            normalized.max(axis=0), [1000.0, 1000.0], atol=1e-9
        )

    def test_normalize_rejects_degenerate(self):
        with pytest.raises(ReproError):
            normalize_to_square(np.array([[1.0, 2.0], [1.0, 3.0]]))


class TestExplain:
    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(8)
        points = rng.random((5000, 2)) * 1000
        return points, SpatialDatabase(points)

    def test_plan_describes_all_strategies(self, world, paper_sigma_10):
        _, db = world
        engine = db.engine(strategies="all")
        plan = engine.explain(
            ProbabilisticRangeQuery(Gaussian([500.0, 500.0], paper_sigma_10), 25.0, 0.01)
        )
        text = plan.render()
        assert plan.strategies == ("RR", "BF", "OR")
        assert "RR:" in text and "OR:" in text and "BF:" in text
        assert "search rectangle" in text

    def test_plan_with_prediction(self, world, paper_sigma_10):
        points, db = world
        estimator = SelectivityEstimator(points, bins=40)
        engine = db.engine(strategies="all")
        query = ProbabilisticRangeQuery(
            Gaussian([500.0, 500.0], paper_sigma_10), 25.0, 0.01
        )
        plan = engine.explain(query, estimator=estimator)
        assert plan.predicted_candidates is not None
        from repro.bench.experiments import _CountOnlyIntegrator

        actual = (
            db.engine(strategies="all", integrator=_CountOnlyIntegrator())
            .execute(query)
            .stats.integrations
        )
        assert plan.predicted_candidates == pytest.approx(actual, rel=0.4)
        # ``auto`` plans ALL, so it explains with the estimator's same
        # prediction; without an estimator there is none.
        auto = db.engine(strategies="auto")
        assert auto.explain(query, estimator=estimator).render() == plan.render()
        assert auto.explain(query).predicted_candidates is None

    def test_plan_reports_empty_proof(self, world):
        _, db = world
        engine = db.engine(strategies="bf")
        plan = engine.explain(
            ProbabilisticRangeQuery(
                Gaussian.isotropic([500.0, 500.0], 400.0), 1.0, 0.95
            )
        )
        assert plan.proves_empty == "BF"
        assert "empty" in plan.render()
