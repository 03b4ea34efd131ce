"""Tests for the Phase-3 probability integrators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeometryError, IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import qualification_probability_exact
from repro.integrate import (
    ExactIntegrator,
    ImportanceSamplingIntegrator,
    MonteCarloIntegrator,
    QuasiMonteCarloIntegrator,
)
from repro.integrate.result import IntegrationResult


@pytest.fixture
def target_point():
    return np.array([510.0, 490.0])


@pytest.fixture
def exact_value(paper_gaussian, target_point):
    return ExactIntegrator().qualification_probability(
        paper_gaussian, target_point, 25.0
    ).estimate


class TestIntegrationResult:
    def test_confidence_interval_clipped(self):
        r = IntegrationResult(0.99, 0.02, 100, "x")
        lo, hi = r.confidence_interval()
        assert lo == pytest.approx(0.99 - 1.96 * 0.02, abs=1e-3)
        assert hi == 1.0

    def test_meets_threshold(self):
        assert IntegrationResult(0.5, 0.0, 1, "x").meets_threshold(0.5)
        assert not IntegrationResult(0.49, 0.0, 1, "x").meets_threshold(0.5)

    def test_rejects_nan(self):
        with pytest.raises(IntegrationError):
            IntegrationResult(float("nan"), 0.0, 1, "x")

    def test_rejects_negative_stderr(self):
        with pytest.raises(IntegrationError):
            IntegrationResult(0.5, -0.1, 1, "x")

    def test_str(self):
        assert "n=10" in str(IntegrationResult(0.5, 0.01, 10, "mc"))


class TestExactIntegrator:
    def test_zero_stderr(self, paper_gaussian, target_point):
        r = ExactIntegrator().qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert r.stderr == 0.0
        assert r.n_samples == 0

    def test_methods_agree(self, paper_gaussian, target_point):
        a = qualification_probability_exact(
            paper_gaussian, target_point, 25.0, method="imhof"
        )
        b = ExactIntegrator().qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert b.method == "exact-ruben"
        assert b.estimate == qualification_probability_exact(
            paper_gaussian, target_point, 25.0, method="ruben"
        )
        assert a == pytest.approx(b.estimate, abs=1e-7)

    def test_rejects_unknown_method(self, paper_gaussian, target_point):
        with pytest.raises(GeometryError):
            qualification_probability_exact(
                paper_gaussian, target_point, 25.0, method="simpson"
            )

    def test_batch_api(self, paper_gaussian):
        pts = np.array([[500.0, 500.0], [510.0, 490.0]])
        results = ExactIntegrator().qualification_probabilities(
            paper_gaussian, pts, 25.0
        )
        assert len(results) == 2
        assert results[0].estimate > results[1].estimate


class TestImportanceSampling:
    def test_unbiased_within_stderr(self, paper_gaussian, target_point, exact_value):
        r = ImportanceSamplingIntegrator(200_000, seed=3).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert abs(r.estimate - exact_value) < 5 * r.stderr + 1e-9

    def test_binomial_stderr(self, paper_gaussian, target_point):
        r = ImportanceSamplingIntegrator(10_000, seed=1).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        expected = np.sqrt(r.estimate * (1 - r.estimate) / 10_000)
        assert r.stderr == pytest.approx(expected)

    def test_deterministic_given_seed(self, paper_gaussian, target_point):
        a = ImportanceSamplingIntegrator(5_000, seed=42).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        b = ImportanceSamplingIntegrator(5_000, seed=42).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert a.estimate == b.estimate

    def test_batch_equals_one_candidate_at_a_time(self, paper_gaussian):
        """The batch reuses one sample workspace; the stream and every
        estimate are those of per-candidate calls."""
        pts = np.array([[500.0, 500.0], [510.0, 490.0], [530.0, 530.0]])
        batch = ImportanceSamplingIntegrator(
            5_000, seed=9
        ).qualification_probabilities(paper_gaussian, pts, 25.0)
        single = ImportanceSamplingIntegrator(5_000, seed=9)
        assert batch == [
            single.qualification_probability(paper_gaussian, p, 25.0) for p in pts
        ]

    def test_shared_samples_batch_matches_exact(self, paper_gaussian):
        pts = np.array([[500.0, 500.0], [510.0, 490.0], [530.0, 530.0]])
        integ = ImportanceSamplingIntegrator(
            100_000, seed=5, share_samples=True, chunk_size=2
        )
        results = integ.qualification_probabilities(paper_gaussian, pts, 25.0)
        exact = ExactIntegrator().qualification_probabilities(
            paper_gaussian, pts, 25.0
        )
        for r, e in zip(results, exact):
            assert r.estimate == pytest.approx(e.estimate, abs=0.01)
        assert all(r.method == "importance-shared" for r in results)

    def test_empty_batch(self, paper_gaussian):
        integ = ImportanceSamplingIntegrator(1_000, share_samples=True)
        assert integ.qualification_probabilities(
            paper_gaussian, np.empty((0, 2)), 25.0
        ) == []

    def test_rejects_bad_params(self):
        with pytest.raises(IntegrationError):
            ImportanceSamplingIntegrator(0)
        with pytest.raises(IntegrationError):
            ImportanceSamplingIntegrator(10, chunk_size=0)

    def test_rejects_dim_mismatch(self, paper_gaussian):
        with pytest.raises(IntegrationError):
            ImportanceSamplingIntegrator(100).qualification_probability(
                paper_gaussian, np.zeros(3), 1.0
            )

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize(
        "points, delta",
        [
            # δ = −1 once read as the answer for δ = 1 (0.393) in shared mode.
            ([[0.0, 0.0]], -1.0),
            # δ = NaN once read as 0.0 in shared mode.
            ([[0.0, 0.0]], float("nan")),
            # A 3-wide point once raised NumPy's matmul ValueError.
            ([[0.0, 0.0, 0.0]], 1.0),
        ],
        ids=["negative-delta", "nan-delta", "wrong-width"],
    )
    def test_block_validated_in_both_modes(self, share, points, delta):
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        integ = ImportanceSamplingIntegrator(1_000, share_samples=share)
        with pytest.raises(IntegrationError):
            integ.qualification_probabilities(gaussian, np.array(points), delta)
        with pytest.raises(IntegrationError):
            integ.decide(gaussian, np.array(points), delta, 0.1)


class TestMonteCarlo:
    def test_converges_to_exact(self, paper_gaussian, target_point, exact_value):
        r = MonteCarloIntegrator(300_000, seed=2).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert abs(r.estimate - exact_value) < 5 * r.stderr + 1e-9

    def test_zero_delta(self, paper_gaussian, target_point):
        r = MonteCarloIntegrator(1_000).qualification_probability(
            paper_gaussian, target_point, 0.0
        )
        assert r.estimate == 0.0

    def test_higher_variance_than_importance(
        self, paper_gaussian, target_point
    ):
        # On these skewed queries the hit-ratio estimator dominates plain MC
        # — the reason the paper chose importance sampling.
        n = 50_000
        mc = MonteCarloIntegrator(n, seed=7).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        imp = ImportanceSamplingIntegrator(n, seed=7).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert mc.stderr > imp.stderr


class TestQuasiMonteCarlo:
    def test_beats_plain_importance_on_accuracy(
        self, paper_gaussian, target_point, exact_value
    ):
        qmc = QuasiMonteCarloIntegrator(50_000, seed=1).qualification_probability(
            paper_gaussian, target_point, 25.0
        )
        assert abs(qmc.estimate - exact_value) < 1e-3

    def test_stderr_reflects_replicates(self, paper_gaussian, target_point):
        r = QuasiMonteCarloIntegrator(
            40_000, n_replicates=8, seed=3
        ).qualification_probability(paper_gaussian, target_point, 25.0)
        assert r.n_samples == 40_000
        assert r.stderr < 0.01

    def test_rejects_single_replicate(self):
        with pytest.raises(IntegrationError):
            QuasiMonteCarloIntegrator(100, n_replicates=1)

    def test_rejects_budget_below_replicates(self):
        with pytest.raises(IntegrationError):
            QuasiMonteCarloIntegrator(4, n_replicates=8)
