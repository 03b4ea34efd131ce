"""``ImportanceSamplingIntegrator.decide``: sandwich bounds first, then a
staged budget.

The rows here are chosen against the χ² sandwich of the paper's γ = 10
covariance: a row the sandwich settles draws nothing, and every other row
is drawn at cumulative looks of 1 %, 10 % and 100 % of ``n_samples``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import chi2_sandwich_bounds_block
from repro.integrate.cascade import CascadeIntegrator
from repro.integrate.exact import ExactIntegrator
from repro.integrate.importance import ImportanceSamplingIntegrator

#: Phase-3 candidate rows of four ``prq_mc_2d`` queries (see "source").
RECORDED = Path(__file__).parent / "data" / "mc_2d_candidates.json"


def along(gaussian: Gaussian, axis: int, distance: float) -> np.ndarray:
    """A point ``distance`` from the mean along eigenvector ``axis``."""
    return gaussian.mean + distance * gaussian.basis[:, axis]


def straddles(gaussian, points, delta, theta) -> np.ndarray:
    bounds = chi2_sandwich_bounds_block(gaussian, points, delta)
    return (bounds[:, 0] < theta) & (bounds[:, 1] >= theta)


class TestConstruction:
    def test_validation(self, paper_gaussian):
        # θ is what decide() receives, not a constructor argument.
        with pytest.raises(TypeError):
            ImportanceSamplingIntegrator(theta=0.1)
        with pytest.raises(IntegrationError):
            ImportanceSamplingIntegrator(0)
        for share in (False, True):
            sampler = ImportanceSamplingIntegrator(1_000, share_samples=share)
            for points, delta in (
                ([[500.0, 500.0]], -1.0),
                ([[500.0, 500.0]], float("nan")),
                ([[500.0, 500.0, 0.0]], 25.0),
            ):
                with pytest.raises(IntegrationError):
                    sampler.decide(paper_gaussian, np.array(points), delta, 0.1)


class TestBoundsFirst:
    def test_settled_block_draws_nothing(self, paper_gaussian):
        # The centre (p ≈ 0.99) and a point 112 out on the major axis
        # (p ≈ 0) have sandwich intervals wholly above / below θ.
        points = np.array(
            [paper_gaussian.mean, along(paper_gaussian, 0, 112.0)] * 3
        )
        assert not straddles(paper_gaussian, points, 25.0, 0.01).any()
        for share in (False, True):
            sampler = ImportanceSamplingIntegrator(100_000, share_samples=share)
            state = sampler._rng.bit_generator.state
            accept, tally, samples = sampler.decide(
                paper_gaussian, points, 25.0, 0.01
            )
            assert accept.tolist() == [True, False] * 3
            assert samples == 0
            assert tally["importance-sandwich"] == len(points)
            assert sum(tally.values()) == len(points)
            assert sampler._rng.bit_generator.state == state

    def test_empty_block(self, paper_gaussian):
        accept, tally, samples = ImportanceSamplingIntegrator(1_000).decide(
            paper_gaussian, np.empty((0, 2)), 25.0, 0.01
        )
        assert accept.shape == (0,) and tally == {} and samples == 0


class TestEarlyStopping:
    def test_clear_cases_stop_early(self, paper_gaussian):
        # p ≈ 0.94 (16 out on the minor axis) and p ≈ 2e-5 (64 out on the
        # major axis): the sandwich straddles θ = 0.2 for both, and the
        # first look of 1 000 draws settles both.
        points = np.array(
            [along(paper_gaussian, 1, 16.0), along(paper_gaussian, 0, 64.0)]
        )
        assert straddles(paper_gaussian, points, 25.0, 0.2).all()
        for share in (False, True):
            sampler = ImportanceSamplingIntegrator(
                100_000, seed=0, share_samples=share
            )
            accept, tally, samples = sampler.decide(
                paper_gaussian, points, 25.0, 0.2
            )
            assert accept.tolist() == [True, False]
            assert samples == 2 * 1_000
            label = "importance-shared" if share else "importance"
            assert tally == {"importance-sandwich": 0, label: 2}

    def test_borderline_cases_spend_budget(self, paper_gaussian):
        theta = 0.5
        boundary = self._boundary(paper_gaussian, theta)
        for share in (False, True):
            sampler = ImportanceSamplingIntegrator(
                50_000, seed=1, share_samples=share
            )
            _, _, samples = sampler.decide(
                paper_gaussian, boundary[None, :], 25.0, theta
            )
            assert samples == 50_000  # budget exhausted on the boundary

    def test_estimate_remains_accurate(self, paper_gaussian):
        """A row open at the last look is decided by p̂ ≥ θ on the full
        budget: what the paper's fixed-budget estimator decides on the
        same stream."""
        theta = 0.5
        boundary = self._boundary(paper_gaussian, theta)
        for seed in range(6):
            accept, _, samples = ImportanceSamplingIntegrator(
                20_000, seed=seed
            ).decide(paper_gaussian, boundary[None, :], 25.0, theta)
            fixed = ImportanceSamplingIntegrator(
                20_000, seed=seed
            ).qualification_probability(paper_gaussian, boundary, 25.0)
            assert samples == 20_000
            assert accept[0] == fixed.meets_threshold(theta)

    @staticmethod
    def _boundary(gaussian: Gaussian, theta: float) -> np.ndarray:
        """A point on the major axis whose probability is θ."""
        exact = ExactIntegrator()
        lo, hi = 0.0, 200.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            p = exact.qualification_probability(
                gaussian, along(gaussian, 0, mid), 25.0
            ).estimate
            if p > theta:
                lo = mid
            else:
                hi = mid
        return along(gaussian, 0, 0.5 * (lo + hi))


class TestDecisionQuality:
    def test_engine_answers_match_exact(self, rng, paper_gaussian):
        points = paper_gaussian.mean + rng.uniform(-120, 120, size=(2500, 2))
        db = SpatialDatabase(points)
        theta = 0.01
        exact = db.probabilistic_range_query(
            paper_gaussian, 25.0, theta, strategies="all",
            integrator=ExactIntegrator(),
        )
        sampled = db.probabilistic_range_query(
            paper_gaussian, 25.0, theta, strategies="all",
            integrator=ImportanceSamplingIntegrator(100_000, seed=3),
        )
        diff = set(exact.ids) ^ set(sampled.ids)
        assert len(diff) <= max(2, len(exact.ids) // 20)

    def test_saves_samples_vs_fixed_budget(self, rng, paper_gaussian):
        points = paper_gaussian.mean + rng.uniform(-120, 120, size=(800, 2))
        db = SpatialDatabase(points)
        result = db.probabilistic_range_query(
            paper_gaussian, 25.0, 0.01, strategies="all",
            integrator=ImportanceSamplingIntegrator(100_000, seed=4),
        )
        fixed_budget = result.stats.integrations * 100_000
        # The staged budget must spend well under half the fixed budget.
        assert result.stats.integration_samples < 0.5 * fixed_budget

    @pytest.mark.parametrize("share", [False, True])
    def test_recorded_mc_2d_candidates(self, share):
        """Sandwich-settled rows decide as the cascade does; sampled rows
        agree with the exact probability outside 4 binomial standard
        errors of θ at the full 100 000 draws."""
        cascade = CascadeIntegrator()
        sampled = 0
        for query in json.loads(RECORDED.read_text())["queries"]:
            gaussian = Gaussian(query["center"], np.array(query["sigma"]))
            points = np.array(query["points"])
            delta, theta = query["delta"], query["theta"]
            accept, tally, samples = ImportanceSamplingIntegrator(
                100_000, seed=query["slot"], share_samples=share
            ).decide(gaussian, points, delta, theta)
            open_rows = straddles(gaussian, points, delta, theta)
            expected, _, _ = cascade.decide(gaussian, points, delta, theta)
            np.testing.assert_array_equal(accept[~open_rows], expected[~open_rows])
            exact = np.array(
                [
                    r.estimate
                    for r in cascade.qualification_probabilities(
                        gaussian, points, delta
                    )
                ]
            )
            band = 4.0 * np.sqrt(theta * (1.0 - theta) / 100_000)
            clear = open_rows & (np.abs(exact - theta) > band)
            np.testing.assert_array_equal(accept[clear], exact[clear] >= theta)
            assert tally["importance-sandwich"] == np.count_nonzero(~open_rows)
            assert sum(tally.values()) == len(points)
            assert samples <= 0.5 * 100_000 * len(points)
            sampled += np.count_nonzero(open_rows)
        assert sampled > 0
