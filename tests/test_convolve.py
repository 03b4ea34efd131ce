"""The convolution reduction behind uncertain-target queries.

For x ~ N(q, Σ_q) and a target o ~ N(μ_o, Σ_o), Pr(‖x − o‖ ≤ δ) is the
exact-target probability of μ_o under N(q, Σ_q + Σ_o), so
:func:`repro.core.kinds.query_legs` runs an uncertain-target query as one
ordinary PRQ over that convolved Gaussian per covariance group.  The
paper's filters then apply unchanged.  A leg must (a) reduce exactly to
the exact-target PRQ when Σ_o = 0, (b) reach farther as the target spread
grows, and (c) filter *soundly*: no RR/OR/BF decision on a leg may
disagree with the exact convolved probability.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.bf import alpha_radii
from repro.core.kinds import (
    TargetCovarianceTable,
    UncertainTargetQuery,
    query_legs,
)
from repro.core.strategies import ACCEPT, REJECT, make_strategies
from repro.errors import QueryError
from repro.gaussian import Gaussian
from repro.gaussian.quadform import qualification_probability_exact


def random_gaussian(rng, dim, scale=10.0):
    a = rng.normal(size=(dim, dim))
    sigma = scale * (a @ a.T + dim * np.eye(dim))
    return Gaussian(rng.normal(size=dim) * 10.0, sigma)


def leg_of(gaussian, delta, theta, target_sigma):
    """The single leg of an uncertain query over a one-group table."""
    table = TargetCovarianceTable.shared(target_sigma, range(3))
    ((leg, restrict),) = query_legs(
        UncertainTargetQuery(gaussian, delta, theta), table
    )
    assert restrict == []
    return leg


class TestExactTargetReduction:
    """Σ_o = 0 must reproduce the exact-target PRQ bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bf_alpha_upper(self, dim, seed):
        rng = np.random.default_rng(seed)
        gaussian = random_gaussian(rng, dim)
        delta, theta = 8.0, 0.05
        leg = leg_of(gaussian, delta, theta, np.zeros((dim, dim)))
        np.testing.assert_array_equal(leg.gaussian.sigma, gaussian.sigma)
        np.testing.assert_array_equal(leg.center, gaussian.mean)
        assert alpha_radii(leg.gaussian, delta, theta) == alpha_radii(
            gaussian, delta, theta
        )

    def test_empty_proof_matches(self):
        # A tiny delta with a demanding theta is provably empty both ways.
        gaussian = Gaussian([0.0, 0.0], 100.0 * np.eye(2))
        assert alpha_radii(gaussian, 0.01, 0.4)[0] is None
        leg = leg_of(gaussian, 0.01, 0.4, np.zeros((2, 2)))
        assert alpha_radii(leg.gaussian, 0.01, 0.4)[0] is None


class TestConvolvedBound:
    def test_grows_with_target_spread(self):
        gaussian = Gaussian([0.0, 0.0], 25.0 * np.eye(2))
        alphas = [
            alpha_radii(
                leg_of(gaussian, 10.0, 0.01, eig * np.eye(2)).gaussian,
                10.0,
                0.01,
            )[0]
            for eig in (0.0, 5.0, 50.0)
        ]
        assert all(a is not None for a in alphas)
        assert alphas[0] < alphas[1] < alphas[2]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sound_against_exact_convolved_probability(self, dim, seed):
        """RR/OR/BF on a leg never REJECT a qualifying target mean nor
        ACCEPT a failing one under the exact convolved probability."""
        rng = np.random.default_rng(seed)
        gaussian = random_gaussian(rng, dim, scale=4.0)
        delta, theta = 6.0, 0.02
        a = rng.normal(size=(dim, dim))
        target_sigma = 3.0 * (a @ a.T) + 0.1 * np.eye(dim)
        leg = leg_of(gaussian, delta, theta, target_sigma)
        strategies = make_strategies("all")
        for strategy in strategies:
            strategy.prepare(leg)
        alpha, _ = alpha_radii(leg.gaussian, delta, theta)
        directions = rng.normal(size=(60, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = gaussian.mean + directions * rng.uniform(
            0.0, 1.5 * alpha, size=(60, 1)
        )
        convolved = Gaussian(gaussian.mean, gaussian.sigma + target_sigma)
        probs = np.array([
            qualification_probability_exact(convolved, mean, delta)
            for mean in means
        ])
        assert (probs >= theta).any() and (probs < theta).any()
        for strategy in strategies:
            codes = strategy.classify(means)
            assert not (probs[codes == REJECT] >= theta).any(), strategy.name
            assert not (probs[codes == ACCEPT] < theta).any(), strategy.name

    def test_none_when_threshold_unreachable(self):
        gaussian = Gaussian([0.0, 0.0, 0.0], 50.0 * np.eye(3))
        leg = leg_of(gaussian, 0.05, 0.3, 25.0 * np.eye(3))
        (bf,) = make_strategies("bf")
        bf.prepare(leg)
        assert bf.proves_empty and bf.search_rect() is None

    def test_negative_max_eig_raises(self):
        # A Σ_o with a negative eigenvalue could make Σ_q + Σ_o look like
        # a tighter query than the exact target: rejected up front.
        with pytest.raises(QueryError, match="positive semi-definite"):
            TargetCovarianceTable.shared(-np.eye(2), range(3))
