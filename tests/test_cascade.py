"""Deterministic Phase-3 cascade: correctness, tiering and determinism.

The cascade must agree with the exact quadratic-form CDF (its own ground
truth) and with a high-sample Monte-Carlo oracle on anisotropic Gaussians
across dimensions, decide candidates in the advertised tiers, and — being
RNG-free — make ``run_batch`` bit-identical across worker counts without
drawing a single sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.query import ProbabilisticRangeQuery
from repro.core.strategies import make_strategies
from repro.errors import IntegrationError
from repro.gaussian import quadform
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import (
    GaussianQuadraticForm,
    chi2_sandwich_bounds,
    chi2_sandwich_bounds_block,
    imhof_cdf,
    imhof_cdf_block,
    qualification_probability_exact,
    ruben_cdf,
)
from repro.index.rtree import RStarTree
from repro.integrate import CascadeIntegrator, ImportanceSamplingIntegrator, cascade
from repro.integrate.cascade import TOL
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult
from repro.kernels import ruben_block
from repro.obs import Observability

from tests.conftest import random_spd
from tests.test_filter_soundness import oracle_probabilities


def anisotropic_case(dim: int, seed: int, n_points: int = 40):
    """A random anisotropic Gaussian plus a candidate cloud spanning the
    full probability range (reusing the soundness-suite recipe)."""
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, dim, scale=1.0 + 3.0 * rng.random())
    gaussian = Gaussian(10.0 * rng.standard_normal(dim), sigma)
    delta = float(0.5 + 2.5 * rng.random()) * np.sqrt(np.trace(sigma) / dim)
    spread = np.sqrt(gaussian.eigenvalues.max())
    radii = (4.0 * rng.random(n_points)) * (spread + delta)
    directions = rng.standard_normal((n_points, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = gaussian.mean + radii[:, None] * directions
    return gaussian, points, delta


class TestVectorisedQuadform:
    def test_block_sandwich_matches_scalar(self):
        gaussian, points, delta = anisotropic_case(3, seed=5)
        block = chi2_sandwich_bounds_block(gaussian, points, delta)
        assert block.shape == (points.shape[0], 2)
        for row, point in zip(block, points):
            form = GaussianQuadraticForm.squared_distance(gaussian, point)
            lower, upper = chi2_sandwich_bounds(form, delta * delta)
            # Sound: the block interval contains the exact scalar interval
            # (the compiled backend widens by its numerical-error margin).
            assert row[0] <= lower + 1e-14
            assert row[1] >= upper - 1e-14
            # Tight: the widening stays within the documented epsilon.
            assert row[0] == pytest.approx(lower, abs=1e-10)
            assert row[1] == pytest.approx(upper, abs=1e-10)

    def test_block_sandwich_zero_delta(self):
        gaussian, points, _ = anisotropic_case(2, seed=6)
        assert np.all(chi2_sandwich_bounds_block(gaussian, points, 0.0) == 0.0)

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_ruben_block_matches_scalar(self, dim):
        gaussian, points, delta = anisotropic_case(dim, seed=dim)
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            gaussian, points
        )
        lower, upper, ok = ruben_block(
            weights, np.ones_like(weights), ncs, delta * delta, tol=1e-12
        )
        assert ok.all()
        for i, point in enumerate(points):
            form = GaussianQuadraticForm.squared_distance(gaussian, point)
            try:
                expected = ruben_cdf(form, delta * delta)
            except IntegrationError:
                # Scalar Ruben's leading weight underflows; the block's
                # does not, so Imhof is the reference for the row.
                expected = imhof_cdf(form, delta * delta)
            assert upper[i] - lower[i] < 1e-10
            assert lower[i] - 1e-10 <= expected <= upper[i] + 1e-10

    def test_ruben_block_flags_underflow(self):
        """Extreme noncentrality: scalar Ruben raises on a leading weight
        exp(-3200), the block path decides the row on its power-of-two
        scale, inside Imhof's value, at P ≈ 0 and at P ≈ 1/2 alike."""
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        points = np.array([[0.5, 0.0], [80.0, 0.0]])
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            gaussian, points
        )
        form = GaussianQuadraticForm.squared_distance(gaussian, points[1])
        for x in (4.0, 6400.0):
            with pytest.raises(IntegrationError):
                ruben_cdf(form, x)
            expected = imhof_cdf(form, x)
            lower, upper, ok = ruben_block(weights, np.ones(2), ncs, x)
            assert ok.all()
            assert upper[1] - lower[1] < 1e-11
            assert lower[1] - 1e-10 <= expected <= upper[1] + 1e-10
        assert 0.4 < expected < 0.6

    def test_decision_aware_truncation_agrees_with_converged(self):
        gaussian, points, delta = anisotropic_case(2, seed=9)
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            gaussian, points
        )
        tight = ruben_block(
            weights, np.ones_like(weights), ncs, delta * delta, tol=1e-12
        )
        theta = 0.2
        fast = ruben_block(
            weights, np.ones_like(weights), ncs, delta * delta, theta=theta
        )
        exact = 0.5 * (tight[0] + tight[1])
        for i in range(points.shape[0]):
            if not (tight[2][i] and fast[2][i]):
                continue
            decided_accept = fast[0][i] >= theta
            decided_reject = fast[1][i] < theta
            assert decided_accept or decided_reject or (
                fast[1][i] - fast[0][i] < 1e-12
            )
            if decided_accept:
                assert exact[i] >= theta - 1e-9
            if decided_reject:
                assert exact[i] < theta + 1e-9


class TestCascadeAgreement:
    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_cascade_vs_exact_vs_monte_carlo(self, dim):
        gaussian, points, delta = anisotropic_case(dim, seed=40 + dim)
        cascade = CascadeIntegrator()
        results = cascade.qualification_probabilities(gaussian, points, delta)
        estimates = np.array([r.estimate for r in results])
        # Exact scalar ground truth (Imhof / Ruben with fallback).
        exact = np.array([
            qualification_probability_exact(gaussian, p, delta)
            for p in points
        ])
        np.testing.assert_allclose(estimates, exact, atol=1e-6)
        # Monte-Carlo oracle agreement within its own sampling noise (the
        # rule-of-three slack covers tail probabilities the oracle's
        # finite sample cannot resolve: stderr is 0 at zero observed hits).
        oracle, stderr = oracle_probabilities(
            gaussian, points, delta, seed=77 + dim
        )
        assert np.all(np.abs(estimates - oracle) <= 5.0 * stderr + 1e-5)
        assert all(r.n_samples == 0 for r in results)

    def test_decide_matches_exact_threshold_rule(self):
        gaussian, points, delta = anisotropic_case(3, seed=21)
        theta = 0.15
        cascade = CascadeIntegrator()
        accept, tally, samples = cascade.decide(
            gaussian, points, delta, theta
        )
        assert accept.shape == (points.shape[0],) and accept.dtype == bool
        # The cascade decides everything, and without drawing a sample.
        assert sum(tally.values()) == points.shape[0] and samples == 0
        exact = np.array([
            qualification_probability_exact(gaussian, p, delta)
            for p in points
        ])
        np.testing.assert_array_equal(accept, exact >= theta)
        # The value path must back the decision under estimate >= θ.
        results = cascade.qualification_probabilities(gaussian, points, delta)
        for est, acc in zip(results, accept):
            assert est.meets_threshold(theta) == acc

    def test_empty_block(self):
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        accept, tally, samples = CascadeIntegrator().decide(
            gaussian, np.empty((0, 2)), 1.0, 0.1
        )
        assert accept.size == 0 and accept.dtype == bool
        assert sum(tally.values()) == 0 and samples == 0

    def test_scalar_entry_point(self, paper_gaussian):
        cascade = CascadeIntegrator()
        point = np.array([510.0, 490.0])
        got = cascade.qualification_probability(paper_gaussian, point, 25.0)
        expected = qualification_probability_exact(paper_gaussian, point, 25.0)
        assert got.estimate == pytest.approx(expected, abs=1e-6)
        assert got.n_samples == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(IntegrationError):
            CascadeIntegrator().decide(
                Gaussian([0.0, 0.0], np.eye(2)),
                np.zeros((1, 2)),
                -1.0,
                0.1,
            )


def short_ruben(monkeypatch, terms: int = 1) -> None:
    """Cap Ruben at ``terms`` terms, so rows reach the fallback tiers."""
    monkeypatch.setattr(cascade, "MAX_TERMS", terms)


class TestTiering:
    def test_tier_labels_partition_the_block(self, monkeypatch):
        gaussian, points, delta = anisotropic_case(2, seed=33, n_points=120)
        accept, counts, _ = CascadeIntegrator().decide(
            gaussian, points, delta, 0.05
        )
        # Ruben runs first and decides the whole cloud, deep-inside to
        # far-outside, by itself.
        assert counts == {
            "cascade-sandwich": 0,
            "cascade-ruben": points.shape[0],
            "cascade-imhof": 0,
        }
        # Capped at one term it cannot: the fallback tiers take the rest,
        # the labels still partition the block, and no decision moves.
        short_ruben(monkeypatch)
        capped, counts, _ = CascadeIntegrator().decide(
            gaussian, points, delta, 0.05
        )
        assert sum(counts.values()) == points.shape[0]
        assert counts["cascade-ruben"] > 0 and counts["cascade-sandwich"] > 0
        np.testing.assert_array_equal(capped, accept)

    def test_far_candidates_decided_by_sandwich_alone(self, paper_gaussian):
        """Far candidates no longer need the sandwich: Ruben's upper bound
        (remaining mass times G_k) drops below θ within a few terms."""
        far = paper_gaussian.mean + np.array([[5000.0, 0.0], [0.0, 7000.0]])
        accept, tally, _ = CascadeIntegrator().decide(
            paper_gaussian, far, 25.0, 0.01
        )
        assert not np.any(accept)
        assert tally["cascade-ruben"] == len(far) == sum(tally.values())
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            paper_gaussian, far
        )
        _, upper, ok = ruben_block(
            weights, np.ones(2), ncs, 625.0, theta=0.01, max_terms=50
        )
        assert ok.all() and np.all(upper < 0.01)

    def test_underflow_candidates_reach_imhof(self, monkeypatch):
        """Anisotropic covariance (isotropic ones make the sandwich bounds
        exact) with huge noncentrality and a ball past the mean: Ruben
        decides it on its power-of-two scale, and when it cannot finish,
        the sandwich stays wide and only Imhof can settle it."""
        gaussian = Gaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        points = np.array([[40.0, 0.0]])
        expected = qualification_probability_exact(
            gaussian, points[0], 42.0, method="imhof"
        )
        for tier in ("cascade-ruben", "cascade-imhof"):
            if tier == "cascade-imhof":
                short_ruben(monkeypatch)
            accept, tally, _ = CascadeIntegrator().decide(
                gaussian, points, 42.0, 0.5
            )
            assert tally[tier] == 1 == sum(tally.values())
            assert accept[0]  # exact probability is > 0.5 here
            (result,) = CascadeIntegrator().qualification_probabilities(
                gaussian, points, 42.0
            )
            assert result.method == tier
            assert result.estimate == pytest.approx(expected, abs=1e-9)

    def test_imhof_tier_reports_its_quadrature_error(self, monkeypatch):
        short_ruben(monkeypatch)
        gaussian = Gaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        points = np.array([[40.0, 0.0], [39.0, 9.0], [38.5, 20.0]])
        delta = 42.0
        integrator = CascadeIntegrator()
        results = integrator.qualification_probabilities(gaussian, points, delta)
        assert {r.method for r in results} == {"cascade-imhof"}
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            gaussian, points
        )
        refined = imhof_cdf_block(
            weights, np.ones(2), ncs, delta * delta, tol=1e-13
        )[0]
        for result, truth in zip(results, refined):
            # A collapsed interval: the half-width is the truncation bound
            # plus the last refinement gap, not the old flat 0.
            assert 0.0 < result.stderr < 0.5 * TOL
            assert abs(result.estimate - truth) <= result.stderr

    @pytest.mark.parametrize("wild", [-0.25, 1.0])
    def test_imhof_tier_only_tightens_the_sandwich(self, wild, monkeypatch):
        """A scalar-fallback row can come back far outside the rigorous
        interval the earlier tiers left (cond(Σ) ≳ 1e6); Tier 3 intersects
        with that interval, it does not overwrite it."""
        short_ruben(monkeypatch)
        gaussian = Gaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        points = np.array([[40.0, 0.0]])
        ((lower, upper),) = chi2_sandwich_bounds_block(gaussian, points, 42.0)
        assert 0.0 <= lower < upper < 0.98
        # One Ruben term leaves [0, ~1]: the sandwich is the interval.
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            gaussian, points
        )
        lo1, hi1, ok1 = ruben_block(weights, np.ones(2), ncs, 42.0**2, max_terms=1)
        assert not ok1[0] and lo1[0] <= lower and upper <= hi1[0]
        monkeypatch.setattr(
            cascade,
            "imhof_cdf_block",
            lambda *args, **kwargs: (np.array([wild]), np.zeros(1), 0, 1),
        )
        (result,) = CascadeIntegrator().qualification_probabilities(
            gaussian, points, 42.0
        )
        assert result.method == "cascade-imhof"
        assert result.estimate == (lower if wild < lower else upper)
        assert result.stderr == 0.0

    def test_scalar_fallback_gives_the_same_decisions(self, monkeypatch):
        short_ruben(monkeypatch)
        gaussian = Gaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        points = np.array([[40.0, 0.0], [39.0, 9.0], [38.5, 20.0], [44.0, 3.0]])

        def traced_decide():
            obs = Observability()
            integrator = CascadeIntegrator()
            integrator.obs = obs
            outcome = integrator.decide(gaussian, points, 42.0, 0.5)
            (span,) = [s for s in obs.tracer.spans if s.name == "tier:imhof"]
            values = integrator.qualification_probabilities(
                gaussian, points, 42.0
            )
            return outcome, span.attributes, values

        swept, sweep_span, swept_values = traced_decide()
        monkeypatch.setattr(quadform, "_BLOCK_MAX_NODES", 1)
        scalar, scalar_span, scalar_values = traced_decide()
        assert swept[1] == scalar[1] and swept[2] == scalar[2] == 0
        reached = scalar[1]["cascade-imhof"]
        assert sweep_span["candidates"] == scalar_span["candidates"] == reached >= 3
        assert sweep_span["nodes"] > 0 and sweep_span["scalar_fallbacks"] == 0
        assert scalar_span["nodes"] == 0
        assert scalar_span["scalar_fallbacks"] == reached
        assert swept[0].tolist() == scalar[0].tolist()
        assert 0 < np.count_nonzero(swept[0]) < len(points)
        for a, b in zip(swept_values, scalar_values):
            assert a.method == b.method
            assert a.estimate == pytest.approx(b.estimate, abs=2e-8)
            if b.method == "cascade-imhof":
                assert b.stderr == 0.0  # the scalar path gives no estimate

    def test_engine_records_tier_decisions(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts = rng.random((3000, 2)) * 100.0
        index = RStarTree(2)
        index.bulk_load(list(range(len(pts))), pts)
        # RR+OR only reject, so every surviving candidate reaches Phase 3.
        engine = QueryEngine(
            index, make_strategies("rr+or"), CascadeIntegrator()
        )
        query = ProbabilisticRangeQuery(
            Gaussian([50.0, 50.0], 40.0 * np.eye(2)), 8.0, 0.02
        )
        # Phase 3 hands over a block: the decision path builds no
        # per-candidate IntegrationResult (one per integration before).
        built = []
        monkeypatch.setattr(
            IntegrationResult, "__post_init__", lambda self: built.append(self)
        )
        for stats in (
            engine.execute(query).stats,
            engine.run_batch([query, query], workers=2)[1].stats,
        ):
            assert stats.integrations > 0
            assert sum(stats.tier_decisions.values()) == stats.integrations
            assert set(stats.tier_decisions) <= {
                "cascade-sandwich", "cascade-ruben", "cascade-imhof"
            }
            assert stats.integration_samples == 0
        assert built == []
        CascadeIntegrator().qualification_probabilities(
            query.gaussian, pts[:3], query.delta
        )
        assert len(built) == 3  # the value path still does, and is counted


class TestDecideDefault:
    def test_base_class_decide_equals_threshold_rule(self, paper_gaussian):
        pts = paper_gaussian.mean + np.array(
            [[0.0, 0.0], [15.0, -10.0], [60.0, 40.0], [200.0, 0.0]]
        )
        theta = 0.05
        a = ImportanceSamplingIntegrator(4_000, seed=3, share_samples=True)
        b = ImportanceSamplingIntegrator(4_000, seed=3, share_samples=True)
        # The sampler's own decide settles rows by bounds first; the base
        # class's is the fixed-budget estimate plus the threshold rule.
        accept, tally, samples = ProbabilityIntegrator.decide(
            a, paper_gaussian, pts, 25.0, theta
        )
        reference = b.qualification_probabilities(paper_gaussian, pts, 25.0)
        np.testing.assert_array_equal(
            accept, [r.meets_threshold(theta) for r in reference]
        )
        assert tally == {reference[0].method: len(pts)}
        assert samples == sum(r.n_samples for r in reference) > 0


class TestBatchDeterminism:
    def test_run_batch_bit_identical_and_sampling_free(self):
        rng = np.random.default_rng(17)
        pts = rng.random((4000, 2)) * 100.0
        index = RStarTree(2)
        index.bulk_load(list(range(len(pts))), pts)
        engine = QueryEngine(
            index, make_strategies("rr+or"), CascadeIntegrator()
        )
        queries = [
            ProbabilisticRangeQuery(
                Gaussian(center, variance * np.eye(2)), delta, theta
            )
            for center, variance, delta, theta in (
                ([30.0, 40.0], 30.0, 7.0, 0.02),
                ([55.0, 60.0], 60.0, 10.0, 0.05),
                ([80.0, 20.0], 15.0, 5.0, 0.10),
                ([10.0, 90.0], 45.0, 9.0, 0.01),
            )
        ]
        reference = engine.run_batch(queries, workers=1)
        assert reference.stats.integration_samples == 0
        assert reference.stats.integrations > 0
        for workers in (2, 4):
            again = engine.run_batch(queries, workers=workers)
            assert again.ids == reference.ids
            assert again.stats.integration_samples == 0
            assert (
                again.stats.tier_decisions == reference.stats.tier_decisions
            )
        # Different base seeds change nothing either: the cascade is
        # RNG-free end to end.
        reseeded = engine.run_batch(queries, workers=3, base_seed=999)
        assert reseeded.ids == reference.ids


class TestTinyTheta:
    """Far below ``TOL`` a θ-decision collapses at ``THETA_TOL · θ``."""

    def test_sandwich_narrower_than_tol_is_not_a_midpoint_accept(self):
        """The sandwich [7.98e-12, 3.50e-10] is narrower than TOL, and
        its midpoint sits above θ = 9.83e-11; the truth, 1.76e-11, does
        not."""
        g = Gaussian([0.0, 0.0], np.diag([4.0, 1.0]))
        point = np.array([[14.0, 0.0]])
        lower, upper = chi2_sandwich_bounds_block(g, point, 1.0)[0]
        assert upper - lower < TOL and 0.5 * (lower + upper) >= 9.83e-11
        truth = qualification_probability_exact(g, point[0], 1.0)
        assert truth == pytest.approx(1.759e-11, rel=1e-3)
        accept, _, _ = CascadeIntegrator().decide(g, point, 1.0, 9.83e-11)
        assert not accept[0]

    @pytest.mark.parametrize("theta", [1e-12, 1e-10, 1e-8])
    def test_decisions_match_the_oracle(self, theta):
        """Rows a relative 1e-5..1e-2 off the radius where the exact
        probability equals θ: each is decided on its true side, and the
        Ruben tier's interval, compiled or not, encloses the truth."""
        from repro.kernels import fallback

        rng = np.random.default_rng(round(-np.log10(theta)))
        for _ in range(6):
            dim = int(rng.integers(2, 4))
            g = Gaussian(np.zeros(dim), random_spd(rng, dim))
            delta = float(rng.uniform(0.5, 3.0))
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)

            def exact(radius):
                return qualification_probability_exact(
                    g, radius * direction, delta
                )

            near, far = 0.0, 200.0
            for _ in range(50):
                mid = 0.5 * (near + far)
                near, far = (mid, far) if exact(mid) >= theta else (near, mid)
            offsets = rng.choice([-1.0, 1.0], 8) * 10 ** rng.uniform(-5, -2, 8)
            points = (near * (1.0 + offsets))[:, None] * direction
            truth = np.array([exact(np.linalg.norm(p)) for p in points])
            assert np.all(np.abs(truth - theta) > 1e-6 * theta)
            accept, _, _ = CascadeIntegrator().decide(g, points, delta, theta)
            np.testing.assert_array_equal(accept, truth >= theta)
            weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
                g, points
            )
            for block in (ruben_block, fallback.ruben_block):
                lo, hi, ok = block(
                    weights, np.ones(dim), ncs, delta * delta,
                    theta=theta, tol=1e-6 * theta,
                )
                slack = 1e-12 * truth
                assert np.all(~ok | ((lo <= truth + slack) & (truth - slack <= hi)))


class TestIllConditionedFalseDismissal:
    """At cond(Σ) ≥ 1e6 the scalar Imhof tail is wrong, and the cascade
    drops objects that qualify.

    Both rows end in the ``cascade-imhof`` tier, where SciPy warns that
    QAWF hit its maximum number of cycles.  The first row's truth is
    ≈ 0.0556 (4e6-draw MC 0.05570; ``qualification_probability_exact``
    reads 0.046398); the second's rigorous interval is [0.016404,
    0.016417] (MC 0.01632).  Both qualify, so the cascade must accept
    them.  Strict xfail: the day a sound tier lands these turn into
    failures and the mark comes off.
    """

    ROWS = {
        "cond1e8": ((1.0, 1e8), (-7965.49, -3520.62), 8000.0, 0.05),
        "cond1e6": ((1.0, 1e6), (-795.12, -1704.85), 800.0, 0.0163),
    }

    @pytest.fixture(params=["c", "numpy"])
    def backend(self, request, monkeypatch):
        from repro import kernels

        if request.param == "numpy":
            monkeypatch.setattr(kernels, "_LIB", None)
        elif kernels.BACKEND != "c":
            pytest.skip("no compiled kernel backend on this machine")
        return request.param

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="scalar Imhof past Ruben's reach is wrong at cond(Σ) ≥ 1e6",
    )
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_qualifying_row_is_accepted(self, backend, row):
        eigenvalues, point, delta, theta = self.ROWS[row]
        g = Gaussian(np.zeros(2), np.diag(eigenvalues))
        accept, tally, _ = CascadeIntegrator().decide(
            g, np.array([point]), delta, theta
        )
        assert tally["cascade-imhof"] == 1
        assert accept[0]
