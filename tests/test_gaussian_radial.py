"""Tests for radial mass functions — including the paper's numeric anchors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro.core.database import SpatialDatabase
from repro.errors import GeometryError
from repro.gaussian.distribution import Gaussian
from repro.integrate.exact import ExactIntegrator
from repro.gaussian.radial import (
    alpha_for_mass,
    offset_sphere_mass,
    r_theta,
    radial_cdf,
    radial_ppf,
)


class TestRadialCdf:
    def test_matches_chi_distribution(self):
        for dim in (1, 2, 3, 9, 15):
            r = np.linspace(0.01, 6.0, 30)
            np.testing.assert_allclose(
                radial_cdf(dim, r), stats.chi.cdf(r, dim), rtol=1e-12
            )

    def test_paper_anchor_2d_39_percent(self):
        # Section VI: "if a query object obeys 2D pnorm ... the probability
        # that the object is located within distance one ... is 39%".
        assert radial_cdf(2, 1.0) == pytest.approx(0.393, abs=0.001)

    def test_paper_anchor_9d_9_percent(self):
        # "for the 9D case, the probability within distance two ... is only 9%".
        assert radial_cdf(9, 2.0) == pytest.approx(0.09, abs=0.005)

    def test_monotone_in_radius(self):
        r = np.linspace(0, 5, 50)
        values = radial_cdf(5, r)
        assert np.all(np.diff(values) >= 0)

    def test_decreasing_in_dimension(self):
        # Curse of dimensionality (Fig. 17): at fixed radius, mass shrinks
        # as the dimension grows.
        masses = [radial_cdf(d, 2.0) for d in (2, 3, 5, 9, 15)]
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_rejects_negative_radius(self):
        with pytest.raises(GeometryError):
            radial_cdf(2, -1.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(GeometryError):
            radial_cdf(0, 1.0)


class TestRadialPpf:
    @given(st.integers(1, 20), st.floats(0.001, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_cdf(self, dim, mass):
        r = radial_ppf(dim, mass)
        assert radial_cdf(dim, r) == pytest.approx(mass, abs=1e-9)

    def test_zero_mass(self):
        assert radial_ppf(3, 0.0) == 0.0

    def test_rejects_mass_one(self):
        with pytest.raises(GeometryError):
            radial_ppf(2, 1.0)


class TestRTheta:
    def test_paper_anchor_2d(self):
        # rtheta for the 98% region (theta=0.01) is 2.79 in the paper.
        assert r_theta(2, 0.01) == pytest.approx(2.79, abs=0.01)

    def test_paper_anchor_9d_98(self):
        assert r_theta(9, 0.01) == pytest.approx(4.44, abs=0.01)

    def test_paper_anchor_9d_40(self):
        # Section VI-A: theta = 40% gives rtheta = 2.32.
        assert r_theta(9, 0.40) == pytest.approx(2.32, abs=0.01)

    def test_encloses_exactly_1_minus_2theta(self):
        for theta in (0.01, 0.1, 0.4):
            assert radial_cdf(2, r_theta(2, theta)) == pytest.approx(
                1 - 2 * theta, abs=1e-10
            )

    def test_decreasing_in_theta(self):
        radii = [r_theta(3, t) for t in (0.01, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.7, -0.1])
    def test_rejects_theta_outside_open_half(self, theta):
        with pytest.raises(GeometryError):
            r_theta(2, theta)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9, 15])
    def test_tiny_theta_inverts_the_upper_tail(self, dim):
        """1 − 2θ rounds to 1.0 below θ = 2⁻⁵⁴ (and loses the tail well
        before), so small θ inverts Q(d/2, r²/2) = 2θ instead; from the cut
        up the lower-tail form is kept bit for bit."""
        for theta in [10.0**-k for k in range(1, 301)] + [5e-324]:
            radius = r_theta(dim, theta)
            assert np.isfinite(radius) and radius > 0
            if theta < 1e-6:
                tail = np.sqrt(2.0 * special.gammainccinv(dim / 2.0, 2.0 * theta))
                assert radius == float(tail)
            else:
                assert radius == radial_ppf(dim, 1.0 - 2.0 * theta)

    def test_tiny_theta_query_runs_every_strategy(self):
        db = SpatialDatabase(np.random.default_rng(7).random((2000, 2)) * 1000)
        root3 = np.sqrt(3.0)
        sigma = 10.0 * np.array([[7.0, 2.0 * root3], [2.0 * root3, 3.0]])
        answers = {}
        for spec in ("all", "bf"):
            result = db.probabilistic_range_query(
                Gaussian([500.0, 500.0], sigma),
                25.0,
                1e-300,
                strategies=spec,
                integrator=ExactIntegrator(),
            )
            answers[spec] = result.ids
        assert answers["all"] and answers["all"] == answers["bf"]


class TestOffsetSphereMass:
    def test_zero_offset_equals_radial_cdf(self):
        assert offset_sphere_mass(3, 1.5, 0.0) == pytest.approx(
            radial_cdf(3, 1.5), rel=1e-10
        )

    def test_matches_monte_carlo(self, rng):
        dim, delta, alpha = 2, 2.0, 1.5
        z = rng.standard_normal((400_000, dim))
        offset = np.zeros(dim)
        offset[0] = alpha
        frac = np.mean(np.sum((z - offset) ** 2, axis=1) <= delta**2)
        assert offset_sphere_mass(dim, delta, alpha) == pytest.approx(
            frac, abs=0.003
        )

    def test_decreasing_in_offset(self):
        masses = [offset_sphere_mass(2, 1.0, a) for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_zero_radius_mass_is_zero(self):
        assert offset_sphere_mass(2, 0.0, 1.0) == 0.0


class TestAlphaForMass:
    @given(
        st.integers(1, 9),
        st.floats(0.3, 4.0),
        st.floats(0.001, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, dim, delta, theta):
        alpha = alpha_for_mass(dim, delta, theta)
        if alpha is None:
            # No solution means even the centred ball is too light.
            assert radial_cdf(dim, delta) < theta
        else:
            assert offset_sphere_mass(dim, delta, alpha) == pytest.approx(
                theta, abs=1e-9
            )

    def test_seeded_table_round_trips_and_decreases_in_theta(self):
        """The inversion itself as the unit under test: 1080 seeded
        (d, δ, θ) shapes, each δ swept over increasing θ up to past the
        centred ball's mass, so ``None`` outcomes are in the table."""
        rng = np.random.default_rng(20260928)
        shapes = nones = 0
        for dim in (1, 2, 3, 5, 9, 15):
            for delta in 10.0 ** rng.uniform(-1.5, 2.5, size=12):
                peak = radial_cdf(dim, delta)
                thetas = np.sort(rng.uniform(0.0, 1.0, size=15) ** 3) * min(
                    1.0, 1.2 * peak
                )
                alphas = [alpha_for_mass(dim, delta, float(t)) for t in thetas]
                shapes += len(alphas)
                for theta, alpha in zip(thetas, alphas):
                    if alpha is None:
                        assert peak < theta
                        nones += 1
                    else:
                        assert offset_sphere_mass(dim, delta, alpha) == (
                            pytest.approx(theta, abs=1e-9)
                        )
                found = [a for a in alphas if a is not None]
                # Once θ passes the peak every later θ is unreachable too.
                assert alphas[: len(found)] == found
                assert all(a > b for a, b in zip(found, found[1:]))
        assert shapes >= 1000 and nones > 0

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9, 15])
    def test_round_trip_through_the_normal_approximation(self, dim):
        """δ = 10⁶ puts the root where ``chndtr`` overflows to NaN, so the
        mass curve being inverted is the normal-approximation fallback.

        There ``brentq``'s ``rtol`` (1e-12·α ≈ 1e-6) is what bounds the
        root; the curve's slope never exceeds the normal density's 0.4,
        so the mass is held to that, not to 1e-9.
        """
        delta = 1e6
        low, high = alpha_for_mass(dim, delta, 0.05), alpha_for_mass(dim, delta, 0.6)
        assert low > high
        for theta, alpha in ((0.05, low), (0.6, high)):
            assert np.isnan(special.chndtr(delta * delta, dim, alpha * alpha))
            assert offset_sphere_mass(dim, delta, alpha) == (
                pytest.approx(theta, abs=1e-12 * alpha)
            )

    def test_pruning_radius_survives_the_chndtr_flush(self):
        """``chndtr`` flushes to 0 near 1e-79 here, so below that the plain
        root stalls at α∥ = 203.25 whatever θ is, and BF would prune a
        point 208.25 out along the major axis whose Pr (≈ 1.5e-83 by
        quadrature) is far above θ = 1e-100.  The pruning side inverts a
        Chernoff bound there instead; the acceptance side keeps the early
        (smaller, still sound) root."""
        from repro.bench.harness import paper_sigma
        from repro.core.query import ProbabilisticRangeQuery
        from repro.core.strategies import REJECT, BoundingFunctionStrategy

        gaussian = Gaussian([0.0, 0.0], paper_sigma(10.0))
        offset = 208.25
        point = offset * gaussian.basis[:, 0]
        # Pr is at least the mass of the square inscribed in the δ-ball.
        half = 25.0 / np.sqrt(2.0)
        major, minor = np.sqrt(gaussian.eigenvalues)
        square = (
            special.ndtr(-(offset - half) / major)
            - special.ndtr(-(offset + half) / major)
        ) * (special.ndtr(half / minor) - special.ndtr(-half / minor))
        assert square > 1e-100
        uppers = []
        for theta in (1e-100, 1e-300):
            strategy = BoundingFunctionStrategy()
            strategy.prepare(ProbabilisticRangeQuery(gaussian, 25.0, theta))
            assert strategy.classify(point[None, :])[0] != REJECT
            uppers.append(alpha_for_mass(2, 2.5, theta, prune=True))
            assert alpha_for_mass(2, 2.5, theta) < uppers[-1]
        assert uppers[0] < uppers[1]

    def test_pruning_radius_is_the_plain_root_above_the_flush(self):
        for dim, delta, theta in ((2, 2.6, 1e-70), (9, 4.0, 1e-6), (3, 0.5, 0.2)):
            assert alpha_for_mass(dim, delta, theta, prune=True) == (
                alpha_for_mass(dim, delta, theta)
            )

    def test_none_when_unreachable(self):
        # In 9-D a sphere of radius 1 holds ~0.04% of the mass: theta = 0.5
        # is unreachable at any offset.
        assert alpha_for_mass(9, 1.0, 0.5) is None

    def test_zero_alpha_at_max_mass(self):
        peak = radial_cdf(2, 1.0)
        assert alpha_for_mass(2, 1.0, peak) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(GeometryError):
            alpha_for_mass(2, 0.0, 0.1)
        with pytest.raises(GeometryError):
            alpha_for_mass(2, 1.0, 0.0)
        with pytest.raises(GeometryError):
            alpha_for_mass(2, 1.0, 1.0)
