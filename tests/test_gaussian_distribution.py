"""Tests for the Gaussian distribution object."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.errors import DimensionMismatchError, GeometryError, NotPositiveDefiniteError
from repro.gaussian.distribution import Gaussian
from tests.conftest import random_spd


class TestConstruction:
    def test_basic_properties(self, paper_sigma_10):
        g = Gaussian([500.0, 500.0], paper_sigma_10)
        assert g.dim == 2
        np.testing.assert_allclose(g.eigenvalues, [90.0, 10.0], rtol=1e-12)
        assert g.det_sigma == pytest.approx(900.0)
        assert g.condition_number == pytest.approx(9.0)

    def test_lam_parallel_perp_are_sigma_inverse_eigs(self, paper_sigma_10):
        g = Gaussian([0.0, 0.0], paper_sigma_10)
        # Eq. 9/10: lambda_par = min eig of Sigma^{-1}, lambda_perp = max.
        inv_eigs = np.linalg.eigvalsh(np.linalg.inv(paper_sigma_10))
        assert g.lam_parallel == pytest.approx(inv_eigs.min())
        assert g.lam_perp == pytest.approx(inv_eigs.max())

    def test_isotropic(self):
        g = Gaussian.isotropic([1.0, 2.0, 3.0], 4.0)
        np.testing.assert_allclose(g.eigenvalues, [4.0, 4.0, 4.0])

    def test_isotropic_rejects_nonpositive_variance(self):
        with pytest.raises(GeometryError):
            Gaussian.isotropic([0.0], 0.0)

    def test_standard(self):
        g = Gaussian.standard(3)
        np.testing.assert_allclose(g.mean, np.zeros(3))
        assert g.det_sigma == pytest.approx(1.0)

    def test_rejects_bad_covariance(self):
        with pytest.raises(NotPositiveDefiniteError):
            Gaussian([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))  # eig -1

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Gaussian([0.0, 0.0, 0.0], np.eye(2))

    def test_from_samples(self, rng):
        samples = rng.standard_normal((5000, 2)) @ np.diag([3.0, 1.0]) + [10, 20]
        g = Gaussian.from_samples(samples)
        np.testing.assert_allclose(g.mean, [10, 20], atol=0.2)
        np.testing.assert_allclose(np.diag(g.sigma), [9.0, 1.0], rtol=0.1)

    def test_from_samples_ridge(self, rng):
        samples = rng.standard_normal((100, 3))
        g0 = Gaussian.from_samples(samples)
        g1 = Gaussian.from_samples(samples, ridge=2.0)
        np.testing.assert_allclose(g1.sigma - g0.sigma, 2.0 * np.eye(3), atol=1e-10)

    def test_from_samples_rejects_single_row(self):
        with pytest.raises(GeometryError):
            Gaussian.from_samples(np.ones((1, 2)))


class TestDensity:
    def test_pdf_matches_scipy(self, rng):
        sigma = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        g = Gaussian(mean, sigma)
        pts = rng.standard_normal((25, 3)) * 2
        expected = stats.multivariate_normal(mean, sigma).pdf(pts)
        np.testing.assert_allclose(g.pdf(pts), expected, rtol=1e-9)

    def test_log_pdf_peak_at_mean(self, paper_gaussian):
        peak = paper_gaussian.log_pdf(paper_gaussian.mean[None, :])[0]
        expected = -math.log(2 * math.pi) - 0.5 * math.log(900.0)
        assert peak == pytest.approx(expected)

    def test_bounding_functions_sandwich_density(self, rng, paper_gaussian):
        # Property 4: p_perp <= p <= p_par everywhere.
        pts = paper_gaussian.mean + rng.uniform(-60, 60, size=(500, 2))
        log_upper, log_lower = paper_gaussian.bounding_log_pdf(pts)
        log_p = paper_gaussian.log_pdf(pts)
        assert np.all(log_lower <= log_p + 1e-12)
        assert np.all(log_p <= log_upper + 1e-12)

    def test_bounding_functions_tight_on_axes(self, paper_gaussian):
        # Along the major eigen-axis the upper bound is exact; along the
        # minor axis the lower bound is exact.
        g = paper_gaussian
        major = g.mean + 10.0 * g.basis[:, 0]
        minor = g.mean + 10.0 * g.basis[:, 1]
        up, lo = g.bounding_log_pdf(np.vstack([major, minor]))
        p = g.log_pdf(np.vstack([major, minor]))
        assert up[0] == pytest.approx(p[0], abs=1e-9)
        assert lo[1] == pytest.approx(p[1], abs=1e-9)


class TestSampling:
    def test_sample_moments(self, rng, paper_gaussian):
        samples = paper_gaussian.sample(100_000, rng)
        np.testing.assert_allclose(samples.mean(axis=0), paper_gaussian.mean, atol=0.15)
        np.testing.assert_allclose(
            np.cov(samples.T), paper_gaussian.sigma, rtol=0.05
        )

    def test_sample_into_a_workspace_is_the_same_draw(self, paper_gaussian):
        fresh = paper_gaussian.sample(4_000, np.random.default_rng(11))
        work = np.empty((2, 4_000, 2))
        reused = paper_gaussian.sample(4_000, np.random.default_rng(11), work)
        assert reused.base is work
        np.testing.assert_array_equal(reused, fresh)

    def test_mahalanobis_of_samples_is_chi(self, rng, paper_gaussian):
        samples = paper_gaussian.sample(50_000, rng)
        m = paper_gaussian.mahalanobis(samples)
        # Squared Mahalanobis distances follow chi2 with d=2 dof.
        ks = stats.kstest(m**2, "chi2", args=(2,))
        assert ks.pvalue > 0.001


class TestAlgebra:
    def test_contour_is_theta_region_shape(self, paper_gaussian):
        e = paper_gaussian.contour(2.0)
        np.testing.assert_allclose(e.center, paper_gaussian.mean)
        np.testing.assert_allclose(
            e.semi_axes, 2.0 * np.sqrt(paper_gaussian.eigenvalues)
        )

    def test_shifted(self, paper_gaussian):
        g = paper_gaussian.shifted([1.0, -1.0])
        np.testing.assert_allclose(g.mean, paper_gaussian.mean + [1.0, -1.0])
        np.testing.assert_allclose(g.sigma, paper_gaussian.sigma)

    def test_shifted_rejects_wrong_dim(self, paper_gaussian):
        with pytest.raises(DimensionMismatchError):
            paper_gaussian.shifted([1.0])

    def test_moved_gaussian_shares_the_decomposition(self, rng, eigh_calls):
        sigma = random_spd(rng, 3)
        origin = Gaussian([1.0, 2.0, 3.0], sigma)
        eigh_calls.clear()
        target = np.array([4.0, -5.0, 6.0])
        moved = origin.moved_to(target)
        shifted = origin.shifted([3.0, -7.0, 3.0])
        assert eigh_calls == []
        direct = Gaussian(target, sigma)
        points = rng.standard_normal((50, 3)) + target
        for gaussian in (moved, shifted):
            assert gaussian == direct and hash(gaussian) == hash(direct)
            assert gaussian.sigma is origin.sigma
            assert gaussian.eigenvalues is origin.eigenvalues
            assert gaussian.basis is origin.basis
            assert not gaussian.mean.flags.writeable
            np.testing.assert_array_equal(
                gaussian.log_pdf(points), direct.log_pdf(points)
            )
            np.testing.assert_array_equal(
                gaussian.contour(2.0).bounding_rect().lows,
                direct.contour(2.0).bounding_rect().lows,
            )
        np.testing.assert_array_equal(origin.mean, [1.0, 2.0, 3.0])
        target[0] = 99.0  # the caller's array is copied, not adopted or frozen
        assert moved.mean[0] == 4.0

    def test_moved_to_rejects_wrong_dim(self, paper_gaussian):
        with pytest.raises(DimensionMismatchError):
            paper_gaussian.moved_to([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            paper_gaussian.moved_to([[1.0, 2.0]])

    def test_convolve_adds_covariances(self, rng):
        a = Gaussian([1.0, 2.0], random_spd(rng, 2))
        b = Gaussian([3.0, -1.0], random_spd(rng, 2))
        c = a.convolve(b)
        np.testing.assert_allclose(c.mean, [4.0, 1.0])
        np.testing.assert_allclose(c.sigma, a.sigma + b.sigma)

    def test_convolve_matches_sampled_sum(self, rng):
        a = Gaussian([0.0, 0.0], np.diag([4.0, 1.0]))
        b = Gaussian([5.0, 5.0], np.diag([1.0, 9.0]))
        sum_samples = a.sample(80_000, rng) + b.sample(80_000, rng)
        c = a.convolve(b)
        np.testing.assert_allclose(sum_samples.mean(axis=0), c.mean, atol=0.1)
        np.testing.assert_allclose(np.cov(sum_samples.T), c.sigma, atol=0.15)

    def test_equality_and_hash(self, paper_sigma_10):
        a = Gaussian([0.0, 0.0], paper_sigma_10)
        b = Gaussian([0.0, 0.0], paper_sigma_10.copy())
        assert a == b and hash(a) == hash(b)
        assert a != Gaussian([1.0, 0.0], paper_sigma_10)
