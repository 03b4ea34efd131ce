"""Tests for spheres, ellipsoids, Minkowski regions and oblique boxes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.gaussian.distribution import Gaussian
from repro.geometry.ellipsoid import Ellipsoid
from repro.geometry.mbr import Rect
from repro.geometry.minkowski import MinkowskiRegion
from repro.geometry.obliquebox import ObliqueBox
from repro.geometry.sphere import Sphere, unit_ball_volume
from repro.geometry.transforms import EigenTransform


class TestSphere:
    def test_volume_2d_3d(self):
        assert Sphere([0, 0], 2.0).volume() == pytest.approx(math.pi * 4.0)
        assert Sphere([0, 0, 0], 1.0).volume() == pytest.approx(4.0 / 3.0 * math.pi)

    def test_unit_ball_volume_known(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)

    def test_unit_ball_volume_rejects_zero_dim(self):
        with pytest.raises(GeometryError):
            unit_ball_volume(0)

    def test_contains_boundary(self):
        s = Sphere([0.0, 0.0], 1.0)
        assert s.contains_point([1.0, 0.0])
        assert not s.contains_point([1.0 + 1e-9, 0.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            Sphere([0.0], -1.0)

    def test_intersects_sphere(self):
        a = Sphere([0.0, 0.0], 1.0)
        assert a.intersects_sphere(Sphere([2.0, 0.0], 1.0))
        assert not a.intersects_sphere(Sphere([2.1, 0.0], 1.0))

    def test_bounding_rect(self):
        r = Sphere([1.0, 2.0], 3.0).bounding_rect()
        np.testing.assert_allclose(r.lows, [-2.0, -1.0])
        np.testing.assert_allclose(r.highs, [4.0, 5.0])

    def test_contains_rect(self):
        s = Sphere([0.0, 0.0], 2.0)
        assert s.contains_rect(Rect([-1.0, -1.0], [1.0, 1.0]))
        assert not s.contains_rect(Rect([-2.0, -2.0], [2.0, 2.0]))

    def test_interior_samples_are_inside(self, rng):
        s = Sphere([5.0, -3.0, 2.0], 2.5)
        pts = s.sample_interior(500, rng)
        assert np.all(s.contains_points(pts))

    def test_surface_samples_on_boundary(self, rng):
        s = Sphere([0.0, 0.0], 2.0)
        pts = s.sample_surface(200, rng)
        radii = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(radii, 2.0, rtol=1e-10)

    def test_interior_sampling_uniformity(self, rng):
        # In 2-D, the fraction within half the radius should be ~ 1/4.
        s = Sphere([0.0, 0.0], 1.0)
        pts = s.sample_interior(20_000, rng)
        frac = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
        assert frac == pytest.approx(0.25, abs=0.02)


class TestEllipsoid:
    def test_spherical_case_matches_sphere(self):
        e = Ellipsoid([0.0, 0.0], np.eye(2), 2.0)
        assert e.contains_point([2.0, 0.0])
        assert not e.contains_point([2.0 + 1e-9, 0.0])
        np.testing.assert_allclose(e.semi_axes, [2.0, 2.0])

    def test_semi_axes_order_descending(self, paper_sigma_10):
        e = Ellipsoid([0.0, 0.0], paper_sigma_10, 1.0)
        # Eigenvalues of the paper covariance are 90 and 10.
        np.testing.assert_allclose(e.semi_axes, [np.sqrt(90), np.sqrt(10)], rtol=1e-12)

    def test_bounding_rect_property2(self, paper_sigma_10):
        # Property 2: half-width along axis i is sigma_i * r.
        r = 2.0
        e = Ellipsoid([0.0, 0.0], paper_sigma_10, r)
        rect = e.bounding_rect()
        np.testing.assert_allclose(
            rect.highs, np.sqrt(np.diag(paper_sigma_10)) * r, rtol=1e-12
        )

    def test_bounding_rect_is_tight(self, paper_sigma_10, rng):
        # The ellipsoid boundary must touch every face of the box.
        e = Ellipsoid([0.0, 0.0], paper_sigma_10, 1.5)
        rect = e.bounding_rect()
        theta = np.linspace(0, 2 * math.pi, 100_000)
        boundary = e.transform.to_world(
            1.5
            * np.sqrt(e.transform.eigenvalues)
            * np.column_stack([np.cos(theta), np.sin(theta)])
        )
        assert boundary[:, 0].max() == pytest.approx(rect.highs[0], rel=1e-4)
        assert boundary[:, 1].max() == pytest.approx(rect.highs[1], rel=1e-4)
        assert np.all(rect.contains_points(boundary))

    def test_mahalanobis_matches_quadratic_form(self, paper_sigma_10, rng):
        e = Ellipsoid([3.0, -1.0], paper_sigma_10, 1.0)
        pts = rng.uniform(-20, 20, size=(30, 2))
        inv = np.linalg.inv(paper_sigma_10)
        expected = np.sqrt(
            np.einsum("ij,jk,ik->i", pts - e.center, inv, pts - e.center)
        )
        np.testing.assert_allclose(e.mahalanobis(pts), expected, rtol=1e-9)

    @pytest.mark.parametrize("condition", [9.0, 1e8])
    def test_membership_is_the_gaussians_mahalanobis_ball(self, condition, rng):
        # Same eigenbasis formula as WhiteningTransform.mahalanobis, so the
        # two agree exactly — also where an explicit Σ⁻¹ loses digits.
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sigma = (rotation * [condition, 2.0, 1.0]) @ rotation.T
        gaussian = Gaussian([3.0, -1.0, 2.0], 0.5 * (sigma + sigma.T))
        ellipsoid = gaussian.contour(1.7)
        pts = gaussian.sample(10_000, rng)
        inside = gaussian.mahalanobis(pts) <= 1.7
        np.testing.assert_array_equal(ellipsoid.contains_points(pts), inside)
        assert 0.1 < inside.mean() < 0.9
        rebuilt = Ellipsoid(gaussian.mean, gaussian.sigma, 1.7)
        np.testing.assert_array_equal(rebuilt.contains_points(pts), inside)

    def test_volume_spherical(self):
        e = Ellipsoid([0.0, 0.0], 4.0 * np.eye(2), 1.0)
        assert e.volume() == pytest.approx(math.pi * 4.0)

    def test_scaled(self, paper_sigma_10):
        e = Ellipsoid([0.0, 0.0], paper_sigma_10, 1.0)
        bigger = e.scaled(2.0)
        np.testing.assert_allclose(bigger.semi_axes, 2.0 * e.semi_axes)

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            Ellipsoid([0.0], np.eye(1), -1.0)


class TestMinkowskiRegion:
    def test_contains_matches_distance_to_rect(self, rng):
        core = Rect([0.0, 0.0], [4.0, 2.0])
        region = MinkowskiRegion(core, 1.5)
        pts = rng.uniform(-3, 7, size=(300, 2))
        expected = np.array([core.min_distance(p) <= 1.5 for p in pts])
        np.testing.assert_array_equal(region.contains_points(pts), expected)

    def test_fringe_is_box_minus_region(self, rng):
        region = MinkowskiRegion(Rect([0.0, 0.0], [4.0, 2.0]), 1.0)
        pts = rng.uniform(-2, 6, size=(300, 2))
        fringe = region.in_fringe(pts)
        in_box = region.bounding_rect().contains_points(pts)
        in_region = region.contains_points(pts)
        np.testing.assert_array_equal(fringe, in_box & ~in_region)

    def test_corner_point_excluded(self):
        region = MinkowskiRegion(Rect([0.0, 0.0], [1.0, 1.0]), 1.0)
        # The bounding-box corner is sqrt(2) > 1 from the core rectangle.
        assert not region.contains_point([2.0, 2.0])
        assert region.in_fringe(np.array([[2.0, 2.0]]))[0]

    def test_area_formulas(self):
        region = MinkowskiRegion(Rect([0.0, 0.0], [4.0, 2.0]), 1.0)
        assert region.volume_2d() == pytest.approx(8 + 2 * 6 + math.pi)
        assert region.fringe_volume_2d() == pytest.approx(4 - math.pi)

    def test_area_formula_matches_monte_carlo(self, rng):
        region = MinkowskiRegion(Rect([0.0, 0.0], [4.0, 2.0]), 1.0)
        box = region.bounding_rect()
        pts = box.lows + rng.random((200_000, 2)) * box.extents
        frac = np.mean(region.contains_points(pts))
        assert frac * box.volume() == pytest.approx(region.volume_2d(), rel=0.02)

    def test_3d_region_supported(self):
        region = MinkowskiRegion(Rect([0.0] * 3, [1.0] * 3), 1.0)
        assert region.contains_point([1.5, 0.5, 0.5])
        assert not region.contains_point([1.8, 1.8, 0.5])
        with pytest.raises(GeometryError):
            region.volume_2d()

    def test_negative_delta_rejected(self):
        with pytest.raises(GeometryError):
            MinkowskiRegion(Rect([0.0], [1.0]), -0.1)

    def test_zero_delta_degenerates_to_rect(self):
        core = Rect([0.0, 0.0], [1.0, 1.0])
        region = MinkowskiRegion(core, 0.0)
        assert region.contains_point([1.0, 1.0])
        assert not region.contains_point([1.0001, 1.0])


class TestObliqueBox:
    def test_axis_aligned_case(self):
        box = ObliqueBox.for_range_query([0.0, 0.0], np.diag([4.0, 1.0]), 1.0, 0.5)
        # Half widths: r*sqrt(eig) + delta = (2.5, 1.5), eigen order descending.
        np.testing.assert_allclose(box.half_widths, [2.5, 1.5])
        assert box.contains_point([2.5, 0.0])
        assert not box.contains_point([2.6, 0.0])

    def test_rotation_invariance(self, paper_sigma_10):
        # Points on the theta-ellipsoid surface must lie inside the box even
        # before the delta inflation.
        box = ObliqueBox.for_range_query([0.0, 0.0], paper_sigma_10, 2.0, 0.0)
        transform = EigenTransform([0.0, 0.0], paper_sigma_10)
        angles = np.linspace(0, 2 * math.pi, 500)
        surface = transform.to_world(
            (2.0 - 1e-9)
            * np.sqrt(transform.eigenvalues)
            * np.column_stack([np.cos(angles), np.sin(angles)])
        )
        assert np.all(box.contains_points(surface))

    def test_bounding_rect_covers_corners(self, paper_sigma_10):
        box = ObliqueBox.for_range_query([5.0, -2.0], paper_sigma_10, 2.0, 3.0)
        rect = box.bounding_rect()
        corners = box.corners()
        assert np.all(rect.contains_points(corners))
        # And it is tight: some corner touches each face.
        assert corners[:, 0].max() == pytest.approx(rect.highs[0], rel=1e-9)
        assert corners[:, 1].min() == pytest.approx(rect.lows[1], rel=1e-9)

    def test_volume(self):
        box = ObliqueBox.for_range_query([0.0, 0.0], np.diag([4.0, 1.0]), 1.0, 0.5)
        assert box.volume() == pytest.approx(5.0 * 3.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(GeometryError):
            ObliqueBox.for_range_query([0.0, 0.0], np.eye(2), -1.0, 0.0)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_contains_center_always(self, r_theta, delta):
        box = ObliqueBox.for_range_query(
            [1.0, 2.0], np.array([[2.0, 0.5], [0.5, 1.0]]), r_theta, delta
        )
        assert box.contains_point([1.0, 2.0])
