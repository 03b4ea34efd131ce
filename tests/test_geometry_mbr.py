"""Unit and property tests for axis-aligned rectangles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, GeometryError
from repro.geometry.mbr import Rect


def boxes(dim: int = 2, max_coord: float = 100.0):
    """Hypothesis strategy generating valid rectangles."""
    coord = st.floats(-max_coord, max_coord, allow_nan=False, allow_infinity=False)

    def build(pairs):
        lows = [min(a, b) for a, b in pairs]
        highs = [max(a, b) for a, b in pairs]
        return Rect(lows, highs)

    return st.lists(st.tuples(coord, coord), min_size=dim, max_size=dim).map(build)


class TestConstruction:
    def test_basic(self):
        r = Rect([0.0, 1.0], [2.0, 3.0])
        assert r.dim == 2
        assert r.volume() == pytest.approx(4.0)
        assert r.margin() == pytest.approx(4.0)
        np.testing.assert_allclose(r.center, [1.0, 2.0])

    def test_degenerate_point_rect(self):
        r = Rect.from_point([5.0, 7.0])
        assert r.volume() == 0.0
        assert r.contains_point([5.0, 7.0])

    def test_from_center(self):
        r = Rect.from_center([10.0, 10.0], [2.0, 3.0])
        np.testing.assert_allclose(r.lows, [8.0, 7.0])
        np.testing.assert_allclose(r.highs, [12.0, 13.0])

    def test_from_center_rejects_negative_half_width(self):
        with pytest.raises(GeometryError):
            Rect.from_center([0.0], [-1.0])

    def test_inverted_bounds_rejected(self):
        with pytest.raises(GeometryError):
            Rect([1.0, 0.0], [0.0, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(GeometryError):
            Rect([np.nan], [1.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Rect([0.0, 0.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            Rect([], [])

    def test_immutability(self):
        r = Rect([0.0], [1.0])
        with pytest.raises(ValueError):
            r.lows[0] = 5.0

    def test_bounding_points(self):
        pts = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 9.0]])
        r = Rect.bounding_points(pts)
        np.testing.assert_allclose(r.lows, [1.0, 2.0])
        np.testing.assert_allclose(r.highs, [3.0, 9.0])

    def test_union_of_empty_rejected(self):
        with pytest.raises(GeometryError):
            Rect.union_of([])


NAN, INF = float("nan"), float("inf")

#: Every public constructor with every kind of invalid input it can be
#: handed.  ``union_of`` combines validated rectangles, so an empty input
#: is the only invalid one; ``expand`` takes one float.
INVALID_CONSTRUCTIONS = {
    "Rect nan low": lambda: Rect([NAN, 0.0], [1.0, 1.0]),
    "Rect nan high": lambda: Rect([0.0, 0.0], [1.0, NAN]),
    "Rect +inf high": lambda: Rect([0.0, 0.0], [INF, 1.0]),
    "Rect -inf low": lambda: Rect([-INF, 0.0], [1.0, 1.0]),
    "Rect inverted": lambda: Rect([0.0, 2.0], [1.0, 1.0]),
    "Rect empty": lambda: Rect([], []),
    "Rect 2-D": lambda: Rect([[0.0, 0.0]], [[1.0, 1.0]]),
    "Rect shapes differ": lambda: Rect([0.0, 0.0], [1.0]),
    "from_point nan": lambda: Rect.from_point([NAN, 0.0]),
    "from_point +inf": lambda: Rect.from_point([INF, 0.0]),
    "from_point -inf": lambda: Rect.from_point([0.0, -INF]),
    "from_point empty": lambda: Rect.from_point([]),
    "from_point 2-D": lambda: Rect.from_point([[0.0, 0.0]]),
    "from_center nan center": lambda: Rect.from_center([NAN, 0.0], [1.0, 1.0]),
    "from_center nan half width": lambda: Rect.from_center([0.0, 0.0], [NAN, 1.0]),
    "from_center +inf center": lambda: Rect.from_center([INF, 0.0], [1.0, 1.0]),
    "from_center -inf center": lambda: Rect.from_center([-INF, 0.0], [1.0, 1.0]),
    "from_center +inf half width": lambda: Rect.from_center([0.0, 0.0], [1.0, INF]),
    "from_center overflow": lambda: Rect.from_center([1e308, 0.0], [1e308, 1.0]),
    "from_center inverted": lambda: Rect.from_center([0.0, 0.0], [1.0, -1e-300]),
    "from_center empty": lambda: Rect.from_center([], []),
    "from_center 2-D": lambda: Rect.from_center([[0.0, 0.0]], [[1.0, 1.0]]),
    "from_center shapes differ": lambda: Rect.from_center([0.0, 0.0], [1.0]),
    "union_of empty": lambda: Rect.union_of([]),
    "union_of empty generator": lambda: Rect.union_of(r for r in ()),
    "bounding_points nan": lambda: Rect.bounding_points([[0.0, 0.0], [NAN, 1.0]]),
    "bounding_points +inf": lambda: Rect.bounding_points([[0.0, INF]]),
    "bounding_points -inf": lambda: Rect.bounding_points([[-INF, 0.0]]),
    "bounding_points empty": lambda: Rect.bounding_points(np.empty((0, 2))),
    "bounding_points 1-D": lambda: Rect.bounding_points([0.0, 1.0]),
    "bounding_points 3-D": lambda: Rect.bounding_points(np.zeros((1, 1, 2))),
    "expand nan": lambda: Rect([0.0, 0.0], [1.0, 1.0]).expand(NAN),
    "expand +inf": lambda: Rect([0.0, 0.0], [1.0, 1.0]).expand(INF),
    "expand -inf": lambda: Rect([0.0, 0.0], [1.0, 1.0]).expand(-INF),
    "expand inverted": lambda: Rect([0.0, 0.0], [1.0, 1.0]).expand(-0.75),
}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", list(INVALID_CONSTRUCTIONS))
def test_every_constructor_rejects_invalid_bounds(case):
    """A NaN rectangle would make Phase 1 find nothing and so silently
    dismiss every object: no constructor may build one."""
    with pytest.raises(GeometryError):
        INVALID_CONSTRUCTIONS[case]()


def test_combinations_of_valid_rectangles_stay_valid():
    a = Rect([0.0, -1e308], [1.0, 0.0])
    b = Rect([0.5, -1.0], [2.0, 1e308])
    for rect in (a.union(b), Rect.union_of([a, b]), a.intersection(b)):
        assert np.isfinite(rect.lows).all() and np.isfinite(rect.highs).all()
        assert (rect.lows <= rect.highs).all()
        with pytest.raises(ValueError):
            rect.lows[0] = 5.0
    assert a.intersection(Rect([3.0, 0.0], [4.0, 1.0])) is None


class TestPredicates:
    def test_contains_point_boundary_inclusive(self):
        r = Rect([0.0, 0.0], [1.0, 1.0])
        assert r.contains_point([0.0, 0.0])
        assert r.contains_point([1.0, 1.0])
        assert not r.contains_point([1.0 + 1e-12, 0.5])

    def test_contains_rect(self):
        outer = Rect([0.0, 0.0], [10.0, 10.0])
        inner = Rect([2.0, 2.0], [3.0, 3.0])
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_intersects_touching_edges(self):
        a = Rect([0.0, 0.0], [1.0, 1.0])
        b = Rect([1.0, 0.0], [2.0, 1.0])
        assert a.intersects(b)
        c = Rect([1.1, 0.0], [2.0, 1.0])
        assert not a.intersects(c)

    def test_contains_points_vectorised_matches_scalar(self, rng):
        r = Rect([-1.0, -2.0], [3.0, 4.0])
        pts = rng.uniform(-5, 5, size=(50, 2))
        mask = r.contains_points(pts)
        for p, inside in zip(pts, mask):
            assert inside == r.contains_point(p)


class TestCombination:
    def test_union(self):
        a = Rect([0.0], [1.0])
        b = Rect([2.0], [3.0])
        u = a.union(b)
        assert u == Rect([0.0], [3.0])

    def test_intersection_disjoint_is_none(self):
        assert Rect([0.0], [1.0]).intersection(Rect([2.0], [3.0])) is None

    def test_intersection_volume(self):
        a = Rect([0.0, 0.0], [2.0, 2.0])
        b = Rect([1.0, 1.0], [4.0, 4.0])
        assert a.intersection_volume(b) == pytest.approx(1.0)

    def test_enlargement_zero_when_contained(self):
        a = Rect([0.0, 0.0], [10.0, 10.0])
        b = Rect([1.0, 1.0], [2.0, 2.0])
        assert a.enlargement(b) == pytest.approx(0.0)

    def test_expand(self):
        r = Rect([0.0, 0.0], [1.0, 1.0]).expand(0.5)
        np.testing.assert_allclose(r.lows, [-0.5, -0.5])
        np.testing.assert_allclose(r.highs, [1.5, 1.5])

    def test_expand_negative_over_shrink_rejected(self):
        with pytest.raises(GeometryError):
            Rect([0.0], [1.0]).expand(-0.6)


class TestDistances:
    def test_min_distance_inside_is_zero(self):
        r = Rect([0.0, 0.0], [2.0, 2.0])
        assert r.min_distance([1.0, 1.0]) == 0.0

    def test_min_distance_corner(self):
        r = Rect([0.0, 0.0], [1.0, 1.0])
        assert r.min_distance([2.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_max_distance(self):
        r = Rect([0.0, 0.0], [1.0, 1.0])
        assert r.max_distance([0.0, 0.0]) == pytest.approx(np.sqrt(2.0))

    def test_intersects_sphere(self):
        r = Rect([0.0, 0.0], [1.0, 1.0])
        assert r.intersects_sphere([2.0, 0.5], 1.0)
        assert not r.intersects_sphere([2.0, 0.5], 0.9)


class TestDunder:
    def test_equality_and_hash(self):
        a = Rect([0.0], [1.0])
        b = Rect([0.0], [1.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect([0.0], [2.0])

    def test_iter_pairs(self):
        r = Rect([0.0, 1.0], [2.0, 3.0])
        assert list(r) == [(0.0, 2.0), (1.0, 3.0)]

    def test_repr_round(self):
        assert "Rect" in repr(Rect([0.0], [1.0]))


class TestProperties:
    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_intersection_symmetric_and_contained(self, a, b):
        ab = a.intersection(b)
        ba = b.intersection(a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab == ba
            assert a.contains_rect(ab)
            assert b.contains_rect(ab)

    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_volume_inclusion_exclusion_bound(self, a, b):
        union_volume = a.union(b).volume()
        assert union_volume >= max(a.volume(), b.volume()) - 1e-9

    @given(boxes(dim=3))
    @settings(max_examples=60, deadline=None)
    def test_min_distance_zero_iff_contained(self, r):
        center = r.center
        assert r.min_distance(center) == 0.0
        outside = r.highs + np.ones(r.dim)
        assert r.min_distance(outside) > 0.0

    @given(boxes(), st.floats(0.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_expand_monotone(self, r, amount):
        grown = r.expand(amount)
        assert grown.contains_rect(r)
        assert grown.volume() >= r.volume() - 1e-9
