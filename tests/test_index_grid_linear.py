"""Tests for the grid and linear-scan index baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex
from tests.test_index_rtree import check_hits


@pytest.fixture
def bounds():
    return Rect([0.0, 0.0], [100.0, 100.0])


class TestGridIndex:
    def test_insert_search(self, bounds, rng):
        grid = GridIndex(bounds, cells_per_dim=10)
        pts = rng.random((400, 2)) * 100
        for i, p in enumerate(pts):
            grid.insert(i, p)
        oracle = LinearScanIndex(2)
        oracle.bulk_load(range(400), pts)
        for _ in range(10):
            lo = rng.random(2) * 70
            rect = Rect(lo, lo + 25)
            assert sorted(grid.range_search_rect(rect)) == sorted(
                oracle.range_search_rect(rect)
            )

    def test_points_outside_bounds_clamped_but_found(self, bounds):
        grid = GridIndex(bounds, cells_per_dim=4)
        grid.insert(1, [150.0, -20.0])  # outside the declared bounds
        assert list(grid.range_search_rect(Rect([100.0, -30.0], [200.0, 0.0]))) == [1]
        found = grid.range_search_sphere([150.0, -20.0], 1.0)
        assert found == [1]

    def test_duplicate_id_rejected(self, bounds):
        grid = GridIndex(bounds)
        grid.insert(1, [5.0, 5.0])
        with pytest.raises(IndexError_):
            grid.insert(1, [6.0, 6.0])

    def test_delete(self, bounds):
        grid = GridIndex(bounds)
        grid.insert(1, [5.0, 5.0])
        grid.delete(1)
        assert len(grid) == 0
        with pytest.raises(IndexError_):
            grid.delete(1)

    def test_knn_matches_linear(self, bounds, rng):
        grid = GridIndex(bounds, cells_per_dim=8)
        oracle = LinearScanIndex(2)
        pts = rng.random((300, 2)) * 100
        for i, p in enumerate(pts):
            grid.insert(i, p)
            oracle.insert(i, p)
        for _ in range(10):
            q = rng.random(2) * 100
            got = grid.knn(q, 7)
            expected = oracle.knn(q, 7)
            assert [i for i, _ in got] == [i for i, _ in expected]

    def test_search_hits_keep_cell_order_and_counts(self):
        grid = GridIndex(Rect([0.0, 0.0], [10.0, 10.0]), cells_per_dim=2)
        for obj_id, p in [(5, [1, 1]), (3, [6, 1]), (9, [2, 2]), (1, [7, 7]), (4, [1, 8])]:
            grid.insert(obj_id, p)
        rect = Rect([0.0, 0.0], [8.0, 3.0])
        # Cells (0, 0) then (1, 0); a cell's points in insertion order.
        counted = {"node_accesses": 2, "entries_examined": 3, "queries": 1}
        counted.update(leaf_accesses=0, splits=0, reinsertions=0)
        hits = check_hits(grid, rect, [5, 9, 3], counted)
        assert hits.ids.dtype == np.int64
        grid.delete(9)
        counted["entries_examined"] = 2
        check_hits(grid, rect, [5, 3], counted)
        # Cell (0, 1) holds id 4, examined and outside the rectangle.
        counted.update(node_accesses=1, entries_examined=1)
        check_hits(grid, Rect([0.0, 5.5], [4.0, 6.0]), [], counted)

    def test_high_dim_cell_blowup_rejected(self):
        with pytest.raises(IndexError_):
            GridIndex(Rect([0.0] * 9, [1.0] * 9), cells_per_dim=16)

    def test_occupancy(self, bounds):
        grid = GridIndex(bounds, cells_per_dim=10)
        grid.insert(1, [5.0, 5.0])
        assert grid.occupancy() == pytest.approx(0.01)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(IndexError_):
            GridIndex(Rect([0.0, 0.0], [0.0, 1.0]))


class TestLinearScanIndex:
    def test_basic_round_trip(self, rng):
        idx = LinearScanIndex(3)
        pts = rng.random((50, 3))
        for i, p in enumerate(pts):
            idx.insert(i, p)
        assert len(idx) == 50
        np.testing.assert_array_equal(idx.get(7), pts[7])

    def test_delete_swaps_last(self, rng):
        idx = LinearScanIndex(2)
        for i in range(10):
            idx.insert(i, [float(i), 0.0])
        idx.delete(3)
        assert len(idx) == 9
        assert sorted(idx.range_search_rect(Rect([0, 0], [20, 0]))) == [
            0, 1, 2, 4, 5, 6, 7, 8, 9,
        ]

    def test_search_hits_keep_slot_order_and_counts(self):
        idx = LinearScanIndex(2)
        for obj_id in (5, 3, 9, 1):
            idx.insert(obj_id, [float(obj_id), 0.0])
        idx.delete(3)  # the last slot (id 1) moves into its place
        counted = {"node_accesses": 1, "entries_examined": 3, "queries": 1}
        counted.update(leaf_accesses=0, splits=0, reinsertions=0)
        hits = check_hits(idx, Rect([0.0, 0.0], [9.0, 0.0]), [5, 1, 9], counted)
        assert {type(i) for i in hits} == {int}
        check_hits(idx, Rect([6.0, 0.0], [8.0, 1.0]), [], counted)
        names = LinearScanIndex(1)
        names.insert("b", [2.0])
        names.insert(("a",), [1.0])
        counted["entries_examined"] = 2
        hits = check_hits(names, Rect([0.0], [3.0]), ["b", ("a",)], counted)
        assert hits.ids.dtype == object

    def test_empty_queries(self):
        idx = LinearScanIndex(2)
        assert list(idx.range_search_rect(Rect([0, 0], [1, 1]))) == []
        assert idx.range_search_sphere([0.0, 0.0], 1.0) == []
        assert idx.knn([0.0, 0.0], 5) == []

    def test_knn_stable_order_for_ties(self):
        idx = LinearScanIndex(2)
        idx.insert(10, [1.0, 0.0])
        idx.insert(20, [0.0, 1.0])  # same distance from origin
        result = idx.knn([0.0, 0.0], 2)
        assert {i for i, _ in result} == {10, 20}
        assert result[0][1] == result[1][1] == pytest.approx(1.0)

    def test_duplicate_and_unknown_errors(self):
        idx = LinearScanIndex(2)
        idx.insert(1, [0.0, 0.0])
        with pytest.raises(IndexError_):
            idx.insert(1, [1.0, 1.0])
        with pytest.raises(IndexError_):
            idx.delete(2)
        with pytest.raises(IndexError_):
            idx.get(2)

    def test_stats_count_full_scans(self, rng):
        idx = LinearScanIndex(2)
        idx.bulk_load(range(100), rng.random((100, 2)))
        idx.range_search_rect(Rect([0, 0], [1, 1]))
        idx.range_search_sphere([0.5, 0.5], 0.2)
        assert idx.stats.queries == 2
        assert idx.stats.entries_examined == 200
