"""Tests for the from-scratch R*-tree."""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RStarTree
from repro.index.split import rstar_split


def build_pair(points: np.ndarray, max_entries: int = 16):
    """An R*-tree and a linear-scan oracle over the same points."""
    tree = RStarTree(points.shape[1], max_entries=max_entries)
    oracle = LinearScanIndex(points.shape[1])
    for i, p in enumerate(points):
        tree.insert(i, p)
        oracle.insert(i, p)
    return tree, oracle


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(IndexError_):
            RStarTree(0)
        with pytest.raises(IndexError_):
            RStarTree(2, max_entries=3)
        with pytest.raises(IndexError_):
            RStarTree(2, max_entries=10, min_entries=6)  # > M/2
        with pytest.raises(IndexError_):
            RStarTree(2, max_entries=10, min_entries=1)

    def test_default_min_entries_is_40_percent(self):
        tree = RStarTree(2, max_entries=50)
        assert tree.min_entries == 20

    def test_empty_tree(self):
        tree = RStarTree(2)
        assert len(tree) == 0
        assert tree.height == 1
        assert list(tree.range_search_rect(Rect([0, 0], [1, 1]))) == []
        assert tree.knn([0.0, 0.0], 3) == []


class TestInsertion:
    def test_duplicate_id_rejected(self):
        tree = RStarTree(2)
        tree.insert(1, [0.0, 0.0])
        with pytest.raises(IndexError_):
            tree.insert(1, [1.0, 1.0])

    def test_wrong_dim_rejected(self):
        tree = RStarTree(2)
        with pytest.raises(IndexError_):
            tree.insert(1, [0.0])

    def test_non_finite_rejected(self):
        tree = RStarTree(2)
        with pytest.raises(IndexError_):
            tree.insert(1, [np.inf, 0.0])

    def test_get_round_trip(self, rng):
        tree = RStarTree(3)
        pts = rng.random((20, 3))
        for i, p in enumerate(pts):
            tree.insert(i, p)
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(tree.get(i), p)

    def test_get_unknown_raises(self):
        with pytest.raises(IndexError_):
            RStarTree(2).get(99)

    def test_invariants_after_many_inserts(self, rng):
        tree = RStarTree(2, max_entries=8)
        for i, p in enumerate(rng.random((500, 2)) * 100):
            tree.insert(i, p)
        tree.check_invariants()
        assert tree.height >= 3
        assert tree.stats.splits > 0
        assert tree.stats.reinsertions > 0

    def test_duplicate_points_different_ids_allowed(self):
        tree = RStarTree(2, max_entries=4)
        for i in range(50):
            tree.insert(i, [1.0, 1.0])
        tree.check_invariants()
        assert sorted(tree.range_search_rect(Rect([1, 1], [1, 1]))) == list(range(50))


class TestRangeSearch:
    def test_matches_linear_scan(self, rng):
        pts = rng.random((800, 2)) * 100
        tree, oracle = build_pair(pts)
        for _ in range(20):
            lo = rng.random(2) * 80
            rect = Rect(lo, lo + rng.random(2) * 30)
            assert sorted(tree.range_search_rect(rect)) == sorted(
                oracle.range_search_rect(rect)
            )

    def test_sphere_matches_linear_scan(self, rng):
        pts = rng.random((600, 3)) * 50
        tree, oracle = build_pair(pts)
        for _ in range(15):
            center = rng.random(3) * 50
            radius = rng.random() * 15
            assert sorted(tree.range_search_sphere(center, radius)) == sorted(
                oracle.range_search_sphere(center, radius)
            )

    def test_wrong_dim_query_rejected(self):
        tree = RStarTree(2)
        with pytest.raises(IndexError_):
            tree.range_search_rect(Rect([0.0], [1.0]))

    def test_negative_radius_rejected(self):
        tree = RStarTree(2)
        tree.insert(0, [0.0, 0.0])
        with pytest.raises(IndexError_):
            tree.range_search_sphere([0.0, 0.0], -1.0)

    def test_stats_accumulate(self, rng):
        pts = rng.random((200, 2))
        tree, _ = build_pair(pts)
        tree.stats.reset()
        tree.range_search_rect(Rect([0.0, 0.0], [1.0, 1.0]))
        assert tree.stats.queries == 1
        assert tree.stats.node_accesses >= tree.height


class TestKnn:
    def test_matches_linear_scan(self, rng):
        pts = rng.random((700, 2)) * 100
        tree, oracle = build_pair(pts)
        for _ in range(15):
            q = rng.random(2) * 100
            k = int(rng.integers(1, 20))
            got = tree.knn(q, k)
            expected = oracle.knn(q, k)
            assert [i for i, _ in got] == [i for i, _ in expected]
            np.testing.assert_allclose(
                [d for _, d in got], [d for _, d in expected], rtol=1e-12
            )

    def test_k_larger_than_size(self, rng):
        pts = rng.random((5, 2))
        tree, _ = build_pair(pts)
        assert len(tree.knn([0.5, 0.5], 10)) == 5

    def test_k_zero_rejected(self):
        tree = RStarTree(2)
        tree.insert(0, [0.0, 0.0])
        with pytest.raises(IndexError_):
            tree.knn([0.0, 0.0], 0)

    def test_distances_sorted(self, rng):
        pts = rng.random((300, 2))
        tree, _ = build_pair(pts)
        distances = [d for _, d in tree.knn([0.5, 0.5], 25)]
        assert distances == sorted(distances)


class TestDeletion:
    def test_delete_then_search(self, rng):
        pts = rng.random((300, 2)) * 10
        tree, oracle = build_pair(pts, max_entries=8)
        victims = rng.choice(300, size=150, replace=False)
        for v in victims:
            tree.delete(int(v))
            oracle.delete(int(v))
        tree.check_invariants()
        rect = Rect([0.0, 0.0], [10.0, 10.0])
        assert sorted(tree.range_search_rect(rect)) == sorted(
            oracle.range_search_rect(rect)
        )

    def test_delete_all(self, rng):
        pts = rng.random((100, 2))
        tree, _ = build_pair(pts, max_entries=8)
        for i in range(100):
            tree.delete(i)
        assert len(tree) == 0
        assert tree.height == 1
        tree.check_invariants()

    def test_delete_unknown_rejected(self):
        tree = RStarTree(2)
        with pytest.raises(IndexError_):
            tree.delete(5)

    def test_interleaved_insert_delete(self, rng):
        tree = RStarTree(2, max_entries=8)
        oracle = LinearScanIndex(2)
        next_id = 0
        live: list[int] = []
        for step in range(1200):
            if live and rng.random() < 0.4:
                victim = live.pop(int(rng.integers(len(live))))
                tree.delete(victim)
                oracle.delete(victim)
            else:
                p = rng.random(2) * 100
                tree.insert(next_id, p)
                oracle.insert(next_id, p)
                live.append(next_id)
                next_id += 1
        tree.check_invariants()
        rect = Rect([20.0, 20.0], [70.0, 70.0])
        assert sorted(tree.range_search_rect(rect)) == sorted(
            oracle.range_search_rect(rect)
        )


class TestBulkLoad:
    def test_str_matches_linear(self, rng):
        pts = rng.random((2000, 2)) * 100
        tree = RStarTree(2, max_entries=20)
        tree.bulk_load(range(2000), pts)
        tree.check_invariants()
        oracle = LinearScanIndex(2)
        oracle.bulk_load(range(2000), pts)
        rect = Rect([10.0, 10.0], [40.0, 55.0])
        assert sorted(tree.range_search_rect(rect)) == sorted(
            oracle.range_search_rect(rect)
        )

    def test_str_tree_is_shallower_or_equal(self, rng):
        pts = rng.random((1000, 2))
        packed = RStarTree(2, max_entries=16)
        packed.bulk_load(range(1000), pts)
        dynamic = RStarTree(2, max_entries=16)
        for i, p in enumerate(pts):
            dynamic.insert(i, p)
        assert packed.height <= dynamic.height
        assert packed.node_count() <= dynamic.node_count()

    def test_bulk_load_requires_empty(self, rng):
        tree = RStarTree(2)
        tree.insert(0, [0.0, 0.0])
        with pytest.raises(IndexError_):
            tree.bulk_load([1], np.zeros((1, 2)))

    def test_bulk_load_rejects_duplicates(self):
        tree = RStarTree(2)
        with pytest.raises(IndexError_):
            tree.bulk_load([1, 1], np.zeros((2, 2)))

    def test_bulk_load_rejects_shape_mismatch(self):
        tree = RStarTree(2)
        with pytest.raises(IndexError_):
            tree.bulk_load([0, 1], np.zeros((2, 3)))
        with pytest.raises(IndexError_):
            tree.bulk_load([0], np.zeros((2, 2)))

    def test_bulk_load_empty_ok(self):
        tree = RStarTree(2)
        tree.bulk_load([], np.empty((0, 2)))
        assert len(tree) == 0

    def test_delete_after_bulk_load(self, rng):
        pts = rng.random((500, 2))
        tree = RStarTree(2, max_entries=10)
        tree.bulk_load(range(500), pts)
        for i in range(0, 500, 2):
            tree.delete(i)
        assert len(tree) == 250
        assert sorted(tree.range_search_rect(Rect([0, 0], [1, 1]))) == list(
            range(1, 500, 2)
        )

    def test_9d_bulk_load(self, rng):
        pts = rng.standard_normal((3000, 9))
        tree = RStarTree(9, max_entries=30)
        tree.bulk_load(range(3000), pts)
        oracle = LinearScanIndex(9)
        oracle.bulk_load(range(3000), pts)
        assert sorted(tree.range_search_sphere(np.zeros(9), 2.0)) == sorted(
            oracle.range_search_sphere(np.zeros(9), 2.0)
        )
        got = tree.knn(np.zeros(9), 20)
        expected = oracle.knn(np.zeros(9), 20)
        assert [i for i, _ in got] == [i for i, _ in expected]


# ----------------------------------------------------------------------
# Flat-snapshot searches: answers, order and counters
# ----------------------------------------------------------------------


def reference_search(tree, node_test, point_test):
    """The per-entry depth-first stack traversal the array sweeps replaced.

    Walks the pointer tree; returns the hit ids in traversal order and the
    ``(node_accesses, leaf_accesses, entries_examined)`` it would count.
    """
    hits, nodes, leaves, entries = [], 0, 0, 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.is_leaf:
            leaves += 1
            for entry in node.entries:
                entries += 1
                if point_test(entry.point):
                    hits.append(entry.obj_id)
        else:
            for entry in node.entries:
                entries += 1
                if node_test(entry.rect):
                    stack.append(entry.child)
    return hits, (nodes, leaves, entries)


def counters(tree) -> tuple[int, int, int]:
    s = tree.stats
    return (s.node_accesses, s.leaf_accesses, s.entries_examined)


def rect_cases(pts: np.ndarray, dim: int, rng) -> dict[str, Rect]:
    """Random and adversarial query rectangles over integer-grid points."""
    anchor = pts[0] if len(pts) else np.zeros(dim)
    low = rng.integers(0, 15, dim).astype(float)
    return {
        "random": Rect(low, low + rng.integers(0, 12, dim)),
        "misses everything": Rect(np.full(dim, 100.0), np.full(dim, 101.0)),
        "covers everything": Rect(np.full(dim, -1.0), np.full(dim, 21.0)),
        "degenerate point": Rect(anchor, anchor),
        "touches from below": Rect(anchor - 3.0, anchor),
        "touches from above": Rect(anchor, anchor + 3.0),
    }


def sphere_cases(pts: np.ndarray, dim: int, rng) -> dict[str, tuple]:
    """Random and adversarial query balls; the touching one is exact
    (a 3-4-5 offset on the integer grid, or 3 along the only axis)."""
    anchor = pts[0] if len(pts) else np.zeros(dim)
    offset = np.zeros(dim)
    offset[:2] = [3.0, 4.0][:dim]
    return {
        "random": (rng.integers(0, 20, dim).astype(float), float(rng.integers(1, 9))),
        "misses everything": (np.full(dim, 100.0), 1.0),
        "covers everything": (np.full(dim, 10.0), 1000.0),
        "degenerate point": (anchor, 0.0),
        "boundary touching": (anchor + offset, float(np.linalg.norm(offset))),
    }


_SHAPES = {"empty tree": 0, "single-leaf root": 5, "three levels": 300}


@pytest.mark.parametrize("dim", [1, 2, 9])
@pytest.mark.parametrize("method", ["str", "hilbert"])
@pytest.mark.parametrize("shape", list(_SHAPES))
class TestFlatSearchBattery:
    def build(self, dim, method, shape):
        rng = np.random.default_rng(dim * 101 + _SHAPES[shape])
        n = _SHAPES[shape]
        # Integer coordinates: duplicates abound and every boundary
        # comparison is exact.
        pts = rng.integers(0, 20, (n, dim)).astype(float)
        ids = list(range(1000, 1000 + n))
        tree = RStarTree(dim, max_entries=8)
        tree.bulk_load(ids, pts, method=method)
        oracle = LinearScanIndex(dim)
        oracle.bulk_load(ids, pts)
        assert tree.height == 1 if n <= 8 else tree.height >= 3
        return tree, oracle, pts, rng

    def test_rect_search(self, dim, method, shape):
        tree, oracle, pts, rng = self.build(dim, method, shape)
        for _ in range(4):
            for label, rect in rect_cases(pts, dim, rng).items():
                before = counters(tree)
                got = tree.range_search_rect(rect)
                delta = tuple(a - b for a, b in zip(counters(tree), before))
                expected, counted = reference_search(
                    tree, rect.intersects, rect.contains_point
                )
                assert list(got) == expected, label  # same ids, same order
                assert delta == counted, label
                assert sorted(got) == sorted(oracle.range_search_rect(rect)), label
        if len(pts):
            everything = tree.range_search_rect(Rect([-1.0] * dim, [21.0] * dim))
            assert len(everything) == len(pts)

    def test_sphere_search(self, dim, method, shape):
        tree, oracle, pts, rng = self.build(dim, method, shape)
        for _ in range(4):
            for label, (center, radius) in sphere_cases(pts, dim, rng).items():
                r2 = radius * radius

                def near(rect, c=center):
                    gaps = np.maximum(rect.lows - c, 0.0) + np.maximum(
                        c - rect.highs, 0.0
                    )
                    return float(gaps @ gaps) <= r2

                def inside(point, c=center):
                    return float((point - c) @ (point - c)) <= r2

                before = counters(tree)
                got = tree.range_search_sphere(center, radius)
                delta = tuple(a - b for a, b in zip(counters(tree), before))
                expected, counted = reference_search(tree, near, inside)
                assert got == expected, label
                assert delta == counted, label
                assert sorted(got) == sorted(
                    oracle.range_search_sphere(center, radius)
                ), label
                if label == "boundary touching" and len(pts):
                    assert 1000 in got  # the anchor sits exactly on the sphere


def stat_counters(index) -> dict[str, int]:
    return {k: v for k, v in vars(index.stats).items() if k != "_extra"}


def check_hits(index, rect, expected, counted):
    """``range_search_rect`` answers ``expected`` in order, row-aligned
    with the stored points, and advances the counters by ``counted``."""
    before = stat_counters(index)
    hits = index.range_search_rect(rect)
    after = stat_counters(index)
    assert list(hits) == expected
    assert len(hits) == len(expected) == hits.ids.shape[0]
    assert hits.points.shape == (len(expected), index.dim)
    np.testing.assert_array_equal(hits.points, index.points_of(list(hits)))
    np.testing.assert_array_equal(np.asarray(hits), hits.ids)
    assert {k: after[k] - before[k] for k in after} == counted
    return hits


class TestSearchHits:
    """``range_search_rect`` hands back ids and points together: the ids
    and their order, and every counter, are the per-entry traversal's."""

    @pytest.mark.parametrize("case", ["bulk", "mutated", "non-integer"])
    def test_rows_match_the_traversal(self, case, rng):
        pts = rng.random((600, 2)) * 100
        ids = list(range(5, 605))
        if case == "non-integer":
            ids = [f"p{i}" if i % 3 else (i, "t") for i in ids]
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(ids, pts)
        if case == "mutated":
            for i, p in enumerate(rng.random((40, 2)) * 100):
                tree.insert(10_000 + i, p)
            for victim in ids[:30]:
                tree.delete(victim)
            assert tree._flat is None  # the search rebuilds the snapshot
        for _ in range(6):
            low = rng.random(2) * 80
            rect = Rect(low, low + rng.random(2) * 40)
            expected, (nodes, leaves, entries) = reference_search(
                tree, rect.intersects, rect.contains_point
            )
            counted = {
                "node_accesses": nodes,
                "leaf_accesses": leaves,
                "entries_examined": entries,
                "queries": 1,
                "splits": 0,
                "reinsertions": 0,
            }
            hits = check_hits(tree, rect, expected, counted)
            if case == "non-integer":
                assert hits.ids.dtype == object
                assert {type(i) for i in hits} <= {str, tuple}
            else:
                assert hits.ids.dtype == np.int64
                assert {type(i) for i in hits} <= {int}
        empty = check_hits(
            tree, Rect([500.0, 500.0], [501.0, 501.0]), [],
            {"node_accesses": 1, "leaf_accesses": 0,
             "entries_examined": len(tree._snapshot().levels[0].lows),
             "queries": 1, "splits": 0, "reinsertions": 0},
        )
        assert not empty


class TestSnapshotLifecycle:
    def test_order_is_leaves_right_to_left_entries_forward(self, rng):
        pts = rng.random((200, 2))
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(range(200), pts)
        leaves, frontier = [], [tree._root]
        while frontier:  # left-to-right breadth-first walk down to the leaves
            leaves = frontier
            frontier = [e.child for node in frontier for e in node.entries if e.child]
        documented = [
            e.obj_id for leaf in reversed(leaves) for e in leaf.entries
        ]
        assert list(tree.range_search_rect(Rect([0.0, 0.0], [1.0, 1.0]))) == documented

    def test_insert_and_delete_drop_the_snapshot(self, rng):
        pts = rng.random((400, 2)) * 10
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(range(400), pts)
        rect = Rect([4.0, 4.0], [6.0, 6.0])
        base = sorted(tree.range_search_rect(rect))
        tree.insert(9000, [5.0, 5.0])
        assert sorted(tree.range_search_rect(rect)) == sorted(base + [9000])
        assert 9000 in tree.range_search_sphere([5.0, 5.0], 0.0)
        np.testing.assert_array_equal(tree.points_of([9000, 0]), [[5.0, 5.0], pts[0]])
        tree.delete(9000)
        assert sorted(tree.range_search_rect(rect)) == base
        with pytest.raises(IndexError_):
            tree.points_of([0, 9000])
        victim = base[0]
        tree.delete(victim)
        assert victim not in tree.range_search_rect(rect)
        assert victim not in tree.range_search_sphere([5.0, 5.0], 3.0)
        tree.check_invariants()

    def test_gather_on_a_stale_snapshot_does_not_rebuild(self, rng):
        pts = rng.random((60, 2))
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(range(60), pts)
        tree.insert(60, [0.5, 0.5])
        assert tree._flat is None
        np.testing.assert_array_equal(
            tree.points_of([60, 3]), [[0.5, 0.5], pts[3]]
        )
        assert tree._flat is None  # stacked from the table, no O(n) rebuild
        tree.range_search_rect(Rect([0.0, 0.0], [1.0, 1.0]))
        assert tree._flat is not None
        np.testing.assert_array_equal(
            tree.points_of(np.array([60, 3])), [[0.5, 0.5], pts[3]]
        )

    @pytest.mark.parametrize("load", ["bulk", "dynamic"])
    def test_non_integer_ids_come_back_as_given(self, load, rng):
        ids = [1, "b", (2, 3), (4,), 2**70] + list(range(10, 40))
        pts = rng.random((len(ids), 2))
        tree = RStarTree(2, max_entries=8)
        if load == "bulk":
            tree.bulk_load(ids, pts)
        else:
            for obj_id, p in zip(ids, pts):
                tree.insert(obj_id, p)
        everything = Rect([0.0, 0.0], [1.0, 1.0])
        hits = tree.range_search_rect(everything)
        assert sorted(map(repr, hits)) == sorted(map(repr, ids))
        assert {type(i) for i in hits} == {type(i) for i in ids}
        assert set(map(repr, tree.range_search_sphere([0.5, 0.5], 2.0))) == set(
            map(repr, ids)
        )
        wanted = ["b", 1, (2, 3), 12]
        np.testing.assert_array_equal(
            tree.points_of(wanted), [pts[ids.index(i)] for i in wanted]
        )
        for obj_id in wanted:
            np.testing.assert_array_equal(tree.get(obj_id), pts[ids.index(obj_id)])
        with pytest.raises(IndexError_):
            tree.points_of(["missing"])
        with pytest.raises(IndexError_, match="'missing'"):
            tree.get("missing")

    def test_integer_tree_rejects_non_integer_gather(self, rng):
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(range(20), rng.random((20, 2)))
        for bad in (["x"], [(1, 2)], [1.5], [2**70]):
            with pytest.raises(IndexError_):
                tree.points_of(bad)

    def test_bulk_load_does_not_alias_the_callers_array(self, rng):
        pts = rng.random((50, 2))
        original = pts.copy()
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(range(50), pts)
        pts[:] = -7.0
        np.testing.assert_array_equal(tree.get(3), original[3])
        np.testing.assert_array_equal(tree.points_of([3, 4]), original[[3, 4]])
        assert len(tree.range_search_rect(Rect([0.0, 0.0], [1.0, 1.0]))) == 50
        assert tree.knn(original[7], 1)[0][0] == 7

    def test_bulk_load_names_first_non_finite_id(self):
        pts = np.zeros((5, 2))
        pts[3, 1] = np.nan
        pts[4, 0] = np.inf
        tree = RStarTree(2)
        with pytest.raises(IndexError_, match="id 13 "):
            tree.bulk_load(range(10, 15), pts)
        assert len(tree) == 0

    def test_concurrent_first_searches_agree(self):
        from repro.bench.workload import WorkloadGenerator
        from repro.core.database import SpatialDatabase

        rng = np.random.default_rng(8)
        database = SpatialDatabase(rng.random((3000, 2)) * 1000.0)
        workload = WorkloadGenerator(database, seed=2).batch(16)
        engine = database.engine()
        # A mutation drops the snapshot, so the four workers' first
        # searches race to rebuild it; a short switch interval makes the
        # threads interleave inside the build.
        database.index.insert(10**6, [500.0, 500.0])
        database.index.delete(10**6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            racing = engine.run_batch(workload, workers=4, base_seed=4)
        finally:
            sys.setswitchinterval(interval)
        settled = engine.run_batch(workload, workers=1, base_seed=4)
        assert racing.ids == settled.ids
        assert racing.stats.retrieved == settled.stats.retrieved


# ----------------------------------------------------------------------
# A bulk-loaded tree is its snapshot: tile identity, lazy pointer tree
# ----------------------------------------------------------------------


def snapshot_arrays(flat) -> list[np.ndarray]:
    arrays = [array for level in flat.levels for array in level]
    return arrays + [flat.leaf_starts, flat.ids, flat.points]


def assert_same_snapshot(got, expected) -> None:
    assert len(got.levels) == len(expected.levels)
    for a, b in zip(snapshot_arrays(got), snapshot_arrays(expected)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def reference_pack(ids, pts: np.ndarray, capacity: int, method: str):
    """The pointer tree that bulk loading built node by node before it
    assembled the snapshot from index arrays: leaf entries in packing
    order, every upper level STR-tiled on its nodes' MBR centres (or
    chunked in order, for Hilbert)."""
    from repro.index.bulk import tile_points
    from repro.index.hilbert import hilbert_order
    from repro.index.rtree import _Entry, _Node

    entries = [_Entry.for_object(i, row) for i, row in zip(ids, pts)]
    n = len(entries)
    if method == "str":
        tiles = tile_points(np.arange(n), pts, capacity, axis=0)
    else:
        order = hilbert_order(pts, bits=min(10, 62 // pts.shape[1]))
        tiles = [order[start : start + capacity] for start in range(0, n, capacity)]
    nodes = [_Node(0, [entries[i] for i in tile.tolist()]) for tile in tiles]
    level = 0
    while len(nodes) > 1:
        level += 1
        if method == "str":
            centers = np.array([node.mbr().center for node in nodes])
            groups = tile_points(np.arange(len(nodes)), centers, capacity, axis=0)
        else:
            groups = [
                range(start, min(start + capacity, len(nodes)))
                for start in range(0, len(nodes), capacity)
            ]
        nodes = [_Node(level, [_Entry.for_child(nodes[i]) for i in g]) for g in groups]
    tree = RStarTree(pts.shape[1], max_entries=capacity)
    tree._root = nodes[0]
    tree._table = {entry.obj_id: entry.point for entry in entries}
    tree._packed = True
    return tree


def load_e2e_dataset(name: str) -> np.ndarray:
    """A benchmark corpus exactly as ``benchmarks/e2e`` stores it."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "e2e" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_e2e_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    try:
        spec.loader.exec_module(inputs)
        return np.round(getattr(inputs, name)(), 6)
    finally:
        del sys.modules[spec.name]


class TestBulkSnapshot:
    @pytest.mark.parametrize("n", [1, 50, 51, 2_500, 10_007])
    @pytest.mark.parametrize("dim", [2, 9])
    @pytest.mark.parametrize("method", ["str", "hilbert"])
    def test_tiles_equal_the_materialised_trees(self, method, dim, n):
        from repro.index.rtree import _walk

        rng = np.random.default_rng(n * 10 + dim)
        pts = rng.standard_normal((n, dim)) * 100.0
        ids = rng.permutation(3 * n)[:n]  # unordered, gapped integer ids
        tree = RStarTree(dim)
        tree.bulk_load(ids, pts, method=method)
        bulk = tree._flat
        assert tree._tree is None
        assert_same_snapshot(bulk, _walk(tree._root, dim))
        reference = reference_pack(ids.tolist(), pts, tree.max_entries, method)
        assert_same_snapshot(bulk, _walk(reference._root, dim))
        tree.check_invariants()

    @pytest.mark.parametrize("method", ["str", "hilbert"])
    def test_non_integer_ids_tile_alike(self, method, rng):
        from repro.index.rtree import _walk

        ids = [f"p{i}" for i in range(700)] + [(1, 2), 2**70, 3]
        pts = rng.random((len(ids), 2))
        tree = RStarTree(2, max_entries=8)
        tree.bulk_load(ids, pts, method=method)
        assert not tree._flat.integral
        assert_same_snapshot(tree._flat, _walk(tree._root, 2))
        reference = reference_pack(ids, pts, 8, method)
        assert_same_snapshot(tree._flat, _walk(reference._root, 2))

    #: SHA-256 of every snapshot array (levels top-down, then leaf offsets,
    #: ids and points) of the benchmark corpora loaded with ids 0..n−1 and
    #: the default capacity, as the node-by-node bulk load produced them.
    PINNED = {
        ("road50k", "str"): (
            "53fa8d60f4fcd9ebcffa5d3a8c58f6688536fd343ea3d4eeabd2aa2cbe816834"
        ),
        ("road50k", "hilbert"): (
            "7ed851455c8ace37bef76980fad91eb56bf8227c7315e2a42302b3d710f44a4a"
        ),
        ("corel68k", "str"): (
            "4dfd2f847bc3c8458b05f6676cb6b5ed24533de55a33f93067c69afcae868cc7"
        ),
        ("corel68k", "hilbert"): (
            "aece0d2f17defd768c7cc753493a1a2ea019cb1a2396c4ed2809a046653d0e41"
        ),
    }

    @pytest.mark.parametrize("name", ["road50k", "corel68k"])
    def test_benchmark_corpora_tile_as_pinned(self, name):
        import hashlib

        pts = load_e2e_dataset(name)
        for method in ("str", "hilbert"):
            tree = RStarTree(pts.shape[1])
            tree.bulk_load(np.arange(pts.shape[0]), pts, method=method)
            digest = hashlib.sha256()
            for array in snapshot_arrays(tree._flat):
                digest.update(np.ascontiguousarray(array).tobytes())
            assert digest.hexdigest() == self.PINNED[name, method], method

    def test_walk_boxes_are_the_entry_rects(self, rng):
        """A dynamic tree keeps every entry rect the exact MBR of its child,
        so the snapshot that recomputes boxes sweeps the same rectangles."""
        tree = RStarTree(2, max_entries=8)
        pts = rng.random((600, 2)) * 50
        for i, p in enumerate(pts):
            tree.insert(i, p)
        for i in rng.permutation(600)[:250].tolist():
            tree.delete(i)
        flat = tree._snapshot()
        nodes = [tree._root]
        for level in flat.levels:
            entries = [entry for node in nodes for entry in node.entries]
            np.testing.assert_array_equal(level.lows, [e.rect.lows for e in entries])
            np.testing.assert_array_equal(level.highs, [e.rect.highs for e in entries])
            nodes = [entry.child for entry in entries]
        assert all(node.is_leaf for node in nodes)


class TestLazyPointerTree:
    @pytest.fixture
    def built_nodes(self, monkeypatch):
        from repro.index import rtree

        built = []
        init = rtree._Node.__init__

        def counting(node, *args, **kwargs):
            built.append(node)
            init(node, *args, **kwargs)

        monkeypatch.setattr(rtree._Node, "__init__", counting)
        return built

    def test_reads_build_no_node(self, built_nodes, rng):
        pts = rng.random((3000, 2)) * 100
        ids = np.arange(5, 3005)
        tree = RStarTree(2, max_entries=16)
        built_nodes.clear()  # the empty root of a new tree
        tree.bulk_load(ids, pts)
        assert tree.range_search_rect(Rect([10.0, 10.0], [30.0, 40.0]))
        assert tree.range_search_sphere([50.0, 50.0], 7.5)
        np.testing.assert_array_equal(tree.get(17), pts[12])
        np.testing.assert_array_equal(tree.points_of([9, 3004]), pts[[4, 2999]])
        with pytest.raises(IndexError_):
            tree.get(3005)
        with pytest.raises(IndexError_):
            tree.get("x")
        assert tree.ids() == ids.tolist()
        assert len(tree) == 3000
        assert tree.height == 3
        nearest = tree.knn([50.0, 50.0], 7)
        assert [pair[1] for pair in nearest] == sorted(pair[1] for pair in nearest)
        assert list(itertools.islice(tree.nearest_iter([50.0, 50.0]), 7)) == nearest
        assert set(tree.quality_metrics()) == {
            "avg_fill", "leaf_volume", "leaf_sibling_overlap"
        }
        assert built_nodes == []
        nodes = tree.node_count()
        assert built_nodes == []
        assert tree._tree is None and tree._table is None
        tree.check_invariants()
        assert len(built_nodes) == nodes  # the whole pointer tree, once

    @pytest.mark.parametrize("method", ["str", "hilbert"])
    def test_tree_operations_match_the_node_by_node_load(self, method, rng):
        pts = rng.random((1500, 2)) * 100
        ids = list(range(1500))
        lazy = RStarTree(2, max_entries=12)
        lazy.bulk_load(ids, pts, method=method)
        eager = reference_pack(ids, pts, 12, method)

        def same(call):
            before = [vars(t.stats).copy() for t in (lazy, eager)]
            got, expected = call(lazy), call(eager)
            assert got == expected
            deltas = [
                {k: vars(t.stats)[k] - b[k] for k in b if k != "_extra"}
                for t, b in zip((lazy, eager), before)
            ]
            assert deltas[0] == deltas[1]
            return got

        same(lambda t: t.knn([40.0, 60.0], 25))
        same(lambda t: list(itertools.islice(t.nearest_iter([3.0, 97.0]), 80)))
        same(lambda t: (t.check_invariants(), t.quality_metrics(), t.node_count()))
        rect = Rect([20.0, 20.0], [45.0, 70.0])
        for i, p in enumerate(rng.random((200, 2)) * 100):
            same(lambda t, i=i, p=p: t.insert(10_000 + i, p))
        same(lambda t: list(t.range_search_rect(rect)))
        for victim in rng.permutation(1500)[:300].tolist():
            same(lambda t, v=victim: t.delete(v))
        same(lambda t: t.range_search_sphere([50.0, 50.0], 20.0))
        same(lambda t: (t.check_invariants(), t.quality_metrics(), t.height, t.ids()))


def test_database_load_adds_no_per_point_objects():
    """Loading a 50 000-point database and building its index used to add
    ≈ 105 000 GC-tracked objects (one entry and one rect per point), and
    every full collection then walked them."""
    import gc

    from repro.core.database import SpatialDatabase

    pts = np.random.default_rng(3).random((50_000, 2)) * 1000.0
    gc.collect()
    before = len(gc.get_objects())
    database = SpatialDatabase(pts, defer_index=True)
    assert database.index.range_search_rect(Rect([0.0, 0.0], [50.0, 50.0]))
    assert len(gc.get_objects()) - before < 1_000


@pytest.mark.parametrize("backend", ["rtree-bulk", "rtree-dynamic", "grid", "linear"])
def test_points_of_equals_stacked_get(backend, rng):
    pts = rng.random((120, 3)) * 10
    ids = [7 * i + 3 for i in range(120)]
    if backend == "grid":
        index = GridIndex(Rect([0.0] * 3, [10.0] * 3), cells_per_dim=4)
    elif backend == "linear":
        index = LinearScanIndex(3)
    else:
        index = RStarTree(3, max_entries=8)
    if backend == "rtree-bulk":
        index.bulk_load(ids, pts)
    else:
        for obj_id, p in zip(ids, pts):
            index.insert(obj_id, p)
    if backend == "rtree-dynamic":
        index.delete(ids.pop())
    wanted = [ids[i] for i in rng.integers(0, len(ids), 40)]  # with repeats
    got = index.points_of(wanted)
    np.testing.assert_array_equal(got, np.vstack([index.get(i) for i in wanted]))
    np.testing.assert_array_equal(index.points_of(np.asarray(wanted)), got)
    assert index.points_of([]).shape == (0, 3)
    with pytest.raises(IndexError_):
        index.points_of([wanted[0], -1])


class TestSplitAlgorithm:
    def test_groups_partition_input(self, rng):
        rects = [Rect.from_point(p) for p in rng.random((17, 2))]
        decision = rstar_split(rects, min_entries=4)
        combined = sorted(decision.group_a + decision.group_b)
        assert combined == list(range(17))
        assert len(decision.group_a) >= 4
        assert len(decision.group_b) >= 4

    def test_split_too_few_rejected(self):
        rects = [Rect.from_point([0.0, 0.0])] * 3
        with pytest.raises(IndexError_):
            rstar_split(rects, min_entries=2)

    def test_clusters_separate_cleanly(self):
        # Two clearly separated clusters must not be mixed by the split.
        left = [Rect.from_point([float(i) / 10, 0.0]) for i in range(6)]
        right = [Rect.from_point([100.0 + float(i) / 10, 0.0]) for i in range(6)]
        decision = rstar_split(left + right, min_entries=4)
        group_a = set(decision.group_a)
        assert group_a in ({0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11})
        assert decision.overlap == 0.0

    @given(st.integers(12, 40), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_splits_respect_min_entries(self, n, m):
        rng = np.random.default_rng(n * 31 + m)
        rects = [Rect.from_point(p) for p in rng.random((n, 3))]
        decision = rstar_split(rects, min_entries=m)
        assert min(len(decision.group_a), len(decision.group_b)) >= m
        assert sorted(decision.group_a + decision.group_b) == list(range(n))
