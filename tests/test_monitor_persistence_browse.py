"""Tests for database persistence and the incremental nearest-neighbour
iterator."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.errors import DatabaseLoadError
from repro.gaussian.distribution import Gaussian
from repro.index.rtree import RStarTree
from repro.integrate.exact import ExactIntegrator


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        points = rng.random((300, 3)) * 10
        db = SpatialDatabase(points, ids=range(100, 400))
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = SpatialDatabase.load(path)
        assert len(loaded) == 300
        np.testing.assert_array_equal(loaded.point(100), db.point(100))
        center = points.mean(axis=0)
        assert sorted(loaded.range_query(center, 3.0)) == sorted(
            db.range_query(center, 3.0)
        )

    def test_load_with_custom_index(self, tmp_path, rng):
        points = rng.random((100, 2))
        SpatialDatabase(points).save(tmp_path / "db.npz")
        loaded = SpatialDatabase.load(
            tmp_path / "db.npz", index=RStarTree(2, max_entries=8)
        )
        assert loaded.index.max_entries == 8

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(DatabaseLoadError, match="missing"):
            SpatialDatabase.load(path)

    def test_load_missing_file(self, tmp_path):
        path = tmp_path / "nope.npz"
        with pytest.raises(DatabaseLoadError, match="does not exist") as info:
            SpatialDatabase.load(path)
        assert str(path) in str(info.value)

    def test_load_truncated_archive(self, tmp_path, rng):
        """A torn .npz (e.g. an interrupted copy) must surface as one
        clear DatabaseLoadError naming the path, never a raw zip/pickle
        traceback."""
        good = tmp_path / "db.npz"
        SpatialDatabase(rng.random((200, 2))).save(good)
        payload = good.read_bytes()
        for cut in (len(payload) // 2, 30, 1):
            torn = tmp_path / f"torn_{cut}.npz"
            torn.write_bytes(payload[:cut])
            with pytest.raises(DatabaseLoadError) as info:
                SpatialDatabase.load(torn)
            assert str(torn) in str(info.value)
            assert "truncated or corrupt" in str(info.value)

    def test_load_non_archive_bytes(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(DatabaseLoadError, match="truncated or corrupt"):
            SpatialDatabase.load(path)

    def test_load_invalid_contents(self, tmp_path):
        """A well-formed archive with nonsense contents (empty points)
        fails with the invalid-contents flavour of DatabaseLoadError."""
        path = tmp_path / "empty.npz"
        np.savez(path, ids=np.arange(0), points=np.zeros((0, 2)))
        with pytest.raises(DatabaseLoadError, match="invalid"):
            SpatialDatabase.load(path)

    def test_queries_identical_after_round_trip(self, tmp_path, rng, paper_sigma_10):
        points = rng.random((2000, 2)) * 1000
        db = SpatialDatabase(points)
        db.save(tmp_path / "db.npz")
        loaded = SpatialDatabase.load(tmp_path / "db.npz")
        gaussian = Gaussian([500.0, 500.0], paper_sigma_10)
        a = db.probabilistic_range_query(
            gaussian, 25.0, 0.01, integrator=ExactIntegrator()
        )
        b = loaded.probabilistic_range_query(
            gaussian, 25.0, 0.01, integrator=ExactIntegrator()
        )
        assert a.ids == b.ids


class TestNearestIter:
    def test_full_browse_is_sorted_and_complete(self, rng):
        pts = rng.random((400, 2)) * 100
        tree = RStarTree(2, max_entries=16)
        tree.bulk_load(range(400), pts)
        browsed = list(tree.nearest_iter([50.0, 50.0]))
        assert len(browsed) == 400
        distances = [d for _, d in browsed]
        assert distances == sorted(distances)
        assert sorted(i for i, _ in browsed) == list(range(400))

    def test_prefix_matches_knn(self, rng):
        pts = rng.random((500, 3)) * 10
        tree = RStarTree(3, max_entries=12)
        tree.bulk_load(range(500), pts)
        q = [5.0, 5.0, 5.0]
        prefix = list(itertools.islice(tree.nearest_iter(q), 25))
        assert prefix == tree.knn(q, 25)

    def test_lazy_distance_cutoff(self, rng):
        pts = rng.random((1000, 2)) * 100
        tree = RStarTree(2)
        tree.bulk_load(range(1000), pts)
        # Consume until the distance exceeds 10: exactly the points within
        # radius 10, in distance order.
        within = list(
            itertools.takewhile(lambda pair: pair[1] <= 10.0, tree.nearest_iter([50, 50]))
        )
        expected = sorted(tree.range_search_sphere([50.0, 50.0], 10.0))
        assert sorted(i for i, _ in within) == expected

    def test_empty_tree_yields_nothing(self):
        assert list(RStarTree(2).nearest_iter([0.0, 0.0])) == []

    def test_ids_listing(self, rng):
        tree = RStarTree(2)
        for i in (5, 3, 9):
            tree.insert(i, rng.random(2))
        assert tree.ids() == [3, 5, 9]
