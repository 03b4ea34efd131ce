"""The memory-mapped structure-of-arrays store (repro.core.storage).

Covers the storage contract from docs/architecture.md: O(1) mapped
loads, legacy ``.npz`` migration, corrupt-file diagnostics that name the
path, and bit-identical sharded execution served straight from the
mapped file.
"""

from __future__ import annotations

import gc
import tempfile

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.storage import (
    SOA_MAGIC,
    is_soa_file,
    open_soa,
    write_soa,
)
from repro.errors import DatabaseLoadError
from repro.gaussian.distribution import Gaussian


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# ----------------------------------------------------------------------
# Round trips and format sniffing
# ----------------------------------------------------------------------


def test_soa_round_trip_preserves_everything(tmp_path, rng):
    points = rng.random((257, 3)) * 100
    db = SpatialDatabase(points, ids=range(1000, 1257))
    path = tmp_path / "db.soa"
    db.save(path)
    assert is_soa_file(path)
    loaded = SpatialDatabase.load(path)
    assert len(loaded) == 257 and loaded.dim == 3
    np.testing.assert_array_equal(np.asarray(loaded.points), points)
    np.testing.assert_array_equal(
        np.asarray(loaded.ids), np.arange(1000, 1257)
    )
    center = points.mean(axis=0)
    assert sorted(loaded.range_query(center, 20.0)) == sorted(
        db.range_query(center, 20.0)
    )


def test_save_rejects_unknown_format(tmp_path, rng):
    """``save`` writes the store, full stop: ``format`` is not a parameter."""
    db = SpatialDatabase(rng.random((8, 2)))
    with pytest.raises(TypeError, match="format"):
        db.save(tmp_path / "x.npz", format="npz")


def test_legacy_npz_archives_still_load(tmp_path, rng):
    """Migration shim: archives written by older releases keep loading."""
    points = rng.random((120, 2))
    ids = np.arange(120, dtype=np.int64) * 3
    path = tmp_path / "legacy.npz"
    np.savez_compressed(path, points=points, ids=ids)
    loaded = SpatialDatabase.load(path)
    np.testing.assert_array_equal(np.asarray(loaded.points), points)
    np.testing.assert_array_equal(np.asarray(loaded.ids), ids)


def test_loaded_store_is_memory_mapped(tmp_path, rng):
    db = SpatialDatabase(rng.random((50, 2)))
    path = tmp_path / "db.soa"
    db.save(path)
    loaded = SpatialDatabase.load(path)
    backing = loaded._backing
    assert isinstance(backing.points, np.memmap)
    assert isinstance(backing.ids, np.memmap)
    # The database serves zero-copy views of the mapped columns.
    assert np.shares_memory(loaded.points, backing.points)
    assert np.shares_memory(loaded.ids, backing.ids)
    assert not loaded.points.flags.writeable


def test_load_is_o1_deferred_until_index_needed(tmp_path, rng):
    """Opening a store touches no data pages; the index builds lazily."""
    db = SpatialDatabase(rng.random((5000, 2)))
    path = tmp_path / "db.soa"
    db.save(path)
    loaded = SpatialDatabase.load(path)
    assert loaded._built_index is None  # nothing built yet
    assert len(loaded) == 5000  # header metadata only
    hits = loaded.range_query(np.array([0.5, 0.5]), 0.1)  # forces the build
    assert loaded._built_index is not None
    assert sorted(hits) == sorted(db.range_query(np.array([0.5, 0.5]), 0.1))


# ----------------------------------------------------------------------
# Corruption diagnostics
# ----------------------------------------------------------------------


def test_missing_store_names_path(tmp_path):
    path = tmp_path / "absent.soa"
    with pytest.raises(DatabaseLoadError, match="does not exist") as info:
        open_soa(path)
    assert str(path) in str(info.value)


def test_truncated_header_names_path(tmp_path):
    path = tmp_path / "torn.soa"
    path.write_bytes(SOA_MAGIC + b"\x01")  # 9 bytes of a 64-byte header
    with pytest.raises(DatabaseLoadError, match="truncated or corrupt") as info:
        SpatialDatabase.load(path)
    assert str(path) in str(info.value)


def test_truncated_columns_name_path(tmp_path, rng):
    path = tmp_path / "torn2.soa"
    write_soa(path, np.arange(300), rng.random((300, 2)))
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(DatabaseLoadError, match="truncated or corrupt") as info:
        SpatialDatabase.load(path)
    assert str(path) in str(info.value)


def test_garbage_header_names_path(tmp_path):
    path = tmp_path / "junk.soa"
    path.write_bytes(b"\xde\xad\xbe\xef" * 64)
    with pytest.raises(DatabaseLoadError, match="not a SpatialDatabase") as info:
        open_soa(path)
    assert str(path) in str(info.value)


def test_future_version_is_rejected(tmp_path, rng):
    path = tmp_path / "v9.soa"
    write_soa(path, np.arange(4), rng.random((4, 2)))
    payload = bytearray(path.read_bytes())
    payload[8] = 9  # version field (little-endian u32 at offset 8)
    path.write_bytes(bytes(payload))
    with pytest.raises(DatabaseLoadError, match="version"):
        open_soa(path)


# ----------------------------------------------------------------------
# Sharding straight from the mapped file
# ----------------------------------------------------------------------


def test_sharded_query_from_mapped_file_is_bit_identical(
    tmp_path, scratch_tempdir, rng
):
    points = np.vstack(
        [
            rng.normal((30.0, 30.0), 6.0, (400, 2)),
            rng.normal((70.0, 60.0), 5.0, (400, 2)),
            rng.uniform(0.0, 100.0, (200, 2)),
        ]
    )
    db = SpatialDatabase(points)
    path = tmp_path / "db.soa"
    db.save(path)
    mapped = SpatialDatabase.load(path)
    gaussian = Gaussian(np.array([40.0, 40.0]), 30.0 * np.eye(2))

    single = db.probabilistic_range_query(gaussian, delta=12.0, theta=0.2)
    with mapped.shard(3) as sharded:
        # Workers open the loaded file itself; no temporary copy exists.
        assert sharded.pool._store_path == str(path)
        assert list(scratch_tempdir.iterdir()) == []
        scattered = sharded.probabilistic_range_query(
            gaussian, delta=12.0, theta=0.2
        )
    assert scattered.ids == single.ids
    assert path.exists()


@pytest.fixture
def scratch_tempdir(tmp_path, monkeypatch):
    """An empty directory standing in for the system temp directory."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return scratch


def test_in_memory_database_shards_from_one_temporary_store(
    scratch_tempdir, rng
):
    db = SpatialDatabase(rng.random((300, 2)) * 100)
    gaussian = Gaussian(np.array([50.0, 50.0]), 40.0 * np.eye(2))
    sharded = db.shard(2)
    (store,) = scratch_tempdir.iterdir()
    assert sharded.pool._store_path == str(store)
    assert np.array_equal(open_soa(store).points, db.points)
    scattered = sharded.probabilistic_range_query(gaussian, 10.0, 0.2)
    assert scattered.ids == db.probabilistic_range_query(gaussian, 10.0, 0.2).ids
    sharded.close()
    assert list(scratch_tempdir.iterdir()) == []
    sharded.close()
    assert list(scratch_tempdir.iterdir()) == []


def test_unclosed_sharded_database_deletes_its_store_when_collected(
    scratch_tempdir, rng
):
    sharded = SpatialDatabase(rng.random((300, 2)) * 100).shard(2)
    pool = sharded.pool
    assert len(list(scratch_tempdir.iterdir())) == 1
    del sharded
    gc.collect()
    try:
        assert list(scratch_tempdir.iterdir()) == []
    finally:
        pool.close()
