"""Spatial partitioning of a point set into shards.

Reuses the R*-tree bulk-load machinery: the Sort-Tile-Recursive tiling
(:func:`repro.index.bulk.tile_points`) produces a spatial *total order*
over the points, which is then chopped into ``n_shards`` contiguous,
near-equal runs.  Contiguous runs of a spatial order are exactly what a
bulk loader would pack into neighbouring subtrees, so each shard covers
a compact region and the shard MBRs overlap as little as the data
allows — the property the router's MBR-vs-query-box intersection test
cashes in on.

Partitioning is deterministic: same points, same shard count →
byte-identical shard membership, in the same shard order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.geometry.mbr import Rect
from repro.index.bulk import tile_points

__all__ = ["ShardSpec", "partition_positions"]


@dataclass(frozen=True)
class ShardSpec:
    """One shard: its id, row positions into the point array, and MBR."""

    shard_id: int
    #: Row indices into the stored point/ids arrays (not object ids).
    positions: np.ndarray
    #: Tight bounding box of the shard's points — the routing key.
    mbr: Rect

    def __len__(self) -> int:
        return int(self.positions.size)


def partition_positions(points: np.ndarray, n_shards: int) -> list[ShardSpec]:
    """Split ``points`` into ``n_shards`` spatially compact shards.

    Returns the shards in a fixed, deterministic order (shard 0 first);
    every row of ``points`` lands in exactly one shard, so any per-shard
    computation over disjoint candidate sets sums back to the unsharded
    total.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise QueryError(
            f"points must be a non-empty (n, d) array, got shape {pts.shape}"
        )
    if n_shards < 1:
        raise QueryError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > pts.shape[0]:
        raise QueryError(
            f"cannot split {pts.shape[0]} points into {n_shards} shards"
        )
    # Tile with capacity = ceil(n / shards): the STR recursion then yields
    # tiles no larger than one shard's worth, and contiguous tiles in
    # tiling order are spatial neighbours.
    capacity = math.ceil(pts.shape[0] / n_shards)
    order = np.concatenate(
        tile_points(np.arange(pts.shape[0], dtype=np.int64), pts, capacity, axis=0)
    )
    shards = []
    for shard_id, chunk in enumerate(np.array_split(order, n_shards)):
        block = pts[chunk]
        shards.append(
            ShardSpec(
                shard_id=shard_id,
                positions=np.ascontiguousarray(chunk, dtype=np.int64),
                mbr=Rect(block.min(axis=0), block.max(axis=0)),
            )
        )
    return shards
