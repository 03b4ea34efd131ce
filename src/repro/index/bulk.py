"""Sort-Tile-Recursive (STR) bulk loading for the R*-tree.

Leutenegger, Lopez, Edgington (1997): sort the points along the first
dimension into vertical slabs of ≈ √(n/M) · … pages, recurse on the
remaining dimensions inside each slab, pack leaves at capacity, then pack
the leaves themselves the same way level by level.  Produces a tree with
near-100 % fill and far better node locality than repeated insertion —
it is how the benchmark datasets are loaded.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import IndexError_

__all__ = ["str_pack", "tile_points"]


def tile_points(
    order: np.ndarray, points: np.ndarray, capacity: int, axis: int
) -> list[np.ndarray]:
    """Recursively tile ``order`` (an index array into ``points``) into runs
    of at most ``capacity``, sorting by ``axis`` then slicing into
    ⌈(n/capacity)^(1/(d−axis))⌉ slabs that are tiled on the next axis.
    """
    n = order.size
    if n <= capacity:
        return [order]
    dim = points.shape[1]
    sorted_order = order[np.argsort(points[order, axis], kind="stable")]
    if axis == dim - 1:
        return [
            sorted_order[start : start + capacity]
            for start in range(0, n, capacity)
        ]
    pages = math.ceil(n / capacity)
    slabs = math.ceil(pages ** (1.0 / (dim - axis)))
    per_slab = math.ceil(n / slabs)
    tiles: list[np.ndarray] = []
    for start in range(0, n, per_slab):
        tiles.extend(
            tile_points(sorted_order[start : start + per_slab], points, capacity, axis + 1)
        )
    return tiles


def str_pack(entries: Sequence, points: np.ndarray, capacity: int, *, node_cls, entry_cls):
    """Build a packed tree over ``entries`` and return its root node.

    ``entries[i]`` is the leaf entry of ``points[i]``.  ``node_cls`` /
    ``entry_cls`` are the R*-tree's private node and entry types — passed
    in to keep this module free of circular imports.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return node_cls(level=0)
    if capacity < 2:
        raise IndexError_(f"capacity must be >= 2, got {capacity}")

    tiles = tile_points(np.arange(n), pts, capacity, axis=0)
    nodes = [node_cls(0, [entries[i] for i in tile.tolist()]) for tile in tiles]
    level = 0
    while len(nodes) > 1:
        level += 1
        centers = np.array([node.mbr().center for node in nodes])
        groups = tile_points(np.arange(len(nodes)), centers, capacity, axis=0)
        nodes = [
            node_cls(level, [entry_cls.for_child(nodes[i]) for i in group])
            for group in groups
        ]
    return nodes[0]


def hilbert_pack(
    entries: Sequence,
    points: np.ndarray,
    capacity: int,
    *,
    node_cls,
    entry_cls,
    bits: int = 10,
):
    """Hilbert-curve bulk loading (Kamel & Faloutsos 1993).

    Points are sorted by their Hilbert index and chopped into full leaves;
    upper levels chunk their children in the same order.  Compared to STR,
    the space-filling curve keeps leaf pages compact on strongly skewed
    data — the ablation benchmark measures the difference in node accesses
    on the road network.  Same arguments and result as :func:`str_pack`.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return node_cls(level=0)
    if capacity < 2:
        raise IndexError_(f"capacity must be >= 2, got {capacity}")
    from repro.index.hilbert import hilbert_order

    # The curve index must fit an int64: cap the resolution in high d.
    order = hilbert_order(pts, bits=min(bits, 62 // pts.shape[1])).tolist()
    nodes = [
        node_cls(0, [entries[i] for i in order[start : start + capacity]])
        for start in range(0, n, capacity)
    ]
    level = 0
    while len(nodes) > 1:
        level += 1
        nodes = [
            node_cls(
                level,
                [entry_cls.for_child(child) for child in nodes[start : start + capacity]],
            )
            for start in range(0, len(nodes), capacity)
        ]
    return nodes[0]
