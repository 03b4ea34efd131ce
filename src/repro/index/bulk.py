"""Bulk-loading orders for the R*-tree: STR and Hilbert packing.

A packer builds no node.  It returns one grouping ``(order, sizes)`` per
level, bottom-up, which :class:`~repro.index.flat.FlatSnapshot` turns
into the search arrays.

- **STR** (Sort-Tile-Recursive; Leutenegger, Lopez, Edgington 1997) tiles
  the points into slabs of ≈ √(n/M) · … pages, sorting on one dimension
  and recursing on the next, packs leaves at capacity, then tiles the
  node centres the same way level by level.  Near-100 % fill and good
  locality; it is how the benchmark datasets are loaded.
- **Hilbert** (Kamel & Faloutsos 1993) chops the points, sorted by
  Hilbert index, into full leaves and chunks each upper level in order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.index.flat import node_boxes

__all__ = ["hilbert_levels", "str_levels", "tile_points"]


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


def str_levels(points: np.ndarray, capacity: int) -> list[tuple]:
    """STR groupings of the ``(n, d)`` float ``points``, bottom-up."""
    lows = highs = units = points
    levels = []
    while True:
        tiles = tile_points(np.arange(units.shape[0]), units, capacity, axis=0)
        order, sizes = np.concatenate(tiles), [tile.size for tile in tiles]
        levels.append((order, sizes))
        if len(tiles) == 1:
            return levels
        lo = lows[order]  # one gather at the leaves, where lows is highs
        lows, highs = node_boxes(lo, lo if highs is lows else highs[order], sizes)
        units = (lows + highs) / 2.0  # the nodes' centres


def hilbert_levels(points: np.ndarray, capacity: int, bits: int = 10) -> list[tuple]:
    """Hilbert-curve groupings of ``points``, bottom-up."""
    from repro.index.hilbert import hilbert_order

    n, dim = points.shape
    # The curve index must fit an int64: cap the resolution in high d.
    order = hilbert_order(points, bits=min(bits, 62 // dim)) if n else np.arange(0)
    levels = []
    while True:
        # An empty order is one empty node: the root of an empty tree.
        sizes = np.minimum(capacity, n - np.arange(0, max(n, 1), capacity))
        levels.append((order, sizes))
        if sizes.size == 1:
            return levels
        order, n = np.arange(sizes.size), sizes.size
