"""Spatial index substrates (Phase 1 of query processing).

The paper retrieves candidates with an R*-tree (Katayama's HnRStar
implementation, 1 KB pages).  This package provides a from-scratch
pure-Python equivalent plus two baselines behind one protocol:

- :class:`~repro.index.rtree.RStarTree` — insertion with R* choose-subtree,
  margin-driven split and forced reinsertion; STR bulk loading; rectangle
  and sphere range search; best-first k-NN;
- :class:`~repro.index.grid.GridIndex` — a uniform grid (spatial hashing)
  baseline;
- :class:`~repro.index.linear.LinearScanIndex` — the no-index baseline.

A rectangle search returns :class:`~repro.index.base.SearchHits`: the
ids it found and their points, row-aligned, so Phase 2 reads the points
without a second lookup.  Sphere searches and k-NN return ids; any
stored point can be fetched back via ``get``/``points_of``.
"""

from repro.index.base import IndexStats, SearchHits, SpatialIndex
from repro.index.rtree import RStarTree
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex

__all__ = [
    "SpatialIndex",
    "IndexStats",
    "SearchHits",
    "RStarTree",
    "GridIndex",
    "LinearScanIndex",
]
