"""A uniform grid (spatial hashing) index baseline.

Cells partition a fixed bounding region; points outside the region are
clamped into the boundary cells, so the index remains correct (if slower)
for out-of-bounds data.  Serves as an ablation partner for the R*-tree:
grids shine on uniformly distributed low-dimensional data and degrade on
skewed or medium-dimensional data — the road/Corel contrast of the paper.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.base import SearchHits, SpatialIndex

__all__ = ["GridIndex"]

_ArrayLike = Sequence[float] | np.ndarray


class GridIndex(SpatialIndex):
    """Fixed uniform grid over ``bounds`` with ``cells_per_dim`` cells per axis."""

    def __init__(self, bounds: Rect, cells_per_dim: int = 64):
        super().__init__(bounds.dim)
        if cells_per_dim < 1:
            raise IndexError_(f"cells_per_dim must be >= 1, got {cells_per_dim}")
        if bounds.dim > 8 and cells_per_dim > 4:
            raise IndexError_(
                f"{cells_per_dim}^{bounds.dim} cells is impractical; use fewer "
                "cells per dimension or the R*-tree for high dimensions"
            )
        self.bounds = bounds
        self.cells_per_dim = int(cells_per_dim)
        widths = bounds.extents / cells_per_dim
        if np.any(widths <= 0):
            raise IndexError_(
                f"bounds must have positive extent on every axis, got {bounds}"
            )
        self._widths = widths
        self._cells: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self._points: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Cell addressing
    # ------------------------------------------------------------------

    def _cell_of(self, point: np.ndarray) -> tuple[int, ...]:
        raw = (point - self.bounds.lows) / self._widths
        clamped = np.clip(np.floor(raw).astype(int), 0, self.cells_per_dim - 1)
        return tuple(int(c) for c in clamped)

    def _cell_range(self, rect: Rect) -> list[range]:
        lows = np.clip(
            np.floor((rect.lows - self.bounds.lows) / self._widths).astype(int),
            0,
            self.cells_per_dim - 1,
        )
        highs = np.clip(
            np.floor((rect.highs - self.bounds.lows) / self._widths).astype(int),
            0,
            self.cells_per_dim - 1,
        )
        return [range(int(lo), int(hi) + 1) for lo, hi in zip(lows, highs)]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj_id: int, point: _ArrayLike) -> None:
        p = self._validate_point(point)
        if obj_id in self._points:
            raise IndexError_(f"duplicate object id {obj_id!r}")
        self._points[obj_id] = p
        self._cells.setdefault(self._cell_of(p), {})[obj_id] = p

    def delete(self, obj_id: int) -> None:
        try:
            p = self._points.pop(obj_id)
        except KeyError:
            raise IndexError_(f"unknown object id {obj_id!r}") from None
        cell = self._cell_of(p)
        bucket = self._cells[cell]
        del bucket[obj_id]
        if not bucket:
            del self._cells[cell]

    def get(self, obj_id: int) -> np.ndarray:
        try:
            return self._points[obj_id]
        except KeyError:
            raise IndexError_(f"unknown object id {obj_id!r}") from None

    def ids(self) -> list[int]:
        return sorted(self._points)

    def __len__(self) -> int:
        return len(self._points)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_search_rect(self, rect: Rect) -> SearchHits:
        self._validate_rect(rect)
        self.stats.queries += 1
        hits: list[int] = []
        for cell in itertools.product(*self._cell_range(rect)):
            bucket = self._cells.get(cell)
            if bucket is None:
                continue
            self.stats.node_accesses += 1
            for obj_id, p in bucket.items():
                self.stats.entries_examined += 1
                if rect.contains_point(p):
                    hits.append(obj_id)
        return self._hits(hits)

    def knn(self, point: _ArrayLike, k: int) -> list[tuple[int, float]]:
        """Best-first over cells by MINDIST, identical contract to the R*-tree."""
        p = self._validate_point(point)
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        self.stats.queries += 1
        counter = itertools.count()
        heap: list[tuple[float, int, tuple[int, ...] | None, int | None]] = []
        for cell in self._cells:
            rect = self._cell_rect(cell)
            heapq.heappush(heap, (rect.min_distance(p), next(counter), cell, None))
        results: list[tuple[int, float]] = []
        while heap and len(results) < k:
            distance, _, cell, obj_id = heapq.heappop(heap)
            if cell is None:
                results.append((obj_id, distance))  # type: ignore[arg-type]
                continue
            self.stats.node_accesses += 1
            for candidate_id, candidate in self._cells[cell].items():
                self.stats.entries_examined += 1
                heapq.heappush(
                    heap,
                    (
                        float(np.linalg.norm(candidate - p)),
                        next(counter),
                        None,
                        candidate_id,
                    ),
                )
        return results

    def _cell_rect(self, cell: tuple[int, ...]) -> Rect:
        lows = self.bounds.lows + np.array(cell) * self._widths
        return Rect(lows, lows + self._widths)

    def occupancy(self) -> float:
        """Fraction of possible cells that hold at least one point."""
        total = self.cells_per_dim**self._dim
        return len(self._cells) / total if total else math.nan
