"""The no-index baseline: a flat array scanned in full on every query.

Useful for correctness oracles in tests and for quantifying what the
R*-tree buys in Phase 1 (which the paper reports as negligible next to
Phase 3 — the ablation benchmark verifies that claim holds here too).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.base import SearchHits, SpatialIndex

__all__ = ["LinearScanIndex"]

_ArrayLike = Sequence[float] | np.ndarray


class LinearScanIndex(SpatialIndex):
    """Stores points densely; answers every query by a vectorised scan."""

    def __init__(self, dim: int):
        super().__init__(dim)
        self._ids: list[int] = []
        self._rows: list[np.ndarray] = []
        self._id_to_slot: dict[int, int] = {}
        self._matrix: np.ndarray | None = None  # cache rebuilt lazily

    def _points_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = (
                np.vstack(self._rows) if self._rows else np.empty((0, self._dim))
            )
        return self._matrix

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj_id: int, point: _ArrayLike) -> None:
        p = self._validate_point(point)
        if obj_id in self._id_to_slot:
            raise IndexError_(f"duplicate object id {obj_id!r}")
        self._id_to_slot[obj_id] = len(self._ids)
        self._ids.append(obj_id)
        self._rows.append(p)
        self._matrix = None

    def delete(self, obj_id: int) -> None:
        slot = self._id_to_slot.pop(obj_id, None)
        if slot is None:
            raise IndexError_(f"unknown object id {obj_id!r}")
        last = len(self._ids) - 1
        if slot != last:
            self._ids[slot] = self._ids[last]
            self._rows[slot] = self._rows[last]
            self._id_to_slot[self._ids[slot]] = slot
        self._ids.pop()
        self._rows.pop()
        self._matrix = None

    def get(self, obj_id: int) -> np.ndarray:
        slot = self._id_to_slot.get(obj_id)
        if slot is None:
            raise IndexError_(f"unknown object id {obj_id!r}")
        return self._rows[slot]

    def ids(self) -> list[int]:
        return sorted(self._id_to_slot)

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_search_rect(self, rect: Rect) -> SearchHits:
        self._validate_rect(rect)
        self.stats.queries += 1
        pts = self._points_matrix()
        self.stats.node_accesses += 1
        self.stats.entries_examined += len(self._ids)
        mask = rect.contains_points(pts) if len(self._ids) else np.array([], bool)
        return self._hits([self._ids[i] for i in np.nonzero(mask)[0]])

    def range_search_sphere(self, center: _ArrayLike, radius: float) -> list[int]:
        c = self._validate_point(center)
        if radius < 0:
            raise IndexError_(f"radius must be >= 0, got {radius}")
        self.stats.queries += 1
        pts = self._points_matrix()
        self.stats.node_accesses += 1
        self.stats.entries_examined += len(self._ids)
        if not len(self._ids):
            return []
        deltas = pts - c
        mask = np.einsum("ij,ij->i", deltas, deltas) <= radius * radius
        return [self._ids[i] for i in np.nonzero(mask)[0]]

    def knn(self, point: _ArrayLike, k: int) -> list[tuple[int, float]]:
        p = self._validate_point(point)
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        self.stats.queries += 1
        pts = self._points_matrix()
        self.stats.node_accesses += 1
        self.stats.entries_examined += len(self._ids)
        if not len(self._ids):
            return []
        distances = np.linalg.norm(pts - p, axis=1)
        k_eff = min(k, len(self._ids))
        order = np.argpartition(distances, k_eff - 1)[:k_eff]
        order = order[np.argsort(distances[order], kind="stable")]
        return [(self._ids[i], float(distances[i])) for i in order]
