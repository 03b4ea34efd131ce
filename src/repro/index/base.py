"""Common interface and statistics for spatial indexes."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect

__all__ = ["SpatialIndex", "IndexStats", "SearchHits"]

_ArrayLike = Sequence[float] | np.ndarray


def int_ids(ids) -> np.ndarray | None:
    """``ids`` as a 1-D ``int64`` array, or ``None`` if any is not a plain integer.

    An index accepts any hashable id; only integer ids (what every
    database hands it) are worth an array, so a ``str`` or ``tuple`` id is
    never coerced into something it was not.
    """
    if isinstance(ids, np.ndarray):
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            return None
        return ids.astype(np.int64, copy=False)
    ids = ids if isinstance(ids, (list, tuple)) else list(ids)
    for kind in set(map(type, ids)):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            return None
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        return None


class SearchHits:
    """What a rectangle search found: ids and points, row-aligned.

    ``ids[i]`` is the id of ``points[i]``, a ``(len, d)`` float array, and
    rows come in the index's answer order.  ``ids`` is ``int64`` when every
    id is an integer, else an ``object`` array holding the ids as given.
    ``len`` is the number of hits and iteration yields the ids as Python
    objects (``int`` for integer ids), so ``list(hits)`` is the id list;
    ``np.asarray(hits)`` is ``ids``.  Phase 1 hands both arrays to
    Phases 2 and 3 without looking the points up again.
    """

    __slots__ = ("ids", "points")

    def __init__(self, ids: np.ndarray, points: np.ndarray):
        self.ids = ids
        self.points = points

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __iter__(self):
        return iter(self.ids.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.array(self.ids, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"SearchHits({self.ids.tolist()!r})"


@dataclass
class IndexStats:
    """Counters accumulated across operations (reset with :meth:`reset`).

    ``node_accesses`` counts visited index nodes (grid cells for the grid
    index, the whole dataset once per query for the linear scan); it is the
    abstract analogue of page reads in the paper's disk-based setting.
    """

    node_accesses: int = 0
    leaf_accesses: int = 0
    entries_examined: int = 0
    queries: int = 0
    splits: int = 0
    reinsertions: int = 0
    _extra: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.node_accesses = 0
        self.leaf_accesses = 0
        self.entries_examined = 0
        self.queries = 0
        self.splits = 0
        self.reinsertions = 0
        self._extra.clear()


class SpatialIndex(abc.ABC):
    """A dynamic index over d-dimensional points with integer-like ids."""

    def __init__(self, dim: int):
        if dim < 1:
            raise IndexError_(f"dimension must be >= 1, got {dim}")
        self._dim = int(dim)
        self.stats = IndexStats()

    @property
    def dim(self) -> int:
        return self._dim

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def insert(self, obj_id: int, point: _ArrayLike) -> None:
        """Add a point.  Raises on duplicate id or wrong dimension."""

    @abc.abstractmethod
    def delete(self, obj_id: int) -> None:
        """Remove a point.  Raises if the id is unknown."""

    @abc.abstractmethod
    def get(self, obj_id: int) -> np.ndarray:
        """The stored point for ``obj_id``."""

    def points_of(self, ids: Iterable[int]) -> np.ndarray:
        """The stored points of ``ids`` as one ``(k, d)`` array, in order.

        Default: stack :meth:`get`.  Indexes that keep their points in
        one matrix answer with a single gather.
        """
        rows = [self.get(obj_id) for obj_id in ids]
        return np.vstack(rows) if rows else np.empty((0, self._dim))

    @abc.abstractmethod
    def ids(self) -> list[int]:
        """All indexed object ids, sorted."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of indexed points."""

    def bulk_load(self, ids: Iterable[int], points: np.ndarray) -> None:
        """Default bulk load: repeated insertion.  Subclasses may override."""
        pts = np.asarray(points, dtype=float)
        ids = ids.tolist() if isinstance(ids, np.ndarray) else ids
        for obj_id, point in zip(ids, pts):
            self.insert(obj_id, point)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def range_search_rect(self, rect: Rect) -> SearchHits:
        """The points inside the (closed) rectangle, with their ids."""

    def _hits(self, ids: list) -> SearchHits:
        """``ids`` with their stored points: the default search result."""
        as_ints = int_ids(ids)
        if as_ints is None:
            as_ints = np.fromiter(ids, dtype=object, count=len(ids))
        return SearchHits(as_ints, self.points_of(ids))

    def range_search_sphere(self, center: _ArrayLike, radius: float) -> list[int]:
        """Ids of points within ``radius`` of ``center``.

        Default: rectangle search on the bounding box, refined by exact
        distance.  Tree indexes override with sphere-aware pruning.
        """
        c = np.asarray(center, dtype=float)
        box = Rect.from_center(c, np.full(self._dim, radius))
        hits = self.range_search_rect(box)
        gaps = hits.points - c
        inside = np.einsum("ij,ij->i", gaps, gaps) <= radius * radius
        return hits.ids[inside].tolist()

    @abc.abstractmethod
    def knn(self, point: _ArrayLike, k: int) -> list[tuple[int, float]]:
        """The k nearest ids with their distances, nearest first."""

    # ------------------------------------------------------------------
    # Shared validation helpers
    # ------------------------------------------------------------------

    def _validate_point(self, point: _ArrayLike) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (self._dim,):
            raise IndexError_(
                f"point must have shape ({self._dim},), got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise IndexError_(f"point must be finite, got {p}")
        return p

    def _validate_rect(self, rect: Rect) -> Rect:
        if rect.dim != self._dim:
            raise IndexError_(
                f"query rectangle has dimension {rect.dim}, index has {self._dim}"
            )
        return rect
