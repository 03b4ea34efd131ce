"""A flat, level-ordered snapshot of an R*-tree for array-sweep searches.

The pointer tree (:mod:`repro.index.rtree`) stays the source of truth for
insertion, deletion, distance browsing and invariant checking.  Range
searches never walk it: they run over this derived, read-only copy, in
which every level is a handful of contiguous arrays.

Layout
------
Nodes of one level are numbered left to right (the order a breadth-first
walk meets them), so the children of level ``L`` *are* the nodes of level
``L − 1`` in the same numbering.  For every internal level, top-down:

- ``starts`` — ``(nodes + 1,)`` CSR offsets: node ``i`` owns child slots
  ``starts[i]:starts[i + 1]``;
- ``lows`` / ``highs`` — ``(children, d)`` child rectangles, slot ``j``
  describing node ``j`` of the level below.

At leaf level ``leaf_starts`` is the same offset array over ``ids`` /
``points``, the objects in leaf order.

A search is level-synchronous: expand the frontier's child ranges, run
one vectorised test over them, keep the survivors as the next frontier,
and finish with one containment test over the rows of the touched
leaves.

Order and counter contract
--------------------------
Ids come back exactly as the depth-first stack traversal this replaced
produced them: touched leaves right to left, entries forward within a
leaf.  ``IndexStats`` advances by the same amounts, added once per level:
``node_accesses`` by every frontier size (root and leaves included),
``leaf_accesses`` by the leaf frontier, ``entries_examined`` by every
expanded slot.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.base import IndexStats

__all__ = ["FlatSnapshot", "int_ids"]


class _Level(NamedTuple):
    starts: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


def _offsets(nodes) -> np.ndarray:
    starts = np.zeros(len(nodes) + 1, dtype=np.intp)
    np.cumsum([len(node.entries) for node in nodes], out=starts[1:])
    return starts


def int_ids(ids) -> np.ndarray | None:
    """``ids`` as a 1-D ``int64`` array, or ``None`` if any is not a plain integer.

    The tree accepts any hashable id; only integer ids (what every
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


def _expand(starts: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The slots owned by the ``frontier`` nodes, in frontier order."""
    begin = starts[frontier]
    counts = starts[frontier + 1] - begin
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(begin - (ends - counts), counts) + np.arange(total)


class FlatSnapshot:
    """Read-only array form of the tree rooted at ``root``."""

    def __init__(self, root, dim: int):
        self.levels: list[_Level] = []
        nodes = [root]
        while nodes[0].level > 0:
            entries = [entry for node in nodes for entry in node.entries]
            self.levels.append(
                _Level(
                    _offsets(nodes),
                    np.array([entry.rect.lows for entry in entries]),
                    np.array([entry.rect.highs for entry in entries]),
                )
            )
            nodes = [entry.child for entry in entries]
        self.leaf_starts = _offsets(nodes)
        entries = [entry for node in nodes for entry in node.entries]
        ids = [entry.obj_id for entry in entries]
        as_ints = int_ids(ids)
        #: Whether every id is an integer; only then can ``points_of`` answer.
        self.integral = as_ints is not None
        #: Integer ids as ``int64``, anything else as the objects they are.
        self.ids = (
            as_ints
            if self.integral
            else np.fromiter(ids, dtype=object, count=len(ids))
        )
        self.points = np.array([entry.point for entry in entries]).reshape(
            len(entries), dim
        )
        if self.integral:
            # id → row lookup for points_of: binary search over sorted ids.
            self._by_id = np.argsort(self.ids, kind="stable")
            self._sorted_ids = self.ids[self._by_id]

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------

    def search_rect(self, rect: Rect, stats: IndexStats) -> list[int]:
        """Ids of the points inside the closed rectangle."""
        lows, highs = rect.lows, rect.highs
        rows, points = self._descend(
            lambda lo, hi: np.all((lo <= highs) & (lows <= hi), axis=1), stats
        )
        return self.ids[rows[rect.contains_points(points)]].tolist()

    def search_sphere(
        self, center: np.ndarray, radius: float, stats: IndexStats
    ) -> list[int]:
        """Ids of the points within ``radius`` of ``center``.

        Nodes are pruned on squared MINDIST against the same ``radius²``
        the points are tested with, so a point on the boundary is never
        lost to a rounding difference between the two tests.
        """
        r2 = radius * radius

        def near(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            gaps = np.maximum(lo - center, 0.0) + np.maximum(center - hi, 0.0)
            return np.einsum("ij,ij->i", gaps, gaps) <= r2

        rows, points = self._descend(near, stats)
        gaps = points - center
        inside = np.einsum("ij,ij->i", gaps, gaps) <= r2
        return self.ids[rows[inside]].tolist()

    def _descend(self, keep, stats: IndexStats) -> tuple[np.ndarray, np.ndarray]:
        """Sweep the internal levels; return the touched leaves' rows.

        ``keep(lows, highs)`` masks the child rectangles worth visiting.
        Rows (and the matching points) are in answer order.
        """
        frontier = np.zeros(1, dtype=np.intp)  # the root
        nodes = 1
        entries = 0
        for starts, lows, highs in self.levels:
            children = _expand(starts, frontier)
            entries += children.size
            frontier = children[keep(lows[children], highs[children])]
            nodes += frontier.size
        rows = _expand(self.leaf_starts, frontier[::-1])
        stats.node_accesses += nodes
        stats.leaf_accesses += int(frontier.size)
        stats.entries_examined += entries + rows.size
        return rows, self.points[rows]

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def points_of(self, wanted: np.ndarray) -> np.ndarray:
        """``(k, d)`` points of the integer ids ``wanted``, in that order.

        Only an ``integral`` snapshot can answer; the caller converts with
        :func:`int_ids` first.
        """
        if wanted.size == 0:
            return np.empty((0, self.points.shape[1]))
        if self.ids.size == 0:
            raise IndexError_(f"unknown object id {wanted.tolist()[0]!r}")
        slots = np.searchsorted(self._sorted_ids, wanted)
        np.minimum(slots, self.ids.size - 1, out=slots)
        rows = self._by_id[slots]
        unknown = self.ids[rows] != wanted
        if unknown.any():
            raise IndexError_(
                f"unknown object id {wanted[unknown].tolist()[0]!r}"
            )
        return self.points[rows]
