"""The array form of an R*-tree that every range search sweeps.

A bulk-loaded tree *is* this snapshot: :class:`FlatSnapshot` assembles
the search arrays from the packers' per-level index arrays
(:mod:`repro.index.bulk`) without building a node, entry or rectangle
per object.  A walk of a pointer tree that insertion or deletion changed
(:mod:`repro.index.rtree`) feeds the same assembly; there is one search
path.

Layout: nodes of a level are numbered breadth-first, so the children of
level ``L`` *are* the nodes of level ``L − 1`` in the same numbering.
Each internal level (top-down) holds ``starts`` — CSR offsets, node
``i`` owns child slots ``starts[i]:starts[i + 1]`` — and the child
rectangles ``lows`` / ``highs``.  ``leaf_starts`` does the same over
``ids`` / ``points``, the objects in leaf order (the tree's one,
read-only copy of the coordinates).

A search is level-synchronous: expand the frontier's child ranges, test
them in one vectorised pass, keep the survivors, and finish with one
containment test over the touched leaves' rows.  A rectangle search
returns its hits as :class:`~repro.index.base.SearchHits` — the ids and
points of the surviving rows, gathered once — which Phase 2 reads as
they are; nothing on the query path looks an id up again
(:meth:`FlatSnapshot.rows_of` serves ``get`` / ``points_of``).  Hits
come back as the depth-first stack traversal of the pointer tree
produces them (touched leaves right to left, entries forward within a
leaf), and ``IndexStats`` advances by the same amounts, once per level:
``node_accesses`` by every frontier size (root and leaves included),
``leaf_accesses`` by the leaf frontier, ``entries_examined`` by every
expanded slot.

Distance browsing (:meth:`FlatSnapshot.nearest`, behind ``knn`` and
``nearest_iter``) is the one read that is not level-synchronous: a
best-first heap over the same arrays, one vectorised distance pass per
expanded node.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect, rows_between
from repro.index.base import IndexStats, SearchHits, int_ids

__all__ = ["FlatSnapshot", "node_boxes"]


class _Level(NamedTuple):
    starts: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


def _starts(sizes) -> np.ndarray:
    """CSR offsets of consecutive runs of ``sizes``."""
    starts = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    return starts


def node_boxes(lows: np.ndarray, highs: np.ndarray, sizes):
    """Boxes of consecutive runs of ``sizes`` unit boxes; no run is empty."""
    firsts = _starts(sizes)[:-1]
    return (
        np.minimum.reduceat(lows, firsts, axis=0),
        np.maximum.reduceat(highs, firsts, axis=0),
    )


def _expand(starts: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The slots owned by the ``frontier`` nodes, in frontier order."""
    begin = starts[frontier]
    counts = starts[frontier + 1] - begin
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(begin - (ends - counts), counts) + np.arange(total)


class FlatSnapshot:
    """Read-only array form of the tree over ``ids`` / ``points`` that
    ``groupings`` describe.

    ``groupings`` lists the levels bottom-up, the last one the root alone.
    A grouping ``(order, sizes)`` says that node ``i`` of its level holds
    ``sizes[i]`` consecutive units of ``order`` — indexes of objects at the
    leaf level, of the level below's nodes above it — in the order they
    were made.  Node boxes are the exact bounds of what each node holds;
    the nodes are renumbered top-down into breadth-first order.
    """

    def __init__(self, ids, points: np.ndarray, groupings: list[tuple]):
        # Top-down, each level's nodes in breadth-first order and their offsets.
        offsets, frontier = [], np.zeros(1, dtype=np.intp)  # the root
        for order, sizes in groupings[::-1]:
            sizes = np.asarray(sizes)
            offsets.append(_starts(sizes[frontier]))
            frontier = order[_expand(_starts(sizes), frontier)]
        rows, self.leaf_starts = frontier, offsets[-1]
        self.points = points[rows]
        self.points.setflags(write=False)
        # Bottom-up, each node's box from its children's, all in final order.
        self.levels: list[_Level] = []
        lows = highs = self.points
        for starts, below in zip(offsets[-2::-1], offsets[:0:-1]):
            lows, highs = node_boxes(lows, highs, np.diff(below))
            self.levels.insert(0, _Level(starts, lows, highs))
        as_ints = int_ids(ids)
        #: Whether every id is an integer; then ids are ``int64`` and found
        #: by binary search, otherwise objects found through a table.
        self.integral = as_ints is not None
        if self.integral:
            self.ids = as_ints[rows]
            self._by_id = np.argsort(self.ids, kind="stable")
            self._sorted_ids = self.ids[self._by_id]
            repeated = self._sorted_ids[1:] == self._sorted_ids[:-1]
        else:
            self.ids = np.fromiter(ids, dtype=object, count=len(ids))[rows]
            repeated = [len(set(ids)) != len(ids)]
        if np.any(repeated):
            raise IndexError_("duplicate object ids")
        self._row_of: dict | None = None  # non-integer id → row, on first use

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------

    def search_rect(self, rect: Rect, stats: IndexStats) -> SearchHits:
        """The points inside the closed rectangle, with their ids."""
        lows, highs = rect.lows, rect.highs
        rows, points = self._descend(
            lambda lo, hi: rows_between(hi, lo, lows, highs), stats
        )
        inside = rows_between(points, points, lows, highs)
        return SearchHits(self.ids[rows[inside]], points[inside])

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

    def nearest(
        self, point: np.ndarray, stats: IndexStats
    ) -> Iterator[tuple[object, float]]:
        """Yield ``(id, distance)`` nearest first, for as long as asked.

        Best-first over nodes and objects (Hjaltason & Samet), keyed on
        MINDIST plus a push counter; a node pushes its slots in slot order
        and counts one node (and leaf) access and an examined entry per
        slot.  A stacked ``matmul`` takes one dot product per row, so each
        distance is ``np.linalg.norm`` of its gap bit for bit.
        """
        depth = len(self.levels)  # the leaves'; objects sit one below
        counter = itertools.count()
        heap = [(0.0, next(counter), 0, 0)]  # (distance, tie, depth, node | id)
        while heap:
            distance, _, at, item = heapq.heappop(heap)
            if at > depth:
                yield item, distance
                continue
            stats.node_accesses += 1
            if at == depth:
                stats.leaf_accesses += 1
                begin, end = self.leaf_starts[item], self.leaf_starts[item + 1]
                gaps = self.points[begin:end] - point
                children = self.ids[begin:end].tolist()
            else:
                starts, lows, highs = self.levels[at]
                begin, end = starts[item], starts[item + 1]
                gaps = np.maximum(lows[begin:end] - point, 0.0) + np.maximum(
                    point - highs[begin:end], 0.0
                )
                children = range(begin, end)
            stats.entries_examined += int(end - begin)
            distances = np.sqrt(gaps[:, None, :] @ gaps[:, :, None]).ravel()
            for child, gap in zip(children, distances.tolist()):
                heapq.heappush(heap, (gap, next(counter), at + 1, child))

    def _descend(self, keep, stats: IndexStats) -> tuple[np.ndarray, np.ndarray]:
        """Sweep the internal levels; return the touched leaves' rows.

        ``keep(lows, highs)`` masks the child rectangles worth visiting.
        Rows (and the matching points) are in answer order.
        """
        frontier = np.zeros(1, dtype=np.intp)  # the root
        nodes, entries = 1, 0
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
    # Lookups
    # ------------------------------------------------------------------

    def rows_of(self, ids) -> np.ndarray:
        """Rows of ``ids`` in ``self.ids`` / ``self.points``, in order."""
        ids = ids if isinstance(ids, (list, tuple, np.ndarray)) else list(ids)
        if len(ids) == 0:
            return np.zeros(0, dtype=np.intp)
        if not self.integral:
            if self._row_of is None:
                self._row_of = {key: row for row, key in enumerate(self.ids.tolist())}
            try:
                return np.fromiter(map(self._row_of.__getitem__, ids), dtype=np.intp)
            except KeyError as missing:
                raise IndexError_(f"unknown object id {missing.args[0]!r}") from None
        wanted = int_ids(ids)
        if wanted is None:
            bad = next(obj_id for obj_id in ids if int_ids([obj_id]) is None)
            raise IndexError_(f"unknown object id {bad!r}")
        if self.ids.size == 0:
            raise IndexError_(f"unknown object id {wanted.tolist()[0]!r}")
        slots = np.searchsorted(self._sorted_ids, wanted)
        np.minimum(slots, self.ids.size - 1, out=slots)
        rows = self._by_id[slots]
        unknown = self.ids[rows] != wanted
        if unknown.any():
            raise IndexError_(f"unknown object id {wanted[unknown].tolist()[0]!r}")
        return rows
