"""A from-scratch R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990).

This is the library's default Phase-1 index, standing in for the C
R*-tree the paper used.  It implements the full dynamic algorithm:

- **ChooseSubtree** — least overlap enlargement when children are leaves,
  least volume enlargement otherwise;
- **OverflowTreatment** — forced reinsertion of the 30 % of entries
  farthest from the node centre, once per level per insertion, before
  resorting to a split;
- **Split** — margin-driven axis choice + least-overlap distribution
  (:func:`repro.index.split.rstar_split`);
- **Delete** with tree condensation and orphan reinsertion;
- **STR / Hilbert bulk loading** (:mod:`repro.index.bulk`);
- rectangle and sphere range search as array sweeps over a flat snapshot
  of the tree (:mod:`repro.index.flat`), plus best-first k-NN and
  distance browsing over the same arrays.

A bulk-loaded tree *is* its snapshot: every read — range searches, k-NN,
browsing, ``get``, ``points_of``, ``ids``, ``len`` and the quality
metrics — reads its arrays, and the pointer tree is built from it, in its
entry order, only when insertion, deletion or a structure check first
needs one.

Statistics (node accesses, splits, reinsertions) accumulate in
``self.stats`` for the benchmark harness.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.base import SearchHits, SpatialIndex
from repro.index.flat import FlatSnapshot
from repro.index.split import rstar_split

__all__ = ["RStarTree"]

_ArrayLike = Sequence[float] | np.ndarray

#: Fraction of entries evicted by forced reinsertion (the R* paper's 30 %).
_REINSERT_FRACTION = 0.3


class _Entry:
    """One slot of a node: either (rect, child) or (rect, obj_id, point)."""

    __slots__ = ("rect", "child", "obj_id", "point")

    def __init__(self, rect: Rect, child=None, obj_id=None, point=None):
        self.rect = rect
        self.child = child
        self.obj_id = obj_id
        self.point = point

    @classmethod
    def for_object(cls, obj_id: int, point: np.ndarray) -> "_Entry":
        # Rect is immutable, so the degenerate rectangle shares the point
        # as both corners instead of copying it.
        return cls(Rect(point, point), obj_id=obj_id, point=point)

    @classmethod
    def for_child(cls, child: "_Node") -> "_Entry":
        return cls(child.mbr(), child=child)


class _Node:
    """A tree node; ``level`` 0 means leaf."""

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: list[_Entry] | None = None):
        self.level = level
        self.entries: list[_Entry] = entries if entries is not None else []

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> Rect:
        return Rect.union_of(e.rect for e in self.entries)


class RStarTree(SpatialIndex):
    """Dynamic R*-tree over d-dimensional points.

    Parameters
    ----------
    dim:
        Dimensionality of indexed points.
    max_entries:
        Node capacity M.  The default 50 approximates the paper's 1 KB
        pages holding 2-D entries.
    min_entries:
        Minimum fill m; defaults to ⌈0.4·M⌉ per the R* recommendation.
    """

    def __init__(self, dim: int, max_entries: int = 50, min_entries: int | None = None):
        super().__init__(dim)
        if max_entries < 4:
            raise IndexError_(f"max_entries must be >= 4, got {max_entries}")
        resolved_min = (
            min_entries if min_entries is not None else max(2, math.ceil(0.4 * max_entries))
        )
        if not 2 <= resolved_min <= max_entries // 2:
            raise IndexError_(
                f"min_entries must be in [2, max_entries/2], got {resolved_min}"
            )
        self.max_entries = int(max_entries)
        self.min_entries = int(resolved_min)
        # Pointer tree + id table (None until ``_root`` builds them from the
        # snapshot) and the snapshot (None from a mutation to the next search).
        self._tree: _Node | None = _Node(level=0)
        self._table: dict[int, np.ndarray] | None = {}
        self._flat: FlatSnapshot | None = None
        self._reinserted_levels: set[int] = set()
        # STR packing may legally leave trailing nodes under min fill; the
        # invariant checker skips fill-factor checks on packed trees.
        self._packed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def ids(self) -> list[int]:
        flat = self._flat
        return sorted(flat.ids.tolist() if flat is not None else self._points)

    def __len__(self) -> int:
        flat = self._flat
        return flat.ids.size if flat is not None else len(self._points)

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        flat = self._flat
        return len(flat.levels) + 1 if flat is not None else self._root.level + 1

    def get(self, obj_id: int) -> np.ndarray:
        flat = self._flat
        if flat is not None:
            return flat.points[flat.rows_of([obj_id])[0]]
        try:
            return self._points[obj_id]
        except KeyError:
            raise IndexError_(f"unknown object id {obj_id!r}") from None

    def points_of(self, ids) -> np.ndarray:
        flat = self._flat
        if flat is None:
            # Stale snapshot: a gather is never worth a rebuild.
            return super().points_of(ids)
        return flat.points[flat.rows_of(ids)]

    def _snapshot(self) -> FlatSnapshot:
        flat = self._flat
        if flat is None:
            # Concurrent first searches may each build one; they are
            # identical and the last assignment wins.
            flat = self._flat = _walk(self._root, self._dim)
        return flat

    @property
    def _root(self) -> _Node:
        if self._tree is None:
            # Leaf entries hold the snapshot's rows; node rects are the
            # children's unions, as the tree's own maintenance keeps them.
            flat = self._flat
            entries = [
                _Entry.for_object(obj_id, point)
                for obj_id, point in zip(flat.ids.tolist(), flat.points)
            ]
            nodes = _cut(entries, flat.leaf_starts, 0)
            for level, (starts, _, _) in enumerate(flat.levels[::-1], start=1):
                nodes = _cut([_Entry.for_child(node) for node in nodes], starts, level)
            self._table = {entry.obj_id: entry.point for entry in entries}
            self._tree = nodes[0]
        return self._tree

    @_root.setter
    def _root(self, node: _Node) -> None:
        self._tree = node

    @property
    def _points(self) -> dict[int, np.ndarray]:
        self._root  # noqa: B018 - builds the table along with the tree
        return self._table

    def node_count(self) -> int:
        # The root, plus one node per child slot of every internal level.
        return 1 + sum(level.lows.shape[0] for level in self._snapshot().levels)

    def quality_metrics(self) -> dict[str, float]:
        """Structure-quality numbers used by the bulk-loading ablation.

        Returns average node fill (fraction of capacity), total leaf MBR
        volume (dead space proxy), and total pairwise sibling-overlap
        volume at the leaf level (the quantity the R* split minimizes).
        """
        flat = self._snapshot()
        leaves = len(flat.levels)  # the leaves' depth
        starts = [level.starts for level in flat.levels] + [flat.leaf_starts]
        fills: list[float] = []
        leaf_volume = overlap = 0.0
        # (depth, node), depth-first and last child first: the pointer
        # tree's summation order, so every figure is the same float.
        stack = [(0, 0)]
        while stack:
            at, node = stack.pop()
            begin, end = starts[at][node], starts[at][node + 1]
            if at:
                fills.append(int(end - begin) / self.max_entries)
            if at == leaves:
                if end > begin:
                    box = Rect.bounding_points(flat.points[begin:end])
                    leaf_volume += box.volume()
                continue
            if at == leaves - 1:
                lows, highs = (side[begin:end] for side in flat.levels[at][1:])
                i, j = np.triu_indices(end - begin, 1)
                gaps = np.minimum(highs[i], highs[j]) - np.maximum(lows[i], lows[j])
                volumes = np.where((gaps < 0).any(axis=1), 0.0, gaps.prod(axis=1))
                for volume in volumes.tolist():
                    overlap += volume
            stack.extend((at + 1, child) for child in range(begin, end))
        return {
            "avg_fill": float(np.mean(fills)) if fills else 1.0,
            "leaf_volume": leaf_volume,
            "leaf_sibling_overlap": overlap,
        }

    def check_invariants(self) -> None:
        """Validate structural invariants; raises IndexError_ on violation.

        Checks: rect containment of children, level monotonicity, fill
        factors (root exempt), and that stored ids match leaf entries.
        """
        seen: set[int] = set()

        def visit(node: _Node, is_root: bool) -> None:
            count = len(node.entries)
            low = 1 if self._packed else self.min_entries
            if not is_root and not low <= count <= self.max_entries:
                raise IndexError_(
                    f"node at level {node.level} has {count} entries, "
                    f"outside [{low}, {self.max_entries}]"
                )
            if is_root and count > self.max_entries:
                raise IndexError_(f"root overflows with {count} entries")
            for entry in node.entries:
                if node.is_leaf:
                    if entry.obj_id is None or entry.point is None:
                        raise IndexError_("leaf entry missing object payload")
                    if entry.obj_id in seen:
                        raise IndexError_(f"duplicate id {entry.obj_id} in tree")
                    seen.add(entry.obj_id)
                else:
                    child = entry.child
                    if child is None:
                        raise IndexError_("internal entry missing child")
                    if child.level != node.level - 1:
                        raise IndexError_(
                            f"child level {child.level} under level {node.level}"
                        )
                    if child.entries and not entry.rect.contains_rect(child.mbr()):
                        raise IndexError_("entry rect does not cover child MBR")
                    visit(child, False)

        if self._root.entries:
            visit(self._root, True)
        if seen != set(self._points):
            raise IndexError_(
                f"tree ids and point table diverge: {len(seen)} vs {len(self._points)}"
            )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, obj_id: int, point: _ArrayLike) -> None:
        p = self._validate_point(point)
        if obj_id in self._points:
            raise IndexError_(f"duplicate object id {obj_id!r}")
        self._points[obj_id] = p
        self._flat = None
        self._reinserted_levels = set()
        self._insert_entry(_Entry.for_object(obj_id, p), target_level=0)

    def bulk_load(
        self, ids: Iterable[int], points: np.ndarray, *, method: str = "str"
    ) -> None:
        """Bulk load an empty tree.

        ``method`` selects the packing order: ``"str"`` (Sort-Tile-
        Recursive, the default) or ``"hilbert"`` (Hilbert-curve order).
        ``ids`` may be a 1-D integer array, which is never copied into a
        list.  The tree keeps one leaf-ordered copy of ``points``.
        """
        from repro.index.bulk import hilbert_levels, str_levels

        if method not in ("str", "hilbert"):
            raise IndexError_(
                f"method must be 'str' or 'hilbert', got {method!r}"
            )
        if len(self) != 0:
            raise IndexError_("bulk_load requires an empty tree")
        pts = np.asarray(points, dtype=float)
        ids = ids if isinstance(ids, np.ndarray) else list(ids)
        if pts.ndim != 2 or pts.shape[1] != self._dim:
            raise IndexError_(
                f"points must have shape (n, {self._dim}), got {pts.shape}"
            )
        if len(ids) != pts.shape[0]:
            raise IndexError_(f"got {len(ids)} ids for {pts.shape[0]} points")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            first = int(np.argmin(finite))
            bad = ids.tolist()[first] if isinstance(ids, np.ndarray) else ids[first]
            raise IndexError_(f"point for id {bad!r} is not finite")
        pack = str_levels if method == "str" else hilbert_levels
        self._flat = FlatSnapshot(ids, pts, pack(pts, self.max_entries))
        self._tree = self._table = None
        self._packed = True

    def _insert_entry(self, entry: _Entry, target_level: int) -> None:
        # Descend to the target level, remembering (parent, parent_entry).
        path: list[tuple[_Node, _Entry]] = []
        node = self._root
        while node.level > target_level:
            chosen = self._choose_subtree(node, entry.rect)
            path.append((node, chosen))
            node = chosen.child  # type: ignore[assignment]
        node.entries.append(entry)
        # Enlarge ancestor rectangles to cover the new entry.
        for _, parent_entry in path:
            parent_entry.rect = parent_entry.rect.union(entry.rect)
        self._handle_overflow(node, path)

    def _choose_subtree(self, node: _Node, rect: Rect) -> _Entry:
        children = node.entries
        lows = np.array([e.rect.lows for e in children])
        highs = np.array([e.rect.highs for e in children])
        volumes = np.prod(highs - lows, axis=1)
        union_lows = np.minimum(lows, rect.lows)
        union_highs = np.maximum(highs, rect.highs)
        enlargements = np.prod(union_highs - union_lows, axis=1) - volumes
        if node.level == 1:
            # Children are leaves: minimize overlap enlargement, then
            # volume enlargement, then volume (R* CS2).  Computed as a
            # pairwise (M, M, d) tensor; M is the node capacity, so this
            # stays small.
            pair_gap = np.clip(
                np.minimum(highs[:, None, :], highs[None, :, :])
                - np.maximum(lows[:, None, :], lows[None, :, :]),
                0.0,
                None,
            )
            overlap_before = np.prod(pair_gap, axis=2)
            np.fill_diagonal(overlap_before, 0.0)
            enlarged_gap = np.clip(
                np.minimum(union_highs[:, None, :], highs[None, :, :])
                - np.maximum(union_lows[:, None, :], lows[None, :, :]),
                0.0,
                None,
            )
            overlap_after = np.prod(enlarged_gap, axis=2)
            np.fill_diagonal(overlap_after, 0.0)
            overlap_growth = overlap_after.sum(axis=1) - overlap_before.sum(axis=1)
            best = min(
                range(len(children)),
                key=lambda i: (overlap_growth[i], enlargements[i], volumes[i]),
            )
            return children[best]
        # Children are internal: minimize volume enlargement, then volume.
        best = min(
            range(len(children)), key=lambda i: (enlargements[i], volumes[i])
        )
        return children[best]

    def _handle_overflow(self, node: _Node, path: list[tuple[_Node, _Entry]]) -> None:
        while len(node.entries) > self.max_entries:
            is_root = not path
            if not is_root and node.level not in self._reinserted_levels:
                self._reinserted_levels.add(node.level)
                self._force_reinsert(node, path)
                return
            sibling = self._split_node(node)
            self.stats.splits += 1
            if is_root:
                new_root = _Node(level=node.level + 1)
                new_root.entries = [_Entry.for_child(node), _Entry.for_child(sibling)]
                self._root = new_root
                return
            parent, parent_entry = path.pop()
            parent_entry.rect = node.mbr()
            parent.entries.append(_Entry.for_child(sibling))
            self._tighten_path(path)
            node = parent

    def _split_node(self, node: _Node) -> _Node:
        decision = rstar_split([e.rect for e in node.entries], self.min_entries)
        entries = node.entries
        node.entries = [entries[i] for i in decision.group_a]
        return _Node(node.level, [entries[i] for i in decision.group_b])

    def _force_reinsert(self, node: _Node, path: list[tuple[_Node, _Entry]]) -> None:
        center = node.mbr().center
        count = max(1, int(_REINSERT_FRACTION * len(node.entries)))
        by_distance = sorted(
            node.entries,
            key=lambda e: float(np.sum((e.rect.center - center) ** 2)),
        )
        keep, evicted = by_distance[:-count], by_distance[-count:]
        node.entries = keep
        # Shrink ancestor rects before reinserting ("close reinsert" order:
        # nearest evicted entry first).
        parent_path = list(path)
        if parent_path:
            _, parent_entry = parent_path[-1]
            parent_entry.rect = node.mbr()
            self._tighten_path(parent_path[:-1])
        self.stats.reinsertions += len(evicted)
        for entry in evicted:
            self._insert_entry(entry, target_level=node.level)

    def _tighten_path(self, path: list[tuple[_Node, _Entry]]) -> None:
        """Recompute exact rects bottom-up along a (node, entry) path."""
        for parent, parent_entry in reversed(path):
            child = parent_entry.child
            if child is not None and child.entries:
                parent_entry.rect = child.mbr()

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, obj_id: int) -> None:
        if obj_id not in self._points:
            raise IndexError_(f"unknown object id {obj_id!r}")
        point = self._points[obj_id]
        found = self._find_leaf(self._root, obj_id, point, [])
        if found is None:  # pragma: no cover - table/tree always agree
            raise IndexError_(f"id {obj_id!r} in table but not in tree")
        leaf, path = found
        self._flat = None
        leaf.entries = [e for e in leaf.entries if e.obj_id != obj_id]
        del self._points[obj_id]
        self._condense(leaf, path)

    def _find_leaf(
        self,
        node: _Node,
        obj_id: int,
        point: np.ndarray,
        path: list[tuple[_Node, _Entry]],
    ) -> tuple[_Node, list[tuple[_Node, _Entry]]] | None:
        if node.is_leaf:
            if any(e.obj_id == obj_id for e in node.entries):
                return node, path
            return None
        for entry in node.entries:
            if entry.rect.contains_point(point):
                found = self._find_leaf(
                    entry.child, obj_id, point, path + [(node, entry)]
                )
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node, path: list[tuple[_Node, _Entry]]) -> None:
        orphans: list[tuple[int, _Entry]] = []
        current = node
        current_path = list(path)
        while current_path:
            parent, parent_entry = current_path.pop()
            if len(current.entries) < self.min_entries:
                parent.entries.remove(parent_entry)
                orphans.extend((current.level, e) for e in current.entries)
            else:
                if current.entries:
                    parent_entry.rect = current.mbr()
            self._tighten_path(current_path)
            current = parent
        # Shrink the root when it is internal with a single child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child  # type: ignore[assignment]
        if not self._root.is_leaf and not self._root.entries:
            self._root = _Node(level=0)
        for level, entry in orphans:
            self._reinserted_levels = set()
            self._insert_entry(entry, target_level=level)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_search_rect(self, rect: Rect) -> SearchHits:
        self._validate_rect(rect)
        self.stats.queries += 1
        return self._snapshot().search_rect(rect, self.stats)

    def range_search_sphere(self, center: _ArrayLike, radius: float) -> list[int]:
        c = self._validate_point(center)
        if radius < 0:
            raise IndexError_(f"radius must be >= 0, got {radius}")
        self.stats.queries += 1
        return self._snapshot().search_sphere(c, radius, self.stats)

    def knn(self, point: _ArrayLike, k: int) -> list[tuple[int, float]]:
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        browser = self.nearest_iter(point)
        return list(itertools.islice(browser, k))

    def nearest_iter(self, point: _ArrayLike):
        """Distance browsing: yield ``(obj_id, distance)`` nearest-first.

        The classic incremental nearest-neighbour algorithm (Hjaltason &
        Samet) over the snapshot (:meth:`FlatSnapshot.nearest`).  Consuming
        k items costs the same as a k-NN query, and the iterator can keep
        going — callers that do not know k in advance stop exactly when a
        termination condition on the distance holds.
        """
        p = self._validate_point(point)
        self.stats.queries += 1
        yield from self._snapshot().nearest(p, self.stats)


def _cut(entries: list[_Entry], starts: np.ndarray, level: int) -> list[_Node]:
    bounds = starts.tolist()
    return [_Node(level, entries[a:b]) for a, b in zip(bounds, bounds[1:])]


def _walk(root: _Node, dim: int) -> FlatSnapshot:
    """The snapshot of a pointer tree, its nodes taken as they stand."""
    groupings, nodes = [], [root]
    while True:
        entries = [entry for node in nodes for entry in node.entries]
        groupings.insert(0, (np.arange(len(entries)), [len(n.entries) for n in nodes]))
        if nodes[0].is_leaf:
            break
        nodes = [entry.child for entry in entries]
    points = np.array([entry.point for entry in entries]).reshape(len(entries), dim)
    return FlatSnapshot([entry.obj_id for entry in entries], points, groupings)
