"""Axis-aligned d-dimensional rectangles (minimum bounding rectangles).

``Rect`` is the workhorse shape of the library: R-tree nodes store them,
the RR strategy derives one from the θ-region (Property 2), and Phase 1 of
every strategy issues a rectangle range search.  Instances are immutable;
all mutating-looking operations return new rectangles.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, GeometryError

__all__ = ["Rect", "rows_between"]

_ArrayLike = Sequence[float] | np.ndarray


def rows_between(
    above: np.ndarray, below: np.ndarray, floor: np.ndarray, ceiling: np.ndarray
) -> np.ndarray:
    """Mask of the rows ``i`` with ``floor <= above[i]`` and
    ``below[i] <= ceiling`` in every column.

    Points inside a box are ``rows_between(points, points, lows, highs)``;
    boxes meeting a box are ``rows_between(highs, lows, box_lows,
    box_highs)``.  Tested column by column: ``all(axis=1)`` over a short
    trailing axis costs several times as much.
    """
    mask = (above[:, 0] >= floor[0]) & (below[:, 0] <= ceiling[0])
    for j in range(1, above.shape[1]):
        mask &= above[:, j] >= floor[j]
        mask &= below[:, j] <= ceiling[j]
    return mask


def _as_vector(values: _ArrayLike, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1:
        raise GeometryError(f"{name} must be a 1-D sequence, got shape {vec.shape}")
    if vec.size == 0:
        raise GeometryError(f"{name} must not be empty")
    if not np.isfinite(vec).all():
        raise GeometryError(f"{name} must be finite, got {vec}")
    return vec


class Rect:
    """An immutable axis-aligned rectangle ``[low_i, high_i]`` per dimension.

    Parameters
    ----------
    lows, highs:
        Coordinate-wise lower and upper bounds.  ``lows[i] <= highs[i]`` is
        required for every dimension; degenerate (zero-extent) rectangles
        are allowed because points are stored as such in the R-tree.
    """

    __slots__ = ("_lows", "_highs")

    def __init__(self, lows: _ArrayLike, highs: _ArrayLike):
        lows_vec = np.asarray(lows, dtype=float)
        highs_vec = np.asarray(highs, dtype=float)
        # One pass decides validity (a NaN fails ``<=``); the checks that
        # name what is wrong run only on the way to raising.
        if not (
            lows_vec.ndim == 1
            and lows_vec.size
            and lows_vec.shape == highs_vec.shape
            and (
                np.isfinite(lows_vec) & np.isfinite(highs_vec) & (lows_vec <= highs_vec)
            ).all()
        ):
            _as_vector(lows_vec, "lows")
            _as_vector(highs_vec, "highs")
            if lows_vec.shape != highs_vec.shape:
                raise DimensionMismatchError(lows_vec.size, highs_vec.size, "highs")
            raise GeometryError(
                f"every low must be <= the matching high, got lows={lows_vec}, "
                f"highs={highs_vec}"
            )
        lows_vec.setflags(write=False)
        highs_vec.setflags(write=False)
        self._lows = lows_vec
        self._highs = highs_vec

    @classmethod
    def _valid(cls, lows: np.ndarray, highs: np.ndarray) -> "Rect":
        """A rectangle over bounds already known valid: finite 1-D float
        arrays of one shape with ``lows <= highs``.  Skips the checks, so
        only combinations of valid rectangles may call it."""
        rect = object.__new__(cls)
        lows.setflags(write=False)
        highs.setflags(write=False)
        rect._lows = lows
        rect._highs = highs
        return rect

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_point(cls, point: _ArrayLike) -> "Rect":
        """Degenerate rectangle covering exactly one point."""
        vec = _as_vector(point, "point")
        return cls._valid(vec, vec.copy())

    @classmethod
    def from_center(cls, center: _ArrayLike, half_widths: _ArrayLike) -> "Rect":
        """Rectangle centred at ``center`` extending ``half_widths[i]`` each way.

        The corners are validated, once: a non-finite or empty input, or
        one that is not 1-D, makes non-finite, empty or non-1-D corners.
        """
        c = np.asarray(center, dtype=float)
        h = np.asarray(half_widths, dtype=float)
        if c.shape != h.shape:
            raise DimensionMismatchError(c.size, h.size, "half_widths")
        if (h < 0).any():
            raise GeometryError(f"half widths must be non-negative, got {h}")
        return cls(c - h, c + h)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle enclosing every rectangle in ``rects``."""
        rect_list = list(rects)
        if not rect_list:
            raise GeometryError("cannot take the union of zero rectangles")
        lows = np.minimum.reduce([r._lows for r in rect_list])
        highs = np.maximum.reduce([r._highs for r in rect_list])
        return cls._valid(lows, highs)

    @classmethod
    def bounding_points(cls, points: np.ndarray) -> "Rect":
        """Smallest rectangle enclosing the rows of a 2-D point array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise GeometryError(
                f"points must be a non-empty 2-D array, got shape {pts.shape}"
            )
        return cls(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def lows(self) -> np.ndarray:
        return self._lows

    @property
    def highs(self) -> np.ndarray:
        return self._highs

    @property
    def dim(self) -> int:
        return self._lows.size

    @property
    def center(self) -> np.ndarray:
        return (self._lows + self._highs) / 2.0

    @property
    def extents(self) -> np.ndarray:
        """Side length along each dimension."""
        return self._highs - self._lows

    def volume(self) -> float:
        """d-dimensional volume (area for d = 2)."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of side lengths — the R*-tree split criterion's perimeter proxy."""
        return float(np.sum(self.extents))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, point: _ArrayLike) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != self._lows.shape:
            raise DimensionMismatchError(self.dim, p.size, "point")
        return bool(np.all(p >= self._lows) and np.all(p <= self._highs))

    def contains_rect(self, other: "Rect") -> bool:
        self._check_dim(other)
        return bool(
            np.all(other._lows >= self._lows) and np.all(other._highs <= self._highs)
        )

    def intersects(self, other: "Rect") -> bool:
        self._check_dim(other)
        return bool(
            np.all(self._lows <= other._highs) and np.all(other._lows <= self._highs)
        )

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test for the rows of ``points``."""
        pts = np.asarray(points, dtype=float)
        return rows_between(pts, pts, self._lows, self._highs)

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        self._check_dim(other)
        return Rect._valid(
            np.minimum(self._lows, other._lows), np.maximum(self._highs, other._highs)
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap rectangle, or ``None`` when the rectangles are disjoint."""
        self._check_dim(other)
        lows = np.maximum(self._lows, other._lows)
        highs = np.minimum(self._highs, other._highs)
        if (lows > highs).any():
            return None
        return Rect._valid(lows, highs)

    def intersection_volume(self, other: "Rect") -> float:
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.volume()

    def enlargement(self, other: "Rect") -> float:
        """Volume increase needed to absorb ``other`` — ChooseSubtree metric."""
        return self.union(other).volume() - self.volume()

    def expand(self, amount: float) -> "Rect":
        """Dilate every face outward by ``amount`` (may be negative to shrink)."""
        if amount < 0 and np.any(self.extents + 2 * amount < 0):
            raise GeometryError(
                f"shrinking by {-amount} would invert the rectangle {self}"
            )
        return Rect(self._lows - amount, self._highs + amount)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def min_distance(self, point: _ArrayLike) -> float:
        """Euclidean distance from ``point`` to the nearest point of the rectangle.

        Zero when the point is inside.  This is the classic R-tree MINDIST.
        """
        p = np.asarray(point, dtype=float)
        if p.shape != self._lows.shape:
            raise DimensionMismatchError(self.dim, p.size, "point")
        deltas = np.maximum(self._lows - p, 0.0) + np.maximum(p - self._highs, 0.0)
        return float(np.linalg.norm(deltas))

    def max_distance(self, point: _ArrayLike) -> float:
        """Distance from ``point`` to the farthest corner of the rectangle."""
        p = np.asarray(point, dtype=float)
        if p.shape != self._lows.shape:
            raise DimensionMismatchError(self.dim, p.size, "point")
        deltas = np.maximum(np.abs(p - self._lows), np.abs(p - self._highs))
        return float(np.linalg.norm(deltas))

    def intersects_sphere(self, center: _ArrayLike, radius: float) -> bool:
        """True when the rectangle and the closed ball overlap."""
        return self.min_distance(center) <= radius

    # ------------------------------------------------------------------
    # Dunder support
    # ------------------------------------------------------------------

    def _check_dim(self, other: "Rect") -> None:
        if other.dim != self.dim:
            raise DimensionMismatchError(self.dim, other.dim, "rectangle")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(
            np.array_equal(self._lows, other._lows)
            and np.array_equal(self._highs, other._highs)
        )

    def __hash__(self) -> int:
        return hash((self._lows.tobytes(), self._highs.tobytes()))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        """Iterate per-dimension ``(low, high)`` pairs."""
        return iter(zip(self._lows.tolist(), self._highs.tolist()))

    def __repr__(self) -> str:
        pairs = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self)
        return f"Rect({pairs})"
