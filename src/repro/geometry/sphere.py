"""Closed d-dimensional balls.

The range predicate of a probabilistic range query integrates the query
density over the sphere of radius δ centred at each target object
(Eq. 3 of the paper); the BF strategy prunes and accepts with spheres of
radii α∥ and α⊥.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, GeometryError
from repro.geometry.mbr import Rect

__all__ = ["Sphere", "unit_ball_volume"]

_ArrayLike = Sequence[float] | np.ndarray


def unit_ball_volume(dim: int) -> float:
    """Volume of the d-dimensional unit ball, π^{d/2} / Γ(d/2 + 1)."""
    if dim < 1:
        raise GeometryError(f"dimension must be >= 1, got {dim}")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


class Sphere:
    """An immutable closed ball with a ``center`` and ``radius >= 0``."""

    __slots__ = ("_center", "_radius")

    def __init__(self, center: _ArrayLike, radius: float):
        c = np.asarray(center, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise GeometryError(f"center must be a 1-D sequence, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise GeometryError(f"center must be finite, got {c}")
        if not math.isfinite(radius) or radius < 0:
            raise GeometryError(f"radius must be finite and >= 0, got {radius}")
        c.setflags(write=False)
        self._center = c
        self._radius = float(radius)

    @property
    def center(self) -> np.ndarray:
        return self._center

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def dim(self) -> int:
        return self._center.size

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self._radius**self.dim

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, point: _ArrayLike) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != self._center.shape:
            raise DimensionMismatchError(self.dim, p.size, "point")
        return bool(np.dot(p - self._center, p - self._center) <= self._radius**2)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test for the rows of ``points``."""
        pts = np.asarray(points, dtype=float)
        deltas = pts - self._center
        return np.einsum("ij,ij->i", deltas, deltas) <= self._radius**2

    def intersects_sphere(self, other: "Sphere") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError(self.dim, other.dim, "sphere")
        gap = np.linalg.norm(self._center - other._center)
        return bool(gap <= self._radius + other._radius)

    def contains_rect(self, rect: Rect) -> bool:
        """True when every corner of ``rect`` lies inside the ball."""
        if rect.dim != self.dim:
            raise DimensionMismatchError(self.dim, rect.dim, "rect")
        return rect.max_distance(self._center) <= self._radius

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def bounding_rect(self) -> Rect:
        return Rect.from_center(self._center, np.full(self.dim, self._radius))

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform samples on the sphere's surface (for visual debugging)."""
        z = rng.standard_normal((n, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return self._center + self._radius * z

    def sample_interior(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform samples inside the ball (used by plain Monte Carlo)."""
        z = rng.standard_normal((n, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = self._radius * rng.random(n) ** (1.0 / self.dim)
        return self._center + z * radii[:, None]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sphere):
            return NotImplemented
        return bool(
            np.array_equal(self._center, other._center)
            and self._radius == other._radius
        )

    def __hash__(self) -> int:
        return hash((self._center.tobytes(), self._radius))

    def __repr__(self) -> str:
        coords = ", ".join(f"{c:g}" for c in self._center)
        return f"Sphere(center=({coords}), radius={self._radius:g})"
