"""Covariance-shaped ellipsoids (the θ-regions of Definition 3).

A θ-region is the set ``(x − q)ᵀ Σ⁻¹ (x − q) ≤ r_θ²``: the equi-probability
contour of the query Gaussian that encloses probability mass 1 − 2θ.
``Ellipsoid`` stores the centre, covariance and Mahalanobis radius and
exposes the two derived shapes the strategies need — the tight axis-aligned
bounding box of Property 2 and the principal semi-axes used by the oblique
strategy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, GeometryError
from repro.geometry.mbr import Rect
from repro.geometry.transforms import EigenTransform

__all__ = ["Ellipsoid"]

_ArrayLike = Sequence[float] | np.ndarray


class Ellipsoid:
    """The set of points with Mahalanobis distance <= ``radius`` from ``center``.

    Parameters
    ----------
    center:
        Centre q of the ellipsoid.
    sigma:
        Symmetric positive-definite shape matrix Σ.  The ellipsoid is
        ``(x − q)ᵀ Σ⁻¹ (x − q) ≤ radius²`` — for a Gaussian N(q, Σ) this is
        the contour at Mahalanobis radius ``radius``.
    radius:
        Mahalanobis radius r ≥ 0 (``r_θ`` when used as a θ-region).
    """

    __slots__ = ("_transform", "_sigma", "_radius")

    def __init__(self, center: _ArrayLike, sigma: np.ndarray, radius: float):
        sigma_arr = np.asarray(sigma, dtype=float).copy()
        sigma_arr.setflags(write=False)
        self._assemble(EigenTransform(center, sigma_arr), sigma_arr, radius)

    @classmethod
    def from_transform(
        cls, transform: EigenTransform, sigma: np.ndarray, radius: float
    ) -> "Ellipsoid":
        """The ellipsoid of a Σ that is already decomposed.

        ``transform`` and the read-only ``sigma`` it was decomposed from
        are shared, not copied — how :meth:`repro.gaussian.Gaussian.contour`
        and :meth:`scaled` build ellipsoids without touching ``eigh``.
        """
        ellipsoid = cls.__new__(cls)
        ellipsoid._assemble(transform, sigma, radius)
        return ellipsoid

    def _assemble(
        self, transform: EigenTransform, sigma: np.ndarray, radius: float
    ) -> None:
        if not np.isfinite(radius) or radius < 0:
            raise GeometryError(f"radius must be finite and >= 0, got {radius}")
        self._transform = transform
        self._sigma = sigma
        self._radius = float(radius)

    @property
    def center(self) -> np.ndarray:
        return self._transform.center

    @property
    def sigma(self) -> np.ndarray:
        return self._sigma

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def dim(self) -> int:
        return self._transform.dim

    @property
    def transform(self) -> EigenTransform:
        return self._transform

    @property
    def semi_axes(self) -> np.ndarray:
        """Lengths of the principal semi-axes, descending: r·√λᵢ."""
        return self._radius * np.sqrt(self._transform.eigenvalues)

    def volume(self) -> float:
        """Volume of the ellipsoid: V_d · r^d · √|Σ|."""
        from repro.geometry.sphere import unit_ball_volume

        det = float(np.prod(self._transform.eigenvalues))
        return unit_ball_volume(self.dim) * self._radius**self.dim * np.sqrt(det)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def mahalanobis(self, points: np.ndarray) -> np.ndarray:
        """Mahalanobis distance of each row of ``points`` from the centre."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(self.dim, pts.shape[1], "points")
        # In the eigenbasis Σ⁻¹ is diag(1/λ): no inverse is ever formed.
        inv_sqrt = 1.0 / np.sqrt(self._transform.eigenvalues)
        return np.linalg.norm(self._transform.to_eigen(pts) * inv_sqrt, axis=1)

    def contains_point(self, point: _ArrayLike) -> bool:
        return bool(self.mahalanobis(np.asarray(point, dtype=float))[0] <= self._radius)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        return self.mahalanobis(points) <= self._radius

    # ------------------------------------------------------------------
    # Derived shapes
    # ------------------------------------------------------------------

    def distance_to_surface(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each row of ``points`` to the ellipsoid.

        Zero for points inside or on the surface.  Exterior distances are
        computed with the classical Lagrange parametrization: in the
        eigenbasis with semi-axes aᵢ, the closest surface point to y is
        xᵢ = aᵢ²yᵢ/(t + aᵢ²) where t >= 0 solves
        Σ aᵢ²yᵢ²/(t + aᵢ²)² = 1, found here by bracketed bisection
        (robust for any axis ratio; ~60 iterations give full double
        precision).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(self.dim, pts.shape[1], "points")
        if self._radius == 0.0:
            return np.linalg.norm(pts - self.center, axis=1)
        y = self._transform.to_eigen(pts)  # centred eigen coordinates
        axes_sq = (self.semi_axes**2)[None, :]
        inside = np.sum(y * y / axes_sq, axis=1) <= 1.0
        distances = np.zeros(pts.shape[0])
        exterior = ~inside
        if not np.any(exterior):
            return distances
        y_out = y[exterior]

        def constraint(t: np.ndarray) -> np.ndarray:
            # g(t) = sum a_i^2 y_i^2 / (t + a_i^2)^2 - 1, decreasing in t.
            return (
                np.sum(axes_sq * y_out**2 / (t[:, None] + axes_sq) ** 2, axis=1)
                - 1.0
            )

        lo = np.zeros(y_out.shape[0])
        # Upper bracket: g(t) < 1 once t >= a_max * ||y|| (then each term
        # <= a_i^2 y_i^2 / t^2 and the sum <= (a_max ||y|| / t)^2 <= 1).
        hi = float(self.semi_axes[0]) * np.linalg.norm(y_out, axis=1) + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_low = constraint(mid) > 0.0
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        t = 0.5 * (lo + hi)
        gaps = t[:, None] * y_out / (t[:, None] + axes_sq)
        distances[exterior] = np.linalg.norm(gaps, axis=1)
        return distances

    def bounding_rect(self) -> Rect:
        """Tight axis-aligned bounding box (Property 2): w_i = σ_i · r.

        σ_i = √(Σ)_{ii} is the marginal standard deviation along axis i —
        *not* the i-th eigenvalue — which is what makes the box tight for
        correlated covariances.
        """
        half_widths = np.sqrt(np.diag(self._sigma)) * self._radius
        return Rect.from_center(self.center, half_widths)

    def scaled(self, radius: float) -> "Ellipsoid":
        """Same centre and shape at a different Mahalanobis radius."""
        return Ellipsoid.from_transform(self._transform, self._sigma, radius)

    def __repr__(self) -> str:
        return (
            f"Ellipsoid(dim={self.dim}, radius={self._radius:g}, "
            f"semi_axes={np.round(self.semi_axes, 4).tolist()})"
        )
