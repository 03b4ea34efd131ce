"""Eigenbasis and whitening transforms for Gaussian-shaped regions.

Property 3 of the paper rotates candidate points into the eigenbasis of the
covariance matrix so the oblique box of the OR strategy becomes
axis-aligned.  Whitening goes one step further and also rescales each axis
by 1/√λᵢ so the Gaussian becomes the normalized (unit) Gaussian — the
coordinate system in which the θ-region is a plain sphere of radius r_θ
(Property 1).
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, NotPositiveDefiniteError

__all__ = ["EigenTransform", "WhiteningTransform", "spectral_decomposition"]

_ArrayLike = Sequence[float] | np.ndarray

#: Relative tolerance used when checking symmetry of covariance matrices.
SYMMETRY_RTOL = 1e-8


def spectral_decomposition(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a covariance matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    *descending* order and eigenvectors as columns, so
    ``sigma == eigenvectors @ diag(eigenvalues) @ eigenvectors.T``.

    The returned arrays are read-only: a :class:`repro.gaussian.Gaussian`
    decomposes its Σ once and every shape derived from it shares them.

    Raises
    ------
    NotPositiveDefiniteError
        If ``sigma`` is not symmetric or has a non-positive eigenvalue.
    """
    mat = np.asarray(sigma, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotPositiveDefiniteError(
            f"covariance must be a square matrix, got shape {mat.shape}"
        )
    scale = max(1.0, float(np.abs(mat).max()))
    if not np.allclose(mat, mat.T, atol=SYMMETRY_RTOL * scale):
        raise NotPositiveDefiniteError("covariance matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    if eigenvalues[0] <= 0:
        raise NotPositiveDefiniteError(
            f"covariance matrix has non-positive eigenvalue {eigenvalues[0]:g}"
        )
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = np.ascontiguousarray(eigenvectors[:, order])
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return eigenvalues, eigenvectors


class EigenTransform:
    """Rotation into the eigenbasis of a covariance matrix.

    The paper writes ``x = E y`` (Eq. 19) where the columns of ``E`` are the
    eigenvectors of Σ⁻¹ (equivalently of Σ).  ``to_eigen`` computes
    ``y = Eᵀ (x − q)``: relative to the distribution centre and expressed in
    ellipsoid-axis coordinates.
    """

    __slots__ = ("_center", "_eigenvalues", "_basis")

    def __init__(self, center: _ArrayLike, sigma: np.ndarray):
        self._eigenvalues, self._basis = spectral_decomposition(sigma)
        self._place(center)

    def _place(self, center: _ArrayLike) -> None:
        c = np.asarray(center, dtype=float)
        if c.shape != self._eigenvalues.shape:
            raise DimensionMismatchError(self._eigenvalues.size, c.size, "center")
        c.setflags(write=False)
        self._center = c

    def moved_to(self, center: _ArrayLike) -> "EigenTransform":
        """The same eigenbasis about another centre; Σ is not decomposed again."""
        moved = copy.copy(self)
        moved._place(center)
        return moved

    @property
    def center(self) -> np.ndarray:
        return self._center

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of Σ in descending order (σ²-scale variances)."""
        return self._eigenvalues

    @property
    def basis(self) -> np.ndarray:
        """Matrix E whose columns are unit eigenvectors of Σ."""
        return self._basis

    @property
    def dim(self) -> int:
        return self._center.size

    def to_eigen(self, points: np.ndarray) -> np.ndarray:
        """Map world points (rows) to centred eigenbasis coordinates."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self._center) @ self._basis

    def to_world(
        self, points: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Inverse of :meth:`to_eigen`, written into ``out`` when given."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.matmul(pts, self._basis.T, out=out)
        out += self._center
        return out


class WhiteningTransform:
    """Affine map sending N(q, Σ) to the normalized Gaussian N(0, I).

    ``whiten`` computes ``z = Λ^{-1/2} Eᵀ (x − q)``; distances in z-space
    are Mahalanobis distances in world space, so the θ-region becomes the
    plain ball ‖z‖ ≤ r_θ (Property 1 of the paper).
    """

    __slots__ = ("_eigen", "_inv_sqrt", "_sqrt")

    def __init__(self, center: _ArrayLike, sigma: np.ndarray):
        self._eigen = EigenTransform(center, sigma)
        self._sqrt = np.sqrt(self._eigen.eigenvalues)
        self._inv_sqrt = 1.0 / self._sqrt

    def moved_to(self, center: _ArrayLike) -> "WhiteningTransform":
        """The same whitening about another centre, sharing the decomposition."""
        moved = copy.copy(self)
        moved._eigen = self._eigen.moved_to(center)
        return moved

    @property
    def eigen(self) -> EigenTransform:
        return self._eigen

    @property
    def dim(self) -> int:
        return self._eigen.dim

    def whiten(self, points: np.ndarray) -> np.ndarray:
        return self._eigen.to_eigen(points) * self._inv_sqrt

    def unwhiten(
        self, points: np.ndarray, work: np.ndarray | None = None
    ) -> np.ndarray:
        """Inverse of :meth:`whiten`.

        ``work``, a ``(2, n, d)`` float array, makes the call allocation
        free: ``work[0]`` takes the scaled points (it may be ``points``
        itself) and ``work[1]`` is returned.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if work is None:
            return self._eigen.to_world(pts * self._sqrt)
        return self._eigen.to_world(
            np.multiply(pts, self._sqrt, out=work[0]), out=work[1]
        )

    def mahalanobis(self, points: np.ndarray) -> np.ndarray:
        """Mahalanobis distance of each row of ``points`` from the centre."""
        return np.linalg.norm(self.whiten(points), axis=1)
