"""The d-dimensional Gaussian query-object distribution (Definition 1).

``Gaussian`` wraps a mean vector q and covariance Σ, decomposes Σ exactly
once, and exposes everything the strategies consume:

- density evaluation (Eq. 1) and exact sampling;
- the θ-region ellipsoid at a given Mahalanobis radius;
- the bounding-function parameters of Definition 6 — the paper decomposes
  Σ⁻¹ and takes λ∥ = min λᵢ(Σ⁻¹), λ⊥ = max λᵢ(Σ⁻¹), so in Σ-eigenvalue
  terms λ∥ = 1/λ_max(Σ) and λ⊥ = 1/λ_min(Σ);
- convolution/shift algebra used by the both-sides-uncertain extension.
"""

from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, GeometryError
from repro.geometry.ellipsoid import Ellipsoid
from repro.geometry.transforms import WhiteningTransform

__all__ = ["Gaussian"]

_ArrayLike = Sequence[float] | np.ndarray

_LOG_2PI = math.log(2.0 * math.pi)


class Gaussian:
    """An immutable multivariate normal distribution N(mean, sigma).

    Parameters
    ----------
    mean:
        Centre q of the distribution (the reported location of the query
        object).
    sigma:
        Symmetric positive-definite covariance matrix Σ.
    """

    __slots__ = ("_mean", "_sigma", "_whitening", "_log_det")

    def __init__(self, mean: _ArrayLike, sigma: np.ndarray):
        mean_vec = np.array(mean, dtype=float)
        if mean_vec.ndim != 1 or mean_vec.size == 0:
            raise GeometryError(f"mean must be 1-D, got shape {mean_vec.shape}")
        sigma_arr = np.asarray(sigma, dtype=float).copy()
        sigma_arr.setflags(write=False)
        # The one decomposition of Σ: eigenvalues, basis, every contour and
        # the OR box read this transform (which also write-protects the mean).
        self._whitening = WhiteningTransform(mean_vec, sigma_arr)
        self._mean = self._whitening.eigen.center
        self._sigma = sigma_arr
        self._log_det = float(np.sum(np.log(self.eigenvalues)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def isotropic(cls, mean: _ArrayLike, variance: float) -> "Gaussian":
        """Spherical Gaussian N(mean, variance·I)."""
        mean_vec = np.asarray(mean, dtype=float)
        if variance <= 0:
            raise GeometryError(f"variance must be > 0, got {variance}")
        return cls(mean_vec, variance * np.eye(mean_vec.size))

    @classmethod
    def standard(cls, dim: int) -> "Gaussian":
        """The normalized Gaussian p_norm of Definition 4: N(0, I)."""
        return cls(np.zeros(dim), np.eye(dim))

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, ridge: float = 0.0
    ) -> "Gaussian":
        """Maximum-likelihood fit with an optional ridge κ·I on the covariance.

        The 9-D pseudo-feedback experiment of Section VI builds Σ = Σ̃ + κI
        from k-NN sample vectors; pass the κ there via ``ridge``.
        """
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise GeometryError(
                f"need a 2-D array with >= 2 sample rows, got shape {pts.shape}"
            )
        mean = pts.mean(axis=0)
        centred = pts - mean
        cov = centred.T @ centred / pts.shape[0]
        if ridge < 0:
            raise GeometryError(f"ridge must be >= 0, got {ridge}")
        return cls(mean, cov + ridge * np.eye(pts.shape[1]))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def sigma(self) -> np.ndarray:
        return self._sigma

    @property
    def dim(self) -> int:
        return self._mean.size

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of Σ, descending."""
        return self._whitening.eigen.eigenvalues

    @property
    def basis(self) -> np.ndarray:
        """Eigenvector matrix E of Σ (columns, matching ``eigenvalues``)."""
        return self._whitening.eigen.basis

    @property
    def whitening(self) -> WhiteningTransform:
        return self._whitening

    @property
    def det_sigma(self) -> float:
        return math.exp(self._log_det)

    @property
    def log_det_sigma(self) -> float:
        return self._log_det

    @property
    def lam_parallel(self) -> float:
        """λ∥ of Eq. 9: the smallest eigenvalue of Σ⁻¹ (flattest direction)."""
        return 1.0 / float(self.eigenvalues[0])

    @property
    def lam_perp(self) -> float:
        """λ⊥ of Eq. 10: the largest eigenvalue of Σ⁻¹ (steepest direction)."""
        return 1.0 / float(self.eigenvalues[-1])

    @property
    def condition_number(self) -> float:
        """λ_max(Σ)/λ_min(Σ) — how far from spherical the distribution is."""
        eigenvalues = self.eigenvalues
        return float(eigenvalues[0] / eigenvalues[-1])

    # ------------------------------------------------------------------
    # Density and sampling
    # ------------------------------------------------------------------

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Log density at each row of ``points`` (Eq. 1)."""
        z = self._whitening.whiten(points)
        quad = np.einsum("ij,ij->i", z, z)
        return -0.5 * (quad + self.dim * _LOG_2PI + self._log_det)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf(points))

    def bounding_log_pdf(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log of the bounding functions (p∥, p⊥) of Definition 6 at ``points``.

        Both share the normalizing constant of p_q but use the isotropic
        exponents λ∥ and λ⊥; p⊥ ≤ p ≤ p∥ pointwise (Property 4).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        deltas = pts - self._mean
        sq = np.einsum("ij,ij->i", deltas, deltas)
        log_const = -0.5 * (self.dim * _LOG_2PI + self._log_det)
        return (
            log_const - 0.5 * self.lam_parallel * sq,
            log_const - 0.5 * self.lam_perp * sq,
        )

    def sample(
        self, n: int, rng: np.random.Generator, work: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact samples via the eigendecomposition (no Cholesky needed).

        A caller that draws repeatedly passes the same ``(2, n, dim)``
        float array as ``work``: the draw then allocates nothing and
        returns ``work[1]`` (same stream, same values).
        """
        if work is None:
            return self._whitening.unwhiten(rng.standard_normal((n, self.dim)))
        return self._whitening.unwhiten(rng.standard_normal(out=work[0]), work)

    def mahalanobis(self, points: np.ndarray) -> np.ndarray:
        return self._whitening.mahalanobis(points)

    # ------------------------------------------------------------------
    # Derived shapes
    # ------------------------------------------------------------------

    def contour(self, radius: float) -> Ellipsoid:
        """Equi-probability ellipsoid at Mahalanobis radius ``radius``.

        With ``radius = r_θ`` this is exactly the θ-region of Definition 3.
        """
        return Ellipsoid.from_transform(self._whitening.eigen, self._sigma, radius)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def moved_to(self, mean: _ArrayLike) -> "Gaussian":
        """The same Σ centred at ``mean``, sharing its one decomposition.

        What a moving query object needs on every position update: nothing
        that depends on Σ alone is recomputed.
        """
        moved = copy.copy(self)
        moved._whitening = self._whitening.moved_to(np.array(mean, dtype=float))
        moved._mean = moved._whitening.eigen.center
        return moved

    def shifted(self, offset: _ArrayLike) -> "Gaussian":
        """Distribution of x + offset."""
        off = np.asarray(offset, dtype=float)
        if off.shape != self._mean.shape:
            raise DimensionMismatchError(self.dim, off.size, "offset")
        return self.moved_to(self._mean + off)

    def convolve(self, other: "Gaussian") -> "Gaussian":
        """Distribution of the sum of two independent Gaussians.

        The both-sides-uncertain extension rests on this: if the query is
        N(q, Σ_q) and a target is N(o, Σ_o), the displacement x − y is
        N(q − o, Σ_q + Σ_o), so the range predicate reduces to the
        single-sided machinery.
        """
        if other.dim != self.dim:
            raise DimensionMismatchError(self.dim, other.dim, "other")
        return Gaussian(self._mean + other._mean, self._sigma + other._sigma)

    def marginal(self, dims: Sequence[int]) -> "Gaussian":
        """Marginal distribution over a subset of dimensions.

        For a Gaussian, marginalization just selects the matching rows and
        columns of the mean and covariance.
        """
        idx = self._validate_dims(dims)
        return Gaussian(self._mean[idx], self._sigma[np.ix_(idx, idx)])

    def condition(self, dims: Sequence[int], values: _ArrayLike) -> "Gaussian":
        """Distribution of the remaining dimensions given observed ones.

        Standard Gaussian conditioning: with the partition (a = unobserved,
        b = observed), x_a | x_b = v is Gaussian with mean
        μ_a + Σ_ab Σ_bb⁻¹ (v − μ_b) and covariance Σ_aa − Σ_ab Σ_bb⁻¹ Σ_ba.
        """
        observed = self._validate_dims(dims)
        v = np.asarray(values, dtype=float)
        if v.shape != (observed.size,):
            raise DimensionMismatchError(observed.size, v.size, "values")
        free = np.array(
            [i for i in range(self.dim) if i not in set(observed.tolist())]
        )
        if free.size == 0:
            raise GeometryError("cannot condition on every dimension")
        sigma_aa = self._sigma[np.ix_(free, free)]
        sigma_ab = self._sigma[np.ix_(free, observed)]
        sigma_bb = self._sigma[np.ix_(observed, observed)]
        gain = sigma_ab @ np.linalg.inv(sigma_bb)
        mean = self._mean[free] + gain @ (v - self._mean[observed])
        cov = sigma_aa - gain @ sigma_ab.T
        # Symmetrize against numerical drift before validation.
        return Gaussian(mean, (cov + cov.T) / 2.0)

    def _validate_dims(self, dims: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(dims), dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise GeometryError("dims must be a non-empty sequence of axes")
        if len(set(idx.tolist())) != idx.size:
            raise GeometryError(f"dims contains duplicates: {idx.tolist()}")
        if np.any(idx < 0) or np.any(idx >= self.dim):
            raise GeometryError(
                f"dims must lie in [0, {self.dim}), got {idx.tolist()}"
            )
        return idx

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gaussian):
            return NotImplemented
        return bool(
            np.array_equal(self._mean, other._mean)
            and np.array_equal(self._sigma, other._sigma)
        )

    def __hash__(self) -> int:
        return hash((self._mean.tobytes(), self._sigma.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Gaussian(dim={self.dim}, mean={np.round(self._mean, 4).tolist()}, "
            f"eigenvalues={np.round(self.eigenvalues, 4).tolist()})"
        )
