"""The θ → r_θ U-catalog used by the RR and OR strategies.

``RThetaCatalog`` stores sorted (θ, r_θ) rows for one dimensionality.  The
conservative lookup of Algorithm 1 (line 4) returns the entry with the
largest θ\\* ≤ θ; since r_θ decreases in θ, the returned radius is an upper
bound on the true r_θ, so the search region can only grow — correctness is
retained at the cost of extra candidates (exactly the trade-off the paper
describes for θ values missing from the table).
"""

from __future__ import annotations

import abc
import bisect

import numpy as np

from repro.errors import CatalogError, CatalogLookupError
from repro.gaussian import radial

__all__ = ["RThetaLookup", "ExactRThetaLookup", "RThetaCatalog"]


class RThetaLookup(abc.ABC):
    """Provider of θ-region radii for a fixed dimensionality."""

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @abc.abstractmethod
    def r_theta(self, theta: float) -> float:
        """A radius r with mass(r) >= 1 − 2θ (equality when exact)."""


class ExactRThetaLookup(RThetaLookup):
    """Closed-form lookup via the χ-distribution quantile (no table).

    Memoized process-wide by :func:`repro.gaussian.radial.r_theta`.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise CatalogError(f"dimension must be >= 1, got {dim}")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def r_theta(self, theta: float) -> float:
        return radial.r_theta(self._dim, float(theta))


class RThetaCatalog(RThetaLookup):
    """A finite (θ, r_θ) table with conservative lookup.

    Parameters
    ----------
    dim:
        Dimensionality the radii were computed for.
    thetas, radii:
        Parallel sequences; thetas must be strictly increasing in (0, 1/2)
        and radii strictly decreasing (the mass function is monotone).
    """

    def __init__(self, dim: int, thetas, radii):
        if dim < 1:
            raise CatalogError(f"dimension must be >= 1, got {dim}")
        theta_arr = np.asarray(thetas, dtype=float)
        radius_arr = np.asarray(radii, dtype=float)
        if theta_arr.ndim != 1 or theta_arr.size == 0:
            raise CatalogError("catalog needs at least one (theta, r) row")
        if theta_arr.shape != radius_arr.shape:
            raise CatalogError(
                f"{theta_arr.size} thetas vs {radius_arr.size} radii"
            )
        if np.any(theta_arr <= 0) or np.any(theta_arr >= 0.5):
            raise CatalogError(f"thetas must lie in (0, 1/2), got {theta_arr}")
        if np.any(np.diff(theta_arr) <= 0):
            raise CatalogError("thetas must be strictly increasing")
        if np.any(np.diff(radius_arr) >= 0):
            raise CatalogError("radii must be strictly decreasing in theta")
        if np.any(radius_arr <= 0):
            raise CatalogError("radii must be positive")
        self._dim = int(dim)
        self._thetas = theta_arr
        self._radii = radius_arr

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def thetas(self) -> np.ndarray:
        return self._thetas

    @property
    def radii(self) -> np.ndarray:
        return self._radii

    def __len__(self) -> int:
        return self._thetas.size

    def r_theta(self, theta: float) -> float:
        """Radius of the largest tabulated θ\\* with θ\\* ≤ θ (conservative)."""
        if not 0.0 < theta < 0.5:
            raise CatalogError(f"theta must satisfy 0 < theta < 1/2, got {theta}")
        pos = bisect.bisect_right(self._thetas.tolist(), theta) - 1
        if pos < 0:
            raise CatalogLookupError(
                f"no catalog entry with theta <= {theta}; smallest tabulated "
                f"theta is {self._thetas[0]}"
            )
        return float(self._radii[pos])

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def build_analytic(cls, dim: int, thetas) -> "RThetaCatalog":
        """Exact radii from the χ quantile function."""
        theta_arr = np.asarray(thetas, dtype=float)
        radii = [radial.r_theta(dim, float(t)) for t in theta_arr]
        return cls(dim, theta_arr, radii)

    @classmethod
    def build_monte_carlo(
        cls, dim: int, thetas, n_samples: int = 200_000, seed: int = 0
    ) -> "RThetaCatalog":
        """Paper-faithful builder: radii as empirical ‖z‖ quantiles.

        Draws ``n_samples`` standard normal vectors once and reads each
        r_θ off the empirical distribution of their norms at level 1 − 2θ,
        rounded *up* to the next sample to stay conservative.
        """
        if n_samples < 1_000:
            raise CatalogError(f"n_samples too small to tabulate: {n_samples}")
        rng = np.random.default_rng(seed)
        norms = np.sort(
            np.linalg.norm(rng.standard_normal((n_samples, dim)), axis=1)
        )
        theta_arr = np.asarray(thetas, dtype=float)
        radii = []
        for theta in theta_arr:
            rank = min(n_samples - 1, int(np.ceil((1.0 - 2.0 * theta) * n_samples)))
            radii.append(float(norms[rank]))
        radius_arr = np.asarray(radii)
        # Monte Carlo noise can break strict monotonicity between close
        # thetas; enforce it by running a reverse cumulative maximum, which
        # only ever raises radii (still conservative).
        radius_arr = np.maximum.accumulate(radius_arr[::-1])[::-1]
        eps = 1e-12 * np.arange(radius_arr.size)[::-1]
        return cls(dim, theta_arr, radius_arr + eps)

    @classmethod
    def default_grid(cls, dim: int, resolution: int = 99) -> "RThetaCatalog":
        """An analytic catalog on a uniform θ grid in (0, 1/2)."""
        if resolution < 1:
            raise CatalogError(f"resolution must be >= 1, got {resolution}")
        thetas = np.linspace(0.0, 0.5, resolution + 2)[1:-1]
        return cls.build_analytic(dim, thetas)
