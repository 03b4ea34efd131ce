"""The (δ, θ) → α U-catalog used by the bounding-function strategy.

An entry (δ, θ, α) states: under the normalized Gaussian, the ball of
radius δ whose centre sits at distance α from the origin holds probability
mass exactly θ.  The BF strategy queries this table twice per query
(Eqs. 29–31) after rescaling by λ∥ or λ⊥.

When the exact entry is missing, the conservative substitutes of
Eqs. 32–33 apply:

- for the pruning radius α∥ we take the *smallest* tabulated α among
  entries with δ′ ≥ δ and θ′ ≤ θ — an over-estimate, so pruning keeps a
  superset of the true candidates;
- for the acceptance radius α⊥ we take the *largest* tabulated α among
  entries with δ′ ≤ δ and θ′ ≥ θ — an under-estimate, so acceptance
  without integration never admits a false positive.

``ExactBFLookup`` bypasses the table with the noncentral-χ² closed form —
this mirrors the paper's own experiments, which "computed accurate β∥ and
β⊥ values … instead of approximate values".
"""

from __future__ import annotations

import abc
import functools

import numpy as np

from repro.errors import CatalogError
from repro.gaussian import radial

__all__ = ["BFLookup", "ExactBFLookup", "BFCatalog", "alpha_radii"]


class BFLookup(abc.ABC):
    """Provider of offset radii α for the normalized Gaussian."""

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @abc.abstractmethod
    def alpha_upper(self, delta: float, theta: float) -> float | None:
        """α with mass(ball(α, δ)) <= θ, as small as available (pruning).

        ``None`` means even the origin-centred ball holds less than θ, so
        *no* location can qualify under the upper bounding function.
        """

    @abc.abstractmethod
    def alpha_lower(self, delta: float, theta: float) -> float | None:
        """α with mass(ball(α, δ)) >= θ, as large as available (acceptance).

        ``None`` means no inner acceptance hole exists (the 9-D situation
        of Section VI where (λ⊥)^{d/2}|Σ|^{1/2}·θ exceeds 1).
        """


class ExactBFLookup(BFLookup):
    """Closed-form lookup via the noncentral-χ² CDF (no table).

    Both bounds are the root of Eq. 21 itself, memoized process-wide by
    :func:`repro.gaussian.radial.alpha_for_mass` (the pruning side with
    ``prune=True``, which stays sound where ``chndtr`` underflows).
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise CatalogError(f"dimension must be >= 1, got {dim}")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def alpha_upper(self, delta: float, theta: float) -> float | None:
        if theta >= 1.0:
            return None
        return radial.alpha_for_mass(
            self._dim, float(delta), float(theta), prune=True
        )

    def alpha_lower(self, delta: float, theta: float) -> float | None:
        if theta >= 1.0:
            return None
        return radial.alpha_for_mass(self._dim, float(delta), float(theta))


class BFCatalog(BFLookup):
    """A finite (δ, θ, α) table with the conservative lookups of Eqs. 32–33.

    Entries are stored as parallel arrays.  Grid structure is not assumed;
    any consistent entry set works.
    """

    def __init__(self, dim: int, deltas, thetas, alphas):
        if dim < 1:
            raise CatalogError(f"dimension must be >= 1, got {dim}")
        delta_arr = np.asarray(deltas, dtype=float)
        theta_arr = np.asarray(thetas, dtype=float)
        alpha_arr = np.asarray(alphas, dtype=float)
        if not (delta_arr.shape == theta_arr.shape == alpha_arr.shape):
            raise CatalogError("deltas, thetas and alphas must be parallel arrays")
        if delta_arr.ndim != 1 or delta_arr.size == 0:
            raise CatalogError("catalog needs at least one (delta, theta, alpha) row")
        if np.any(delta_arr <= 0):
            raise CatalogError("deltas must be positive")
        if np.any((theta_arr <= 0) | (theta_arr >= 1)):
            raise CatalogError("thetas must lie in (0, 1)")
        if np.any(alpha_arr < 0):
            raise CatalogError("alphas must be >= 0")
        self._dim = int(dim)
        self._deltas = delta_arr
        self._thetas = theta_arr
        self._alphas = alpha_arr

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return self._deltas.size

    @property
    def deltas(self) -> np.ndarray:
        return self._deltas

    @property
    def thetas(self) -> np.ndarray:
        return self._thetas

    @property
    def alphas(self) -> np.ndarray:
        return self._alphas

    def alpha_upper(self, delta: float, theta: float) -> float | None:
        """Eq. 32: min α over entries with δ′ >= δ and θ′ <= θ."""
        self._validate_query(delta, theta)
        mask = (self._deltas >= delta) & (self._thetas <= theta)
        if not np.any(mask):
            return None
        return float(self._alphas[mask].min())

    def alpha_lower(self, delta: float, theta: float) -> float | None:
        """Eq. 33: max α over entries with δ′ <= δ and θ′ >= θ."""
        self._validate_query(delta, theta)
        mask = (self._deltas <= delta) & (self._thetas >= theta)
        if not np.any(mask):
            return None
        return float(self._alphas[mask].max())

    @staticmethod
    def _validate_query(delta: float, theta: float) -> None:
        if delta <= 0:
            raise CatalogError(f"delta must be > 0, got {delta}")
        if not 0.0 < theta < 1.0:
            raise CatalogError(f"theta must lie in (0, 1), got {theta}")

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def _tabulate(cls, dim: int, deltas, thetas, solve) -> "BFCatalog":
        """One row per (δ, θ) grid point for which ``solve(δ, θ)`` finds an α.

        Grid points without a solution (mass at the origin below θ) are
        skipped, matching the paper's observation that such entries simply
        do not exist in the table.
        """
        rows = [
            (delta, theta, alpha)
            for delta in np.asarray(deltas, dtype=float).tolist()
            for theta in np.asarray(thetas, dtype=float).tolist()
            if (alpha := solve(delta, theta)) is not None
        ]
        if not rows:
            raise CatalogError(
                "no (delta, theta) grid point admits an alpha; grid too extreme"
            )
        return cls(dim, *zip(*rows))

    @classmethod
    def build_analytic(cls, dim: int, deltas, thetas) -> "BFCatalog":
        """Tabulate α over the (δ, θ) product grid via the closed form."""
        return cls._tabulate(
            dim, deltas, thetas, functools.partial(radial.alpha_for_mass, dim)
        )

    @classmethod
    def build_monte_carlo(
        cls,
        dim: int,
        deltas,
        thetas,
        n_samples: int = 200_000,
        seed: int = 0,
        iterations: int = 60,
    ) -> "BFCatalog":
        """Paper-faithful builder: α by bisection on a Monte Carlo mass estimate.

        One fixed standard-normal sample set is shared by every grid point
        (common random numbers keep the empirical mass monotone in α, so
        bisection is well-behaved).
        """
        if n_samples < 1_000:
            raise CatalogError(f"n_samples too small to tabulate: {n_samples}")
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n_samples, dim))
        first_axis = samples[:, 0]
        norm_sq = np.einsum("ij,ij->i", samples, samples)

        def mass(delta: float, alpha: float) -> float:
            # ||z - alpha*e1||^2 = ||z||^2 - 2 alpha z1 + alpha^2
            inside = norm_sq - 2.0 * alpha * first_axis + alpha * alpha <= delta**2
            return float(np.count_nonzero(inside)) / n_samples

        def bisect(delta: float, theta: float) -> float | None:
            if mass(delta, 0.0) < theta:
                return None
            lo, hi = 0.0, delta + 1.0
            while mass(delta, hi) >= theta:
                hi *= 2.0
            for _ in range(iterations):
                mid = 0.5 * (lo + hi)
                if mass(delta, mid) >= theta:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        return cls._tabulate(dim, deltas, thetas, bisect)


def alpha_radii(
    gaussian, delta: float, theta: float, lookup: BFLookup | None = None
) -> tuple[float | None, float | None]:
    """The BF radii (α∥, α⊥) of PRQ(gaussian, δ, θ) in world units.

    Each is one :func:`repro.gaussian.radial.rescaled_alpha` (Eqs. 29–31)
    over ``lookup``, with λ = λ∥ (largest precision eigenvalue) for the
    pruning radius and λ = λ⊥ (smallest) for the acceptance radius.

    Returns ``(alpha_upper, alpha_lower)``:

    - ``alpha_upper is None`` — the result set is provably empty (even
      the upper bounding function cannot reach mass θ anywhere);
    - ``alpha_lower is None`` — no inner free-accept hole exists (the
      ill-shaped high-dimensional case of Section VI).

    Shared by :class:`repro.core.strategies.BoundingFunctionStrategy`
    and the engine's plan explanations, so the radii reported by
    ``repro explain`` are exactly the radii the filter executes with.
    """
    lookup = lookup or ExactBFLookup(gaussian.dim)
    if lookup.dim != gaussian.dim:
        raise CatalogError(
            f"BF lookup is for dimension {lookup.dim}, query has {gaussian.dim}"
        )
    return (
        radial.rescaled_alpha(
            gaussian, gaussian.lam_parallel, delta, theta, lookup.alpha_upper
        ),
        radial.rescaled_alpha(
            gaussian, gaussian.lam_perp, delta, theta, lookup.alpha_lower
        ),
    )
