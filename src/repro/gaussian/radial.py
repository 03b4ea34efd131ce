"""Radial mass functions of the normalized Gaussian.

Two closed forms replace the paper's purely numerical table construction
(they are also used to *build* those tables; see :mod:`repro.catalog`):

1. The mass of N(0, I_d) inside the origin-centred ball of radius r is the
   χ_d CDF:  P(‖Z‖ ≤ r) = P(χ²_d ≤ r²) = γ(d/2, r²/2)/Γ(d/2).
   Inverting it gives r_θ (Definition 5 / Eq. 7) directly.

2. The mass of N(0, I_d) inside a ball of radius δ whose centre sits at
   distance α from the origin is the noncentral-χ² CDF
   P(χ²_d(α²) ≤ δ²) — exactly the integral of Eq. 21, so the BF catalog
   entry α(δ, θ) is a one-dimensional root-finding problem.

This module owns radius inversion for the whole package: :func:`r_theta`
and :func:`alpha_for_mass` are pure functions of scalars that memoize
themselves (a hit returns the bit-identical radius, so caching cannot
perturb any sampling stream) and :func:`rescaled_alpha` is the one
implementation of the Eqs. 29–31 rescaling.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import optimize, special

from repro.errors import GeometryError, IntegrationError

__all__ = [
    "radial_cdf",
    "radial_ppf",
    "r_theta",
    "offset_sphere_mass",
    "alpha_for_mass",
    "rescaled_alpha",
]

#: Entries kept by each radius memo.  Measured: a cold α root-find takes
#: ~57 µs (≈20 ``chndtr`` calls under ``brentq``), a χ-quantile ~2 µs, a
#: hit ~0.1 µs — and every query shape needs two α and one r_θ.
_MEMO_SIZE = 4096

#: Below this θ, :func:`r_theta` inverts the upper tail Q(d/2, r²/2) = 2θ
#: instead of the lower tail at 1 − 2θ: that difference rounds the tail
#: away (r_θ comes out ~1e-3 relative *too small* near θ = 5e-17, which
#: shrinks the θ-region and breaks no-false-dismissal, and 1 − 2θ is
#: exactly 1.0 for θ < 2⁻⁵⁴).  At and above the cut the two forms agree to
#: ~1e-12 and the lower-tail form is kept, so those radii stay bit-identical.
_TAIL_THETA = 1e-6


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise GeometryError(f"dimension must be a positive integer, got {dim!r}")


def radial_cdf(dim: int, radius: float | np.ndarray) -> float | np.ndarray:
    """Mass of the normalized Gaussian inside the ball of radius ``radius``.

    Vectorised over ``radius``.  This is the curve family plotted in
    Fig. 17 of the paper (one curve per dimension).
    """
    _check_dim(dim)
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0):
        raise GeometryError(f"radius must be >= 0, got {radius}")
    out = special.gammainc(dim / 2.0, r * r / 2.0)
    return float(out) if np.isscalar(radius) else out


def radial_ppf(dim: int, mass: float) -> float:
    """Radius of the origin-centred ball holding probability ``mass``."""
    _check_dim(dim)
    if not 0.0 <= mass < 1.0:
        raise GeometryError(f"mass must be in [0, 1), got {mass}")
    if mass == 0.0:
        return 0.0
    return float(math.sqrt(2.0 * special.gammaincinv(dim / 2.0, mass)))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def r_theta(dim: int, theta: float) -> float:
    """The θ-region radius r_θ of Definition 5: mass(r_θ) = 1 − 2θ.

    Requires 0 < θ < 1/2 (the paper's constraint; at θ = 1/2 the region
    degenerates to the centre point).
    """
    if not 0.0 < theta < 0.5:
        raise GeometryError(f"theta must satisfy 0 < theta < 1/2, got {theta}")
    if theta < _TAIL_THETA:
        _check_dim(dim)
        return float(math.sqrt(2.0 * special.gammainccinv(dim / 2.0, 2.0 * theta)))
    return radial_ppf(dim, 1.0 - 2.0 * theta)


def offset_sphere_mass(dim: int, delta: float, alpha: float) -> float:
    """Mass of N(0, I_d) in the δ-ball whose centre is at distance α.

    This is the left side of Eq. 21 with the sphere translated by α, and
    equals the noncentral-χ² CDF P(χ²_d(λ = α²) ≤ δ²).
    """
    _check_dim(dim)
    if delta < 0 or alpha < 0:
        raise GeometryError(f"delta and alpha must be >= 0, got {delta}, {alpha}")
    if delta == 0.0:
        return 0.0
    if alpha == 0.0:
        return radial_cdf(dim, delta)
    nc = alpha * alpha
    value = float(special.chndtr(delta * delta, dim, nc))
    if math.isnan(value):
        # Extreme noncentralities overflow scipy's series; fall back to the
        # normal approximation chi'2_d(nc) ~ N(d + nc, 2(d + 2 nc)), which
        # is excellent in exactly that regime.
        mean = dim + nc
        std = math.sqrt(2.0 * (dim + 2.0 * nc))
        value = float(special.ndtr((delta * delta - mean) / std))
    return value


def _log_mass_bound(dim: int, delta: float, alpha: float) -> float:
    """Chernoff upper bound on log P(χ²_d(α²) ≤ δ²), never -inf.

    For every t ≥ 0, P(X ≤ x) ≤ e^{tx}·E[e^{-tX}] with E[e^{-tX}] =
    (1 + 2t)^{-d/2}·exp(-α²t/(1 + 2t)); u = 1 + 2t* is the positive root
    of x·u² − d·u − α² = 0, which is ≥ 1 exactly when x is below the mean.
    """
    x, nc = delta * delta, alpha * alpha
    if x >= dim + nc:
        return 0.0
    u = (dim + math.sqrt(dim * dim + 4.0 * x * nc)) / (2.0 * x)
    t = 0.5 * (u - 1.0)
    return t * x - 0.5 * dim * math.log(u) - nc * t / u


@functools.lru_cache(maxsize=_MEMO_SIZE)
def alpha_for_mass(
    dim: int, delta: float, theta: float, prune: bool = False
) -> float | None:
    """Solve Eq. 21 for α: the centre offset at which the δ-ball holds mass θ.

    The mass is strictly decreasing in α, from ``radial_cdf(dim, delta)`` at
    α = 0 towards 0.  Returns ``None`` when even the origin-centred ball
    holds less than θ — the situation Section VI describes for ill-shaped
    high-dimensional Gaussians where no inner "hole" exists (for the α⊥
    lookup) or no object can qualify (for the α∥ lookup).

    ``special.chndtr`` flushes to 0 well before the mass does (near 1e-79
    for the paper's δ′ ≈ 2.6, near 1e-45 for a small δ′), so for a θ below
    that level the root lands where the flush starts — too small.  That
    errs to the safe side for an acceptance radius.  ``prune=True`` asks
    for a pruning radius, which must not fall short of the true root:
    where the mass has flushed to 0 at the root, it inverts
    :func:`_log_mass_bound` instead.  Every other root is the same float
    either way.
    """
    _check_dim(dim)
    if delta <= 0:
        raise GeometryError(f"delta must be > 0, got {delta}")
    if not 0.0 < theta < 1.0:
        raise GeometryError(f"theta must be in (0, 1), got {theta}")
    mass_at_origin = radial_cdf(dim, delta)
    if mass_at_origin < theta:
        return None
    if mass_at_origin == theta:
        return 0.0

    def deficit(alpha: float) -> float:
        return offset_sphere_mass(dim, delta, alpha) - theta

    # Bracket: grow the upper bound until the mass falls below theta.  The
    # mass at offset alpha decays like exp(-(alpha-delta)^2/2), so a few
    # doublings always suffice.
    hi = delta + 1.0
    for _ in range(200):
        if deficit(hi) < 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - defensive; mass provably reaches 0
        raise IntegrationError(
            f"could not bracket alpha for dim={dim}, delta={delta}, theta={theta}"
        )
    alpha = float(optimize.brentq(deficit, 0.0, hi, xtol=1e-12, rtol=1e-12))
    # The probe sits well past brentq's final bracket (~4e-12·α wide), so
    # a zero there means the flush starts at or just beyond the root.
    if not prune or offset_sphere_mass(dim, delta, alpha * (1.0 + 1e-9)) > 0.0:
        return alpha
    log_theta = math.log(theta)

    def log_excess(a: float) -> float:
        return _log_mass_bound(dim, delta, a) - log_theta

    while log_excess(hi) >= 0.0:
        hi *= 2.0
    return float(optimize.brentq(log_excess, 0.0, hi, xtol=1e-12, rtol=1e-12))


def rescaled_alpha(gaussian, lam: float, delta: float, theta: float, invert):
    """Eqs. 29–31: the world-unit offset radius under one bounding function.

    The spherical bounding function with precision eigenvalue ``lam``
    (λ∥ for pruning, λ⊥ for acceptance) turns PRQ(gaussian, δ, θ) into
    the normalized problem (√λ·δ, λ^{d/2}·√|Σ|·θ), whose offset scales
    back by 1/√λ.  ``invert(δ′, θ′)`` answers the normalized problem: a
    catalog's conservative lookup, or :func:`alpha_for_mass` for that side.
    ``None`` when no offset qualifies — in particular a scaled θ ≥ 1 no
    probability can reach: for the upper bound the result is provably
    empty, for the lower bound no inner hole exists (Eq. 37 > 1).
    """
    dim = gaussian.dim
    sqrt_det = math.exp(0.5 * gaussian.log_det_sigma)
    scaled_theta = lam ** (dim / 2.0) * sqrt_det * theta
    if scaled_theta >= 1.0:
        return None
    root = math.sqrt(lam)
    beta = invert(root * delta, scaled_theta)
    return None if beta is None else beta / root
