"""Compiled hot kernels with a NumPy fallback, selected at import time.

The Phase-2 filter classifiers and the Phase-3 probability cascade spend
nearly all their time in a handful of small numeric blocks.  This package
provides two interchangeable backends for them:

- ``c`` — a shared library built from ``_kernels.c`` at first import
  (content-hash cached, see :mod:`repro.kernels.build`) and called
  through :mod:`ctypes`;
- ``numpy`` — :mod:`repro.kernels.fallback`, pure NumPy/SciPy (the
  geometry kernels reuse scratch arenas), always available.

The χ² sandwich (``chi2_sandwich_block`` and ``chi2_sandwich_block_f32``)
has one body on both backends, SciPy's noncentral-χ² CDF: a compiled
twin of it was not faster.

Selection happens once at import: the C backend is used when it compiles
and loads, unless ``REPRO_NO_JIT=1`` (or any value other than ``0``) is
set, which pins the NumPy fallback for the whole process.  ``backend()``
and ``kernel_table()`` report what was chosen.

Soundness contract: the probability kernels return ``[lower, upper]``
bounds that must *contain* the true probability.  The compiled Ruben
kernel widens its bounds by a computed numerical-error allowance plus a
fixed epsilon, so its bounds can be marginally looser than the
fallback's but never unsound; the sandwich replaces a NaN from SciPy by
the trivial bound (0 below, 1 above).
"""

from __future__ import annotations

import os

import numpy as np
from scipy import special

from repro.kernels import fallback
from repro.kernels.build import load_library

__all__ = [
    "BACKEND",
    "backend",
    "bf_classify",
    "chi2_sandwich_block",
    "chi2_sandwich_block_f32",
    "kernel_table",
    "minkowski_contains",
    "oblique_contains",
    "ruben_block",
    "squared_distance_noncentralities",
]

#: Fixed soundness margin added to compiled probability bounds on top of
#: the per-value error estimate (covers incomplete-gamma evaluation error).
_WIDEN = 1e-12

_NO_JIT = os.environ.get("REPRO_NO_JIT", "").strip().lower() not in {
    "", "0", "false",
}
_LIB = None if _NO_JIT else load_library()

#: Active backend: ``"c"`` or ``"numpy"``.
BACKEND: str = "c" if _LIB is not None else "numpy"


def backend() -> str:
    """Name of the backend selected at import time."""
    return BACKEND


def kernel_table() -> list[dict[str, str]]:
    """Per-kernel backend report (for ``repro kernels`` and tests)."""
    return [
        {"kernel": "squared_distance_noncentralities", "backend": BACKEND},
        {"kernel": "chi2_sandwich_block", "backend": "scipy"},
        {"kernel": "chi2_sandwich_block_f32", "backend": "scipy"},
        {"kernel": "ruben_block", "backend": BACKEND},
        {"kernel": "minkowski_contains", "backend": BACKEND},
        {"kernel": "oblique_contains", "backend": BACKEND},
        {"kernel": "bf_classify", "backend": BACKEND},
    ]


def _c64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


# ----------------------------------------------------------------------
# Quadratic-form kernels
# ----------------------------------------------------------------------


def squared_distance_noncentralities(
    mean: np.ndarray,
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Per-eigendirection noncentralities ((mean − pᵢ)ᵀE)ⱼ² / λⱼ."""
    if _LIB is None:
        return fallback.squared_distance_noncentralities(
            mean, basis, eigenvalues, points
        )
    pts = _c64(np.atleast_2d(points))
    m, d = pts.shape
    out = np.empty((m, d))
    if m:
        mean = _c64(mean)
        basis = _c64(basis)
        eig = _c64(eigenvalues)
        _LIB.repro_sqdist_spectrum(
            m, d, _ptr(mean), _ptr(basis), _ptr(eig), _ptr(pts), _ptr(out)
        )
    return out


def chi2_sandwich_block(
    x: float,
    df: float,
    nc_totals: np.ndarray,
    lam_min: float,
    lam_max: float,
) -> np.ndarray:
    """(m, 2) sandwich bounds λ_min·χ² ≤ Q ≤ λ_max·χ² per candidate.

    Row i is [P(χ²_df(ncᵢ) ≤ x/λ_max), P(χ²_df(ncᵢ) ≤ x/λ_min)] from
    SciPy's ``chndtr`` (``chdtr`` where ncᵢ = 0).  ``chndtr`` returns NaN
    for some huge arguments (x/λ and nc near 1e11); such a bound reads 0
    below and 1 above, which is trivially sound.
    """
    nc_totals = np.asarray(nc_totals, dtype=float)
    bounds = np.zeros((nc_totals.size, 2))
    if x <= 0:
        return bounds
    noncentral = nc_totals > 0
    if np.any(noncentral):
        nc = nc_totals[noncentral]
        bounds[noncentral, 0] = special.chndtr(x / lam_max, df, nc)
        bounds[noncentral, 1] = special.chndtr(x / lam_min, df, nc)
    if not np.all(noncentral):
        central = ~noncentral
        bounds[central, 0] = special.chdtr(df, x / lam_max)
        bounds[central, 1] = special.chdtr(df, x / lam_min)
    bounds[np.isnan(bounds[:, 0]), 0] = 0.0
    bounds[np.isnan(bounds[:, 1]), 1] = 1.0
    return bounds


def chi2_sandwich_block_f32(
    mean: np.ndarray,
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    points: np.ndarray,
    x: float,
    df: float,
    lam_min: float,
    lam_max: float,
) -> np.ndarray:
    """Sandwich bounds straight from an ``(m, d)`` block of points.

    The float64 pipeline: the NumPy noncentralities summed per row, then
    :func:`chi2_sandwich_block` — the rows
    :func:`repro.gaussian.quadform.chi2_sandwich_bounds_block` returns, up
    to the rounding of the compiled noncentralities.  The name is
    historical; it stays exported because ``benchmarks/e2e/trace.py``
    traces it, and ``benchmarks/e2e/selftest.py`` and
    ``benchmarks/e2e_smoke.py`` require every traced kernel to resolve.
    """
    ncs = fallback.squared_distance_noncentralities(
        _c64(mean), _c64(basis), _c64(eigenvalues), _c64(np.atleast_2d(points))
    )
    return chi2_sandwich_block(x, df, ncs.sum(axis=1), lam_min, lam_max)


def ruben_block(
    weights: np.ndarray,
    dofs: np.ndarray,
    noncentralities: np.ndarray,
    x: float,
    *,
    theta: float | None = None,
    tol: float = 1e-12,
    max_terms: int = 10_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Ruben series over a block of candidates sharing one spectrum.

    ``noncentralities`` is an ``(m, d)`` block — one row per candidate —
    while ``weights``/``dofs`` (shape ``(d,)``) are shared, as produced by
    :meth:`repro.gaussian.quadform.GaussianQuadraticForm.squared_distance_spectrum`.
    Each candidate's mixture weights a_k come from d pairs of running
    sums (derived above ``repro_ruben_block`` in ``_kernels.c``), so a
    term costs O(d) whatever its index.  The expansion parameter β, the
    ratios γ_j = 1 − β/λ_j and the incomplete-gamma table
    gammainc((ρ+2k)/2, x/2β) depend on the spectrum and k only and are
    shared; everything else is per row, so a row's ``(lower, upper, ok)``
    does not depend on which block it arrives in.

    Returns ``(lower, upper, ok)``: rigorous per-candidate bounds
    [partial sum, partial sum + remaining-mass bound] on P(Q ≤ x) at each
    candidate's stopping point, and ``ok=False`` where ``max_terms`` terms
    did not decide the row; its bounds are then sound but wide, and the
    caller falls back to other bounds.  No leading weight is too small:
    each row carries its weights on its own power-of-two scale (argued
    above ``repro_ruben_block`` in ``_kernels.c``), so a row far outside
    the ball runs its series like any other.

    Truncation is decision-aware: with ``theta`` given, a candidate stops
    as soon as its [lower, upper] interval excludes θ; without it (or for
    genuinely borderline candidates) it stops once the interval is
    narrower than ``tol``.

    The evaluation runs on the compiled backend when available and on the
    NumPy fallback (the same recurrence over ``(rows, d)`` arrays)
    otherwise; the compiled path may return marginally wider — never
    unsound — bounds.
    """
    if _LIB is None:
        return fallback.ruben_block(
            weights, dofs, noncentralities, x,
            theta=theta, tol=tol, max_terms=max_terms,
        )
    lam = _c64(weights)
    h = _c64(dofs)
    ncs = _c64(np.atleast_2d(noncentralities))
    m, d = ncs.shape
    lower = np.zeros(m)
    upper = np.ones(m)
    ok = np.ones(m, dtype=np.uint8)
    if m:
        # Widen below tol so tol-convergence stays reachable while still
        # covering floating-point drift in the series recursion.
        widen = min(_WIDEN if theta is None else 1e-10, 0.25 * tol)
        rc = _LIB.repro_ruben_block(
            d, m, _ptr(lam), _ptr(h), _ptr(ncs), float(x),
            -1.0 if theta is None else float(theta),
            float(tol), int(max_terms), widen,
            _ptr(lower), _ptr(upper), _ptr(ok),
        )
        if rc != 0:  # allocation failure: the fallback needs no C heap
            return fallback.ruben_block(
                weights, dofs, noncentralities, x,
                theta=theta, tol=tol, max_terms=max_terms,
            )
    return lower, upper, ok.astype(bool)


# ----------------------------------------------------------------------
# Phase-2 classification kernels
# ----------------------------------------------------------------------


def minkowski_contains(
    points: np.ndarray, lows: np.ndarray, highs: np.ndarray, delta: float
) -> np.ndarray:
    """Boolean mask: point within δ of the [lows, highs] rectangle."""
    if _LIB is None:
        return fallback.minkowski_contains(points, lows, highs, delta)
    pts = _c64(np.atleast_2d(points))
    m, d = pts.shape
    codes = np.empty(m, dtype=np.int8)
    if m:
        lows = _c64(lows)
        highs = _c64(highs)
        _LIB.repro_classify_rr(
            m, d, _ptr(pts), _ptr(lows), _ptr(highs), float(delta), _ptr(codes)
        )
    return codes == 0


def oblique_contains(
    points: np.ndarray,
    center: np.ndarray,
    basis: np.ndarray,
    half_widths: np.ndarray,
) -> np.ndarray:
    """Boolean mask: |Eᵀ(p − c)|ⱼ ≤ wⱼ in the eigenbasis box."""
    if _LIB is None:
        return fallback.oblique_contains(points, center, basis, half_widths)
    pts = _c64(np.atleast_2d(points))
    m, d = pts.shape
    codes = np.empty(m, dtype=np.int8)
    if m:
        center = _c64(center)
        basis = _c64(basis)
        half_widths = _c64(half_widths)
        _LIB.repro_classify_or(
            m, d, _ptr(pts), _ptr(center), _ptr(basis),
            _ptr(half_widths), _ptr(codes),
        )
    return codes == 0


def bf_classify(
    points: np.ndarray,
    center: np.ndarray,
    alpha_upper: float,
    alpha_lower: float | None,
) -> np.ndarray:
    """int8 codes: −1 beyond α∥, +1 within α⊥ (when given), else 0."""
    if _LIB is None:
        return fallback.bf_classify(points, center, alpha_upper, alpha_lower)
    pts = _c64(np.atleast_2d(points))
    m, d = pts.shape
    codes = np.empty(m, dtype=np.int8)
    if m:
        center = _c64(center)
        has_lower = alpha_lower is not None
        _LIB.repro_classify_bf(
            m, d, _ptr(pts), _ptr(center), float(alpha_upper),
            float(alpha_lower) if has_lower else 0.0,
            1 if has_lower else 0, _ptr(codes),
        )
    return codes
