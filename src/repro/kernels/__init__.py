"""Compiled hot kernels with a NumPy fallback, selected at import time.

The Phase-2 filter classifiers and the Phase-3 probability cascade spend
nearly all their time in a handful of small numeric blocks.  This package
provides two interchangeable backends for them:

- ``c`` — a shared library built from ``_kernels.c`` at first import
  (content-hash cached, see :mod:`repro.kernels.build`) and called
  through :mod:`ctypes`;
- ``numpy`` — :mod:`repro.kernels.fallback`, pure NumPy/SciPy (the
  geometry kernels reuse scratch arenas), always available.

Selection happens once at import: the C backend is used when it compiles
and loads, unless ``REPRO_NO_JIT=1`` (or any value other than ``0``) is
set, which pins the NumPy fallback for the whole process.  ``backend()``
and ``kernel_table()`` report what was chosen.

Soundness contract: the probability kernels return ``[lower, upper]``
bounds that must *contain* the true probability.  The compiled backend
widens its bounds by a computed numerical-error allowance plus a fixed
epsilon, so its bounds can be marginally looser than the fallback's but
never unsound; the float32 sandwich fast path additionally converts a
rigorous rotation error bound into a noncentrality interval before
evaluating the CDF (monotone decreasing in the noncentrality).
"""

from __future__ import annotations

import os

import numpy as np

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

#: The float32 sandwich path holds query vectors in fixed stack buffers.
_F32_MAX_DIM = 64

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
    f32 = BACKEND if BACKEND == "c" else "numpy (float64 exact)"
    return [
        {"kernel": "squared_distance_noncentralities", "backend": BACKEND},
        {"kernel": "chi2_sandwich_block", "backend": BACKEND},
        {"kernel": "chi2_sandwich_block_f32", "backend": f32},
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
    """(m, 2) sandwich bounds λ_min·χ² ≤ Q ≤ λ_max·χ² per candidate."""
    if _LIB is None:
        return fallback.chi2_sandwich_block(x, df, nc_totals, lam_min, lam_max)
    nc = _c64(np.atleast_1d(nc_totals))
    out = np.empty((nc.size, 2))
    if nc.size:
        _LIB.repro_chi2_sandwich_block(
            nc.size, float(x), float(df), _ptr(nc),
            float(lam_min), float(lam_max), _WIDEN, _ptr(out),
        )
    return out


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
    """Sandwich bounds with a float32 rotation fast path.

    Sound by construction: the compiled path brackets each rotated
    coordinate in a rigorous interval and evaluates the CDF at the
    pessimal end of the induced noncentrality interval.  Without the C
    backend (or above 64 dimensions) it degrades to the exact float64
    pipeline, which is trivially sound.
    """
    pts = _c64(np.atleast_2d(points))
    m, d = pts.shape
    if _LIB is None or d > _F32_MAX_DIM:
        ncs = fallback.squared_distance_noncentralities(
            _c64(mean), _c64(basis), _c64(eigenvalues), pts
        )
        return fallback.chi2_sandwich_block(
            x, df, ncs.sum(axis=1), lam_min, lam_max
        )
    out = np.empty((m, 2))
    if m:
        mean = _c64(mean)
        basis = _c64(basis)
        eig = _c64(eigenvalues)
        _LIB.repro_chi2_sandwich_block_f32(
            m, d, _ptr(mean), _ptr(basis), _ptr(eig), _ptr(pts),
            float(x), float(df), float(lam_min), float(lam_max),
            _WIDEN, _ptr(out),
        )
    return out


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
    candidate's stopping point, and ``ok=False`` where the expansion is
    unusable (leading weight underflow, or no decision within
    ``max_terms`` terms) and the caller must fall back to Imhof.

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
