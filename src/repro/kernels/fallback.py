"""Pure-NumPy kernel implementations — the always-available backend.

These functions are the reference semantics for every compiled kernel in
``_kernels.c``: same signatures, same results (the compiled probability
kernels may widen their [lower, upper] bounds by a soundness epsilon; the
fallback bounds are exactly the pre-kernel NumPy values).

Unlike the original in-line implementations they draw their *scratch*
arrays from a per-thread arena keyed on block shape, so a steady stream
of same-shaped candidate blocks — the common case inside ``run_batch``
and the serve scheduler — allocates nothing after warm-up.  Only
intermediate buffers live in the arena; every array returned to a caller
is freshly allocated, because callers (the cascade, the degradation
path) may hold results across subsequent kernel calls.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import special

__all__ = [
    "bf_classify",
    "chi2_sandwich_block",
    "minkowski_contains",
    "oblique_contains",
    "ruben_block",
    "scratch",
    "squared_distance_noncentralities",
]

_local = threading.local()


def scratch(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A reusable per-thread scratch array of at least ``shape``.

    Contents are whatever the previous use left behind — callers must
    write before they read.  The backing buffer only ever grows
    (elementwise max of requested shapes), and a growing request keeps
    the already-written leading region intact, so rolling-state arrays
    (the Ruben ``a``/``g`` recursions) survive capacity doubling in
    place.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        buffers = _local.buffers = {}
    shape = tuple(int(s) for s in shape)
    buf = buffers.get(name)
    if buf is None or buf.ndim != len(shape) or buf.dtype != np.dtype(dtype):
        buf = buffers[name] = np.empty(shape, dtype=dtype)
    elif any(have < want for have, want in zip(buf.shape, shape)):
        grown = np.empty(
            tuple(max(have, want) for have, want in zip(buf.shape, shape)),
            dtype=dtype,
        )
        region = tuple(slice(0, s) for s in buf.shape)
        grown[region] = buf  # preserve rolling state across growth
        buf = buffers[name] = grown
    return buf[tuple(slice(0, s) for s in shape)]


# ----------------------------------------------------------------------
# Quadratic-form kernels
# ----------------------------------------------------------------------


def squared_distance_noncentralities(
    mean: np.ndarray,
    basis: np.ndarray,
    eigenvalues: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Noncentralities ((mean − pᵢ)ᵀE)ⱼ² / λⱼ for an (m, d) block."""
    diff = np.subtract(mean[None, :], points, out=scratch("sq_diff", points.shape))
    rotated = diff @ basis  # fresh: returned to the caller after squaring
    np.square(rotated, out=rotated)
    rotated /= eigenvalues
    return rotated


def chi2_sandwich_block(
    x: float,
    df: float,
    nc_totals: np.ndarray,
    lam_min: float,
    lam_max: float,
) -> np.ndarray:
    """(m, 2) noncentral-χ² sandwich bounds over total noncentralities."""
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
    return bounds


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
    """Batched Ruben series (see :func:`repro.kernels.ruben_block` for the
    full contract); scratch ``a``/``g`` recursion blocks come from the
    arena instead of fresh zeroed allocations per call."""
    lam = np.asarray(weights, dtype=float)
    h = np.asarray(dofs, dtype=float)
    ncs = np.atleast_2d(np.asarray(noncentralities, dtype=float))
    m = ncs.shape[0]
    lower = np.zeros(m)
    upper = np.ones(m)
    ok = np.ones(m, dtype=bool)
    if m == 0:
        return lower, upper, ok
    if x <= 0:
        return lower, np.zeros(m), ok  # P(Q <= x) = 0 exactly

    beta = float(lam.min())
    ratios = 1.0 - beta / lam  # r_j in [0, 1)
    rho = float(h.sum())
    log_a0 = -0.5 * ncs.sum(axis=1) + 0.5 * float(np.sum(h * np.log(beta / lam)))
    usable = log_a0 >= -700.0
    ok &= usable
    rows = np.nonzero(usable)[0]
    if rows.size == 0:
        return lower, upper, ok

    n = rows.size
    capacity = 64
    # Scratch recursion blocks: only the [0..k) prefix written by the loop
    # below is ever read, so stale arena contents are harmless, and
    # growing the view preserves the prefix (see ``scratch``).
    a = scratch("ruben_a", (n, capacity))
    g = scratch("ruben_g", (n, capacity))
    a[:, 0] = np.exp(log_a0[rows])
    weight_sum = a[:, 0].copy()
    scaled_half_x = x / (2.0 * beta)
    gamma_k = float(special.gammainc(rho / 2.0, scaled_half_x))
    cdf = a[:, 0] * gamma_k
    nc_over_lam = np.divide(
        ncs[rows], lam, out=scratch("ruben_ncol", (n, lam.size))
    )
    ratio_pow = np.ones_like(ratios)  # r_j^(k-1) entering iteration k
    lo = np.zeros(n)
    hi = np.ones(n)
    active = np.ones(n, dtype=bool)

    def settle(idx: np.ndarray) -> None:
        """Record bounds for ``idx`` and retire the decided candidates.

        The tail Σ_{k>K} a_k·G_k is bounded below by 0 and above by the
        remaining mass times the current G_K (G_k decreases in k), so the
        interval [cdf, cdf + rem·G_K] always contains the true CDF.
        """
        rem = np.maximum(1.0 - weight_sum[idx], 0.0)
        lo[idx] = np.clip(cdf[idx], 0.0, 1.0)
        hi[idx] = np.clip(cdf[idx] + rem * gamma_k, 0.0, 1.0)
        done = hi[idx] - lo[idx] < tol
        if theta is not None:
            done |= (lo[idx] >= theta) | (hi[idx] < theta)
        active[idx[done]] = False

    settle(np.arange(n))
    for k in range(1, max_terms + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        if k >= capacity:
            capacity *= 2
            a = scratch("ruben_a", (n, capacity))
            g = scratch("ruben_g", (n, capacity))
        shared = float(np.sum(h * ratio_pow * ratios))  # Σ h_j r_j^k
        g[idx, k - 1] = shared + k * beta * (nc_over_lam[idx] @ ratio_pow)
        ratio_pow = ratio_pow * ratios
        # a_k = (1/(2k)) Σ_{r=1..k} g_r a_{k-r}: one rolling dot per row.
        a[idx, k] = (
            np.einsum("ij,ij->i", g[idx, :k], a[idx, k - 1 :: -1]) / (2.0 * k)
        )
        weight_sum[idx] += a[idx, k]
        gamma_k = float(special.gammainc((rho + 2 * k) / 2.0, scaled_half_x))
        cdf[idx] += a[idx, k] * gamma_k
        settle(idx)
    ok[rows[active]] = False  # undecided at max_terms: caller falls back
    lower[rows] = lo
    upper[rows] = hi
    return lower, upper, ok


# ----------------------------------------------------------------------
# Phase-2 classification kernels
# ----------------------------------------------------------------------


def minkowski_contains(
    points: np.ndarray, lows: np.ndarray, highs: np.ndarray, delta: float
) -> np.ndarray:
    """Membership in rect ⊕ ball(δ): distance(point, rect) ≤ δ."""
    below = np.subtract(lows, points, out=scratch("rr_below", points.shape))
    np.maximum(below, 0.0, out=below)
    above = np.subtract(points, highs, out=scratch("rr_above", points.shape))
    np.maximum(above, 0.0, out=above)
    gap = below + above
    return np.einsum("ij,ij->i", gap, gap) <= delta**2


def oblique_contains(
    points: np.ndarray,
    center: np.ndarray,
    basis: np.ndarray,
    half_widths: np.ndarray,
) -> np.ndarray:
    """Membership in the eigenbasis-aligned box |Eᵀ(p − c)|ⱼ ≤ wⱼ."""
    diff = np.subtract(points, center, out=scratch("or_diff", points.shape))
    y = diff @ basis
    return np.all(np.abs(y) <= half_widths, axis=1)


def bf_classify(
    points: np.ndarray,
    center: np.ndarray,
    alpha_upper: float,
    alpha_lower: float | None,
) -> np.ndarray:
    """BF codes: −1 beyond α∥, +1 within α⊥ (when present), else 0."""
    deltas = np.subtract(points, center, out=scratch("bf_diff", points.shape))
    distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    codes = np.zeros(points.shape[0], dtype=np.int8)
    codes[distances > alpha_upper] = -1
    if alpha_lower is not None:
        codes[distances <= alpha_lower] = 1
    return codes
