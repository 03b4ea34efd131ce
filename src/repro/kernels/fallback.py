"""Pure-NumPy kernel implementations — the always-available backend.

These functions are the reference semantics for every compiled kernel in
``_kernels.c``: same signatures, same results (the compiled probability
kernels may widen their [lower, upper] bounds by a soundness epsilon; the
fallback bounds are the unwidened NumPy/SciPy values).

The geometry kernels draw their *scratch* arrays (each written before it
is read) from a per-thread arena keyed on block shape, so a steady stream
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
    (elementwise max of requested shapes).
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        buffers = _local.buffers = {}
    shape = tuple(int(s) for s in shape)
    buf = buffers.get(name)
    if buf is None or buf.ndim != len(shape) or buf.dtype != np.dtype(dtype):
        buf = buffers[name] = np.empty(shape, dtype=dtype)
    elif any(have < want for have, want in zip(buf.shape, shape)):
        buf = buffers[name] = np.empty(
            tuple(max(have, want) for have, want in zip(buf.shape, shape)),
            dtype=dtype,
        )
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
    full contract).  The weights a_k come from the running sums S_j, T_j
    derived above ``repro_ruben_block`` in ``_kernels.c``, held here as
    ``(rows, d)`` arrays over the rows still undecided."""
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
    ratios = 1.0 - beta / lam  # gamma_j in [0, 1)
    rho = float(h.sum())
    log_a0 = -0.5 * ncs.sum(axis=1) + 0.5 * float(np.sum(h * np.log(beta / lam)))
    ok &= log_a0 >= -700.0
    live = np.nonzero(ok)[0]  # output slots of the rows still running
    if live.size == 0:
        return lower, upper, ok

    a = np.exp(log_a0[live])  # a_k, the latest weight of each live row
    weight_sum = a.copy()
    scaled_half_x = x / (2.0 * beta)
    gamma_k = float(special.gammainc(rho / 2.0, scaled_half_x))
    cdf = a * gamma_k
    beta_nu = beta * (ncs[live] / lam)
    s_run = np.zeros_like(beta_nu)
    t_run = np.zeros_like(beta_nu)
    for k in range(max_terms + 1):
        if k:
            t_run *= ratios
            t_run += a[:, None]
            t_run += s_run
            s_run += a[:, None]
            s_run *= ratios
            # Summed over j row by row, so no row sees its block's shape.
            a = (s_run * h + beta_nu * t_run).sum(axis=1) / (2.0 * k)
            weight_sum += a
            gamma_k = float(special.gammainc((rho + 2 * k) / 2.0, scaled_half_x))
            cdf += a * gamma_k
        # The tail sum_{k>K} a_k G_k lies between 0 and the remaining mass
        # times G_K (G_k decreases in k), so [lo, hi] contains the CDF.
        rem = np.maximum(1.0 - weight_sum, 0.0)
        lo = np.clip(cdf, 0.0, 1.0)
        hi = np.clip(cdf + rem * gamma_k, 0.0, 1.0)
        done = hi - lo < tol
        if theta is not None:
            done |= (lo >= theta) | (hi < theta)
        if k == max_terms:
            ok[live[~done]] = False  # undecided at the cap: caller falls back
            done[:] = True
        if done.any():
            lower[live[done]] = lo[done]
            upper[live[done]] = hi[done]
            keep = ~done
            live, a, weight_sum, cdf = live[keep], a[keep], weight_sum[keep], cdf[keep]
            beta_nu, s_run, t_run = beta_nu[keep], s_run[keep], t_run[keep]
            if live.size == 0:
                break
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
