"""Exact CDFs of Gaussian quadratic forms.

The qualification probability of a target object o under a Gaussian query
x ~ N(q, Σ) is P(‖x − o‖² ≤ δ²).  Writing y = x − o ~ N(μ, Σ) with
μ = q − o and rotating into the eigenbasis of Σ gives

    ‖y‖² = Σᵢ λᵢ (zᵢ + bᵢ)²,   zᵢ ~ N(0, 1) i.i.d.,

with λᵢ the eigenvalues of Σ and bᵢ = (Eᵀμ)ᵢ / √λᵢ — a weighted sum of
independent noncentral χ² variables.  The paper estimates this probability
by Monte Carlo; here we additionally compute it *exactly* by two classical
methods, which serve as ground truth for the integrators and as an
optional exact Phase-3 evaluator:

- **Imhof (1961)**: numerical inversion of the characteristic function,
  robust for any weights;
- **Ruben (1962)**: a series of central χ² CDFs with a guaranteed
  truncation bound when the expansion parameter β is at most min λᵢ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from repro import kernels
from repro.errors import GeometryError, IntegrationError
from repro.gaussian.distribution import Gaussian

__all__ = [
    "GaussianQuadraticForm",
    "imhof_cdf",
    "imhof_cdf_block",
    "ruben_cdf",
    "chi2_sandwich_bounds",
    "chi2_sandwich_bounds_block",
    "qualification_probability_exact",
]


@dataclass(frozen=True)
class GaussianQuadraticForm:
    """Q = Σⱼ weights[j] · χ²(df[j], noncentrality[j]), independent terms.

    Attributes
    ----------
    weights:
        Positive weights λⱼ.
    dofs:
        Degrees of freedom hⱼ (positive integers).
    noncentralities:
        Noncentrality parameters δⱼ² ≥ 0 (sum of squared means).
    """

    weights: np.ndarray
    dofs: np.ndarray
    noncentralities: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        h = np.asarray(self.dofs, dtype=float)
        nc = np.asarray(self.noncentralities, dtype=float)
        if not (w.shape == h.shape == nc.shape) or w.ndim != 1 or w.size == 0:
            raise GeometryError(
                "weights, dofs and noncentralities must be equal-length 1-D arrays"
            )
        if np.any(w <= 0):
            raise GeometryError(f"weights must be > 0, got {w}")
        if np.any(h <= 0) or np.any(h != np.round(h)):
            raise GeometryError(f"degrees of freedom must be positive ints, got {h}")
        if np.any(nc < 0):
            raise GeometryError(f"noncentralities must be >= 0, got {nc}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "dofs", h)
        object.__setattr__(self, "noncentralities", nc)

    @classmethod
    def squared_distance(cls, gaussian: Gaussian, point: np.ndarray) -> (
        "GaussianQuadraticForm"
    ):
        """The form ‖x − point‖² for x ~ ``gaussian``."""
        p = np.asarray(point, dtype=float)
        if p.shape != gaussian.mean.shape:
            raise GeometryError(
                f"point shape {p.shape} does not match Gaussian dim {gaussian.dim}"
            )
        mu = gaussian.mean - p
        rotated = gaussian.basis.T @ mu
        weights = gaussian.eigenvalues
        noncentralities = rotated**2 / weights
        return cls(weights, np.ones(gaussian.dim), noncentralities)

    @staticmethod
    def squared_distance_spectrum(
        gaussian: Gaussian, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared spectrum of the forms ‖x − pointsᵢ‖² for x ~ ``gaussian``.

        All candidates of one query share the eigenvalues λ (the weights)
        and unit degrees of freedom; only the noncentralities differ.
        Returns ``(weights, noncentralities)`` with shapes ``(d,)`` and
        ``(m, d)`` — the inputs the batched evaluators fan out over.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != gaussian.dim:
            raise GeometryError(
                f"points shape {pts.shape} does not match Gaussian dim "
                f"{gaussian.dim}"
            )
        ncs = kernels.squared_distance_noncentralities(
            gaussian.mean, gaussian.basis, gaussian.eigenvalues, pts
        )
        return gaussian.eigenvalues, ncs

    def mean(self) -> float:
        """E[Q] = Σ λⱼ (hⱼ + δⱼ²)."""
        return float(np.sum(self.weights * (self.dofs + self.noncentralities)))

    def variance(self) -> float:
        """Var[Q] = 2 Σ λⱼ² (hⱼ + 2δⱼ²)."""
        return float(
            2.0 * np.sum(self.weights**2 * (self.dofs + 2.0 * self.noncentralities))
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Direct simulation of Q (used in cross-validation tests)."""
        total = np.zeros(n)
        for w, h, nc in zip(self.weights, self.dofs, self.noncentralities):
            total += w * rng.noncentral_chisquare(h, nc, size=n) if nc > 0 else (
                w * rng.chisquare(h, size=n)
            )
        return total


def imhof_cdf(form: GaussianQuadraticForm, x: float, *, tol: float = 1e-10) -> float:
    """P(Q ≤ x) by Imhof's characteristic-function inversion.

    Implements Imhof (1961), Eq. 3.2:

        P(Q > x) = 1/2 + (1/π) ∫₀^∞ sin θ(u) / (u ρ(u)) du

    with θ(u) = ½ Σⱼ [hⱼ·atan(λⱼu) + δⱼ²λⱼu/(1+λⱼ²u²)] − ½xu and
    ρ(u) = Πⱼ (1+λⱼ²u²)^{hⱼ/4} · exp(½ Σⱼ δⱼ²λⱼ²u²/(1+λⱼ²u²)).
    """
    if x <= 0:
        return 0.0  # Q is a.s. positive, and w = x/2 must be > 0 for QAWF
    lam = form.weights
    h = form.dofs
    nc = form.noncentralities

    limit_at_zero = 0.5 * (float(np.sum(h * lam)) + float(np.sum(nc * lam)) - x)

    def phase_smooth(u: float) -> float:
        """φ(u) = θ(u) + x·u/2 — the bounded, non-oscillatory part of the phase."""
        lu = lam * u
        lu2 = lu * lu
        return 0.5 * (
            float(np.sum(h * np.arctan(lu))) + float(np.sum(nc * lu / (1.0 + lu2)))
        )

    def inv_u_rho(u: float) -> float:
        """1/(u·ρ(u)) — the integrand's decreasing envelope."""
        lu2 = (lam * u) ** 2
        log_rho = 0.25 * float(np.sum(h * np.log1p(lu2))) + 0.5 * float(
            np.sum(nc * lu2 / (1.0 + lu2))
        )
        return math.exp(-math.log(u) - log_rho)

    def integrand(u: float) -> float:
        if u < 1e-12:
            # Limit as u -> 0: theta/u -> (sum h*lam + sum nc*lam - x)/2, rho -> 1.
            return limit_at_zero
        return math.sin(phase_smooth(u) - 0.5 * x * u) * inv_u_rho(u)

    # The integrand oscillates as sin(phi(u) - w*u) with w = x/2 and phi smooth
    # and bounded.  Integrate a head interval holding at most a few periods
    # adaptively, then hand the infinite oscillatory tail to QUADPACK's
    # Fourier integrator (QAWF) after splitting the sine of a difference.
    w = 0.5 * x
    # Keep the adaptively-integrated head interval to a few dozen periods.
    head_end = min(1.0, 40.0 * math.pi / w)
    head, _ = integrate.quad(
        integrand, 0.0, head_end, epsabs=tol, epsrel=1e-9, limit=400
    )
    # sin(phi - wu) = sin(phi)cos(wu) - cos(phi)sin(wu); QUADPACK's Fourier
    # integrator (QAWF) handles each term over [head_end, inf) for any w > 0.
    cos_part, _ = integrate.quad(
        lambda u: math.sin(phase_smooth(u)) * inv_u_rho(u),
        head_end,
        np.inf,
        weight="cos",
        wvar=w,
        epsabs=tol,
        limit=400,
    )
    sin_part, _ = integrate.quad(
        lambda u: -math.cos(phase_smooth(u)) * inv_u_rho(u),
        head_end,
        np.inf,
        weight="sin",
        wvar=w,
        epsabs=tol,
        limit=400,
    )
    value = head + cos_part + sin_part
    if not math.isfinite(value):
        raise IntegrationError(f"Imhof inversion diverged for x={x}")
    upper_tail = 0.5 + value / math.pi
    return float(min(1.0, max(0.0, 1.0 - upper_tail)))


#: Nodes per panel of :func:`imhof_cdf_block` and the Gauss–Legendre rule
#: itself, mapped to [0, 1] (weights sum to 1).
_PANEL_NODES = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_NODES)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS

#: Most quadrature nodes one pass over one row of :func:`imhof_cdf_block`
#: may take; a row that would need more goes to the scalar
#: :func:`imhof_cdf`.
_BLOCK_MAX_NODES = 1 << 16

#: Size cap of one (rows, nodes) temporary of the block sweep; a sweep
#: holds a handful of them at once, so its working set stays at a few MB.
_BLOCK_CHUNK_BYTES = 1 << 19

#: Bisection steps (and the log-width they start from) locating the
#: truncation point U of :func:`imhof_cdf_block` to a relative 1e-5.
_TRUNCATION_STEPS = 24
_TRUNCATION_LOG_SPAN = 60.0


def imhof_cdf_block(
    weights: np.ndarray,
    dofs: np.ndarray,
    noncentralities: np.ndarray,
    x: float,
    *,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """P(Q ≤ x) by Imhof's inversion for a block of forms sharing a spectrum.

    ``noncentralities`` is an ``(m, d)`` block, ``weights``/``dofs`` are
    the shared ``(d,)`` spectrum (see
    :meth:`GaussianQuadraticForm.squared_distance_spectrum`).  Returns
    ``(values, errors, nodes, scalar_fallbacks)``: the CDF values, a
    per-row bound on their absolute error, the number of quadrature
    nodes evaluated and the number of rows handed to :func:`imhof_cdf`.

    Each row integrates the integrand of :func:`imhof_cdf` over [0, U]
    only, with U the point where Imhof's (1961, Eq. 3.6) tail bound

        T_U = exp(−½ Σⱼ δⱼ²λⱼ²U²/(1+λⱼ²U²)) / (π k Uᵏ Πⱼ λⱼ^{hⱼ/2}),
        k = ½ Σⱼ hⱼ,

    falls to ``tol/4``.  [0, U] is cut into equal panels carrying a
    16-point Gauss–Legendre rule each, about one panel per oscillation
    of the integrand (taking ½·max(x, Σⱼ λⱼ(hⱼ+δⱼ²)) for the rate of
    its phase), and the panel count is doubled until two
    successive estimates agree to ``tol/4``; the reported error is T_U
    plus that last difference.  Rows with equal panel counts are swept
    together as ``(rows, nodes)`` arrays.

    **Fallback rule.**  A row goes to the scalar :func:`imhof_cdf`
    instead (reported error 0, as that path gives no estimate) when a
    pass would need more than ``_BLOCK_MAX_NODES`` nodes — before the
    first pass for slowly decaying forms (small Σδ² with d ≤ 2, where U
    is astronomically large), or while doubling if the estimates have
    not agreed by then.

    A row's result depends on (λ, h, its own δ², x, tol) alone — U, the
    panel count and the order of every sum are fixed per row — so
    values are bit-identical however rows are grouped into blocks.
    """
    lam = np.asarray(weights, dtype=float)
    h = np.asarray(dofs, dtype=float)
    ncs = np.asarray(noncentralities, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or h.shape != lam.shape:
        raise GeometryError("weights and dofs must be equal-length 1-D arrays")
    if ncs.ndim != 2 or ncs.shape[1] != lam.size:
        raise GeometryError(
            f"noncentralities shape {ncs.shape} does not match {lam.size} weights"
        )
    if np.any(lam <= 0) or np.any(h <= 0) or not np.all(ncs >= 0):
        raise GeometryError(
            "weights and dofs must be > 0 and noncentralities >= 0"
        )
    m = ncs.shape[0]
    values = np.zeros(m)
    errors = np.zeros(m)
    if m == 0 or x <= 0:
        return values, errors, 0, 0  # Q is a.s. positive

    cutoff, tail = _imhof_truncation(lam, h, ncs, 0.25 * tol)
    rate = 0.5 * np.maximum(x, (lam * (h + ncs)).sum(axis=1))
    with np.errstate(over="ignore"):
        panels = np.maximum(np.ceil(rate * cutoff / (2.0 * math.pi)), 1.0)
    # One doubling is always needed, so the budget check is on 2·panels.
    in_budget = 2.0 * panels * _PANEL_NODES <= _BLOCK_MAX_NODES
    scalar_rows = list(np.nonzero(~in_budget)[0])
    nodes = 0
    for count in np.unique(panels[in_budget]):
        rows = np.nonzero(in_budget & (panels == count))[0]
        n = int(count)
        estimate = _imhof_panel_sums(lam, h, ncs[rows], x, cutoff[rows], n)
        nodes += rows.size * n * _PANEL_NODES
        while rows.size:
            n *= 2
            if n * _PANEL_NODES > _BLOCK_MAX_NODES:
                scalar_rows.extend(rows)
                break
            refined = _imhof_panel_sums(lam, h, ncs[rows], x, cutoff[rows], n)
            nodes += rows.size * n * _PANEL_NODES
            gap = np.abs(refined - estimate) / math.pi
            agreed = gap < 0.25 * tol
            done = rows[agreed]
            values[done] = 0.5 - refined[agreed] / math.pi
            errors[done] = tail[done] + gap[agreed]
            rows, estimate = rows[~agreed], refined[~agreed]
    for row in scalar_rows:
        values[row] = imhof_cdf(GaussianQuadraticForm(lam, h, ncs[row]), x)
    np.clip(values, 0.0, 1.0, out=values)
    return values, errors, nodes, len(scalar_rows)


def _imhof_truncation(
    lam: np.ndarray, h: np.ndarray, ncs: np.ndarray, bound: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, a U with Imhof's tail bound T_U ≤ ``bound``, and that T_U.

    log T_U decreases in U, so a fixed number of bisection steps in log U
    — down from the U that meets the bound on its power-law factor alone
    — brackets the crossing; the upper end of the bracket is returned.
    """
    k = 0.5 * float(h.sum())
    log_scale = math.log(math.pi * k) + 0.5 * float(np.sum(h * np.log(lam)))
    lam2 = lam * lam

    def log_tail(log_u: np.ndarray) -> np.ndarray:
        s = lam2 * np.exp(2.0 * log_u)[:, None]
        return -0.5 * (ncs * (s / (1.0 + s))).sum(axis=1) - k * log_u - log_scale

    log_bound = math.log(bound)
    high = np.full(ncs.shape[0], (-log_bound - log_scale) / k)
    low = high - _TRUNCATION_LOG_SPAN
    # A spectrum extreme enough to overflow here yields U = inf (or a NaN
    # that never meets the bound), which the caller sends to the scalar path.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_TRUNCATION_STEPS):
            mid = 0.5 * (low + high)
            met = log_tail(mid) <= log_bound
            high = np.where(met, mid, high)
            low = np.where(met, low, mid)
        return np.exp(high), np.exp(log_tail(high))


def _imhof_panel_sums(
    lam: np.ndarray,
    h: np.ndarray,
    ncs: np.ndarray,
    x: float,
    cutoff: np.ndarray,
    panels: int,
) -> np.ndarray:
    """∫₀^U sin θ(u) / (u ρ(u)) du per row on ``panels`` equal GL panels."""
    unit = (
        (np.arange(panels)[:, None] + _GL_NODES) / panels
    ).ravel()  # nodes of [0, 1]
    node_weights = np.tile(_GL_WEIGHTS / panels, panels)
    out = np.empty(cutoff.size)
    step = max(1, _BLOCK_CHUNK_BYTES // (8 * unit.size))
    for start in range(0, cutoff.size, step):
        rows = slice(start, start + step)
        u = cutoff[rows, None] * unit
        phase = (-0.5 * x) * u
        log_u_rho = np.log(u)
        for j in range(lam.size):
            lu = lam[j] * u
            lu2 = lu * lu
            ratio = ncs[rows, j, None] / (1.0 + lu2)
            phase += 0.5 * (h[j] * np.arctan(lu) + ratio * lu)
            log_u_rho += 0.25 * h[j] * np.log1p(lu2) + 0.5 * (ratio * lu2)
        integrand = np.sin(phase) * np.exp(-log_u_rho) * node_weights
        out[rows] = integrand.sum(axis=1) * cutoff[rows]
    return out


def ruben_cdf(
    form: GaussianQuadraticForm,
    x: float,
    *,
    max_terms: int = 10_000,
    tol: float = 1e-12,
) -> float:
    """P(Q ≤ x) by Ruben's (1962) mixture-of-central-χ² series.

    With expansion parameter β = min λⱼ every mixture weight aₖ is
    non-negative and they sum to 1, and the central-χ² CDFs Gₖ decrease
    in k, so the truncation error after K terms is at most
    (1 − Σ_{k≤K} aₖ)·G_K — the bound :func:`repro.kernels.ruben_block`
    uses.  The loop stops once it is below ``tol``; at cond(Σ) ≈ 1e8 the
    remaining mass alone never gets there, while G_K falls within terms.
    """
    if x < 0:
        return 0.0
    if x == 0:
        return 0.0
    lam = form.weights
    h = form.dofs
    nc = form.noncentralities
    beta = float(lam.min())
    ratios = 1.0 - beta / lam  # r_j in [0, 1)
    rho = float(h.sum())

    log_a0 = -0.5 * float(nc.sum()) + 0.5 * float(np.sum(h * np.log(beta / lam)))
    if log_a0 < -700.0:
        raise IntegrationError(
            f"Ruben's leading weight underflows (log a0 = {log_a0:.0f}); the "
            "noncentrality is too large for this expansion — use Imhof"
        )
    # Mixture weights a_k and series coefficients g_k as growing arrays so
    # the convolution a_k = (1/(2k)) sum_{r<=k} g_r a_{k-r} is one rolling
    # dot product instead of an O(k) Python loop per term.
    capacity = 64
    a = np.zeros(capacity)
    g = np.zeros(capacity)
    a[0] = math.exp(log_a0)
    # g_k = sum_j h_j r_j^k + k*beta * sum_j (nc_j/lam_j) r_j^(k-1)
    weight_sum = a[0]
    scaled_x = x / beta
    cdf = a[0] * float(special.gammainc(rho / 2.0, scaled_x / 2.0))
    ratio_pow = np.ones_like(ratios)  # r_j^(k-1) entering iteration k
    nc_over_lam = nc / lam
    for k in range(1, max_terms + 1):
        if k >= capacity:
            capacity *= 2
            a = np.concatenate([a, np.zeros(capacity - a.size)])
            g = np.concatenate([g, np.zeros(capacity - g.size)])
        g[k - 1] = float(np.sum(h * ratio_pow * ratios)) + k * beta * float(
            np.sum(nc_over_lam * ratio_pow)
        )
        ratio_pow = ratio_pow * ratios
        a_k = float(np.dot(g[:k], a[k - 1 :: -1])) / (2.0 * k)
        a[k] = a_k
        weight_sum += a_k
        gamma_k = float(special.gammainc((rho + 2 * k) / 2.0, scaled_x / 2.0))
        cdf += a_k * gamma_k
        if (1.0 - weight_sum) * gamma_k < tol:
            break
    else:
        raise IntegrationError(
            f"Ruben series did not converge in {max_terms} terms "
            f"(remaining mass {1.0 - weight_sum:.3e}); weights span "
            f"{lam.min():g}..{lam.max():g}"
        )
    return float(min(1.0, max(0.0, cdf)))


def chi2_sandwich_bounds(
    form: GaussianQuadraticForm, x: float
) -> tuple[float, float]:
    """Cheap rigorous bounds on P(Q ≤ x).

    Since λ_min·χ²_d(Σδ²) ≤ Q ≤ λ_max·χ²_d(Σδ²) pointwise (with the same
    underlying normals), the noncentral-χ² CDF evaluated at x/λ_max and
    x/λ_min sandwiches the true CDF.  The scalar path always uses the
    exact SciPy evaluation — it feeds the 1e−14 tail shortcut in
    :func:`qualification_probability_exact`, where the compiled backend's
    widening epsilon would defeat the comparison.
    """
    from repro.kernels import fallback as _fallback

    bounds = _fallback.chi2_sandwich_block(
        float(x),
        float(form.dofs.sum()),
        np.array([form.noncentralities.sum()]),
        float(form.weights.min()),
        float(form.weights.max()),
    )
    return (float(bounds[0, 0]), float(bounds[0, 1]))


def chi2_sandwich_bounds_block(
    gaussian: Gaussian, points: np.ndarray, delta: float, *,
    dtype: str = "float64",
) -> np.ndarray:
    """Sandwich bounds on P(‖x − pointsᵢ‖ ≤ delta) for an (m, d) block.

    The degrees of freedom and the weight extrema are shared per query,
    only the total noncentralities vary by row; returns an ``(m, 2)``
    array of [lower, upper] bounds, sound on every backend.

    ``dtype="float32"`` selects the compiled fast path that rotates the
    candidates in single precision: a rigorous rotation error bound is
    converted into a noncentrality interval and the CDF is evaluated at
    its pessimal end, so the bounds stay conservative (slightly wider,
    never unsound).  Without the compiled backend it silently evaluates
    the exact float64 pipeline.
    """
    if dtype not in ("float64", "float32"):
        raise GeometryError(f"unknown dtype {dtype!r}; use 'float64' or 'float32'")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != gaussian.dim:
        raise GeometryError(
            f"points shape {pts.shape} does not match Gaussian dim {gaussian.dim}"
        )
    threshold = float(delta) ** 2
    lam_min = float(gaussian.eigenvalues.min())
    lam_max = float(gaussian.eigenvalues.max())
    if dtype == "float32":
        return kernels.chi2_sandwich_block_f32(
            gaussian.mean, gaussian.basis, gaussian.eigenvalues, pts,
            threshold, float(gaussian.dim), lam_min, lam_max,
        )
    ncs = kernels.squared_distance_noncentralities(
        gaussian.mean, gaussian.basis, gaussian.eigenvalues, pts
    )
    return kernels.chi2_sandwich_block(
        threshold, float(gaussian.dim), ncs.sum(axis=1), lam_min, lam_max
    )


#: Probabilities closer than this to 0 or 1 are resolved by the sandwich
#: bounds alone, skipping the expensive inversion.
_TAIL_SHORTCUT = 1e-14


def qualification_probability_exact(
    gaussian: Gaussian,
    point: np.ndarray,
    delta: float,
    *,
    method: str = "ruben",
) -> float:
    """Exact P(‖x − point‖ ≤ delta) for x ~ ``gaussian``.

    ``method="ruben"`` (the default) runs scalar Ruben to within 1e−12 of
    the sandwich's lower bound — relative accuracy, so probabilities far
    below 1e−12 resolve too — and falls back to Imhof when the series
    cannot (its leading weight underflows for extreme noncentralities);
    ``"imhof"`` is Imhof alone, the independent cross-check.  Probabilities
    provably within 1e−14 of 0 or 1 (by the noncentral-χ² sandwich bounds)
    are returned directly, and an Imhof result never leaves those bounds.
    """
    if delta < 0:
        raise GeometryError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return 0.0
    if method not in ("imhof", "ruben"):
        raise GeometryError(f"unknown method {method!r}; use 'imhof' or 'ruben'")
    form = GaussianQuadraticForm.squared_distance(gaussian, point)
    threshold = delta * delta
    lower, upper = chi2_sandwich_bounds(form, threshold)
    if upper < _TAIL_SHORTCUT:
        return upper
    if lower > 1.0 - _TAIL_SHORTCUT:
        return lower
    if method == "ruben":
        try:
            return ruben_cdf(
                form, threshold, tol=1e-12 * max(lower, _TAIL_SHORTCUT)
            )
        except IntegrationError:
            pass
    # The sandwich is rigorous and the inversion is not: for cond(Σ) ≳ 1e6
    # Imhof's oscillatory integral can settle far outside it, so its answer
    # only ever counts inside [lower, upper] (a no-op wherever it is right).
    return min(max(imhof_cdf(form, threshold), lower), upper)
