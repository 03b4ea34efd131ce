"""Deterministic tiered Phase-3 backend: prune cheap, evaluate rarely.

The paper reports Monte Carlo integration dominating query cost; the
repo's exact quadratic-form CDF (:mod:`repro.gaussian.quadform`) removes
the sampling noise but was scalar-only and always paid full price.  The
cascade makes the exact machinery *decision-aware*, in the spirit of
probabilistic pruning (Bernecker et al.) — most candidates can be decided
from bounds that cost next to nothing, and only the borderline few ever
reach an expensive evaluator:

- **Tier 1 — χ² sandwich bounds.**  All candidates of a query share the
  covariance spectrum, so one vectorised noncentral-χ² CDF call yields a
  rigorous [lower, upper] interval per candidate; any interval excluding
  θ decides its candidate with zero further work.
- **Tier 2 — batched Ruben series.**  The survivors run Ruben's
  mixture-of-central-χ² expansion as NumPy array operations over the
  whole block: eigenvalues, the expansion parameter β, the ratio powers
  and the incomplete-gamma table are shared, and each candidate stops as
  soon as its partial-sum ± remaining-mass interval excludes θ
  (decision-aware truncation).
- **Tier 3 — block Imhof.**  Only candidates whose Ruben expansion
  underflows (extreme noncentralities) fall back to characteristic-
  function inversion: one truncated Gauss–Legendre sweep per query over
  all of them at once (:func:`repro.gaussian.quadform.imhof_cdf_block`),
  reported as value ± quadrature error.

The cascade draws no random numbers at all, so engine results are exact,
bit-identical across runs and worker counts, and — unlike every sampling
integrator — `integration_samples` stays at zero.  This goes beyond the
paper, which assumes the Gaussian cannot be integrated analytically.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import (
    GaussianQuadraticForm,
    chi2_sandwich_bounds_block,
    # Not called here any more; benchmarks/e2e/selftest.py still looks the
    # tracer's rebinding of it up on this module.
    imhof_cdf,  # noqa: F401
    imhof_cdf_block,
)
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult
from repro.obs import span_of

__all__ = ["CascadeIntegrator"]

#: Interval width at which a candidate counts as *evaluated* rather than
#: merely decided: bounds tighter than this collapse to their midpoint.
#: Also the Ruben truncation tolerance when no θ is in play, and the
#: tolerance of the Imhof quadrature always.
TOL = 1e-9
#: With θ in play the collapse width is ``min(TOL, THETA_TOL * θ)``: a
#: midpoint within TOL of a θ below ≈ 1e-9 says nothing about which side
#: of θ the probability lies.  Every θ ≥ 1e-3 keeps ``TOL`` itself.
THETA_TOL = 1e-6
#: Ruben series term cap per candidate before falling back to Imhof.
MAX_TERMS = 10_000

#: Tier labels as they appear in ``IntegrationResult.method`` and in the
#: engine's per-tier decision statistics, indexed by the ``int8`` tier code
#: the cascade keeps per candidate.
TIER_LABELS = ("cascade-sandwich", "cascade-ruben", "cascade-imhof")
_SANDWICH, _RUBEN, _IMHOF = range(len(TIER_LABELS))


class CascadeIntegrator(ProbabilityIntegrator):
    """Tiered deterministic Phase-3 evaluator (sandwich → Ruben → Imhof).

    Parameters
    ----------
    fast_dtype:
        Precision of the tier-1 candidate rotation: ``"float64"``
        (default, exact) or ``"float32"`` — the compiled single-precision
        fast path whose rotation error is absorbed into conservatively
        widened bounds, so decisions stay sound either way (see
        :func:`repro.gaussian.quadform.chi2_sandwich_bounds_block`).
        Borderline candidates the wider float32 interval cannot decide
        simply continue to tier 2.
    """

    name = "cascade"

    def __init__(self, *, fast_dtype: str = "float64"):
        if fast_dtype not in ("float64", "float32"):
            raise IntegrationError(
                f"fast_dtype must be 'float64' or 'float32', got {fast_dtype!r}"
            )
        self.fast_dtype = fast_dtype

    # ------------------------------------------------------------------
    # ProbabilityIntegrator interface
    # ------------------------------------------------------------------

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        p = self._validate(gaussian, point, delta)
        return self.qualification_probabilities(gaussian, p[None, :], delta)[0]

    def qualification_probabilities(
        self, gaussian: Gaussian, points: np.ndarray, delta: float
    ) -> list[IntegrationResult]:
        """Every candidate evaluated to ``TOL`` (no θ in play).

        An interval narrower than ``TOL`` is reported as its midpoint;
        one that never collapsed as its lower bound, with the half-width
        as the standard error either way.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lower, upper, tier = self._tiers(gaussian, pts, delta, theta=None, tol=TOL)
        converged = upper - lower < TOL
        estimate = np.where(converged, 0.5 * (lower + upper), lower)
        stderr = np.maximum(0.5 * (upper - lower), 0.0)
        return [
            IntegrationResult(e, s, 0, TIER_LABELS[t])
            for e, s, t in zip(estimate.tolist(), stderr.tolist(), tier.tolist())
        ]

    def decide(
        self,
        gaussian: Gaussian,
        points: np.ndarray,
        delta: float,
        theta: float,
    ) -> tuple[np.ndarray, dict[str, int], int]:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = min(TOL, THETA_TOL * theta)
        lower, upper, tier = self._tiers(gaussian, pts, delta, theta=theta, tol=tol)
        # A collapsed interval is decided at its midpoint, any other by
        # the bound that excluded θ (lower ≥ θ accepts, upper < θ rejects).
        converged = upper - lower < tol
        accept = np.where(converged, 0.5 * (lower + upper) >= theta, lower >= theta)
        counts = np.bincount(tier, minlength=len(TIER_LABELS)).tolist()
        return accept, dict(zip(TIER_LABELS, counts)), 0

    # ------------------------------------------------------------------
    # The cascade
    # ------------------------------------------------------------------

    def _tiers(
        self,
        gaussian: Gaussian,
        pts: np.ndarray,
        delta: float,
        *,
        theta: float | None,
        tol: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the tiers; returns ``(lower, upper, tier)`` per candidate.

        ``tier`` indexes :data:`TIER_LABELS` with the tier that produced
        the row's final interval.  A row stops once its interval excludes
        ``theta`` or is narrower than ``tol``; with ``theta=None`` every
        candidate is evaluated to ``tol`` precision.
        """
        m = pts.shape[0]
        tier = np.full(m, _IMHOF, dtype=np.int8)
        if m == 0:
            return np.zeros(0), np.ones(0), tier
        if not np.isfinite(delta) or delta < 0:
            raise IntegrationError(f"delta must be finite and >= 0, got {delta}")
        obs = self.obs

        # Tier 1: one vectorised noncentral-χ² call for the whole block.
        with span_of(obs, "tier:sandwich") as span:
            bounds = chi2_sandwich_bounds_block(
                gaussian, pts, delta, dtype=self.fast_dtype
            )
            lower, upper = bounds[:, 0].copy(), bounds[:, 1].copy()
            decided = self._decided(lower, upper, theta, tol)
            tier[decided] = _SANDWICH
            if obs is not None:
                span.annotate(
                    candidates=m, decided=int(np.count_nonzero(decided))
                )

        # Tier 2: batched Ruben over the survivors, shared tables.
        undecided = np.nonzero(~decided)[0]
        if undecided.size:
            with span_of(obs, "tier:ruben") as span:
                weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
                    gaussian, pts[undecided]
                )
                lo2, hi2, ok2 = kernels.ruben_block(
                    weights,
                    np.ones_like(weights),
                    ncs,
                    delta * delta,
                    theta=theta,
                    tol=tol,
                    max_terms=MAX_TERMS,
                )
                # Ruben bounds only ever tighten the sandwich interval.
                take = np.nonzero(ok2)[0]
                rows = undecided[take]
                lower[rows] = np.maximum(lower[rows], lo2[take])
                upper[rows] = np.minimum(upper[rows], hi2[take])
                tier[rows] = _RUBEN
                if obs is not None:
                    span.annotate(
                        candidates=int(undecided.size),
                        decided=int(take.size),
                    )

            # Tier 3: one Imhof sweep over the underflow/non-convergence
            # leftovers, on the noncentralities tier 2 already holds.
            leftovers = undecided[~ok2]
            if leftovers.size:
                with span_of(obs, "tier:imhof") as span:
                    values, errors, nodes, fallbacks = imhof_cdf_block(
                        weights,
                        np.ones_like(weights),
                        ncs[~ok2],
                        delta * delta,
                        tol=TOL,
                    )
                    # Like Ruben's, Imhof's interval only tightens the
                    # sandwich: a scalar-fallback row can be far off at
                    # cond(Σ) ≳ 1e6, so the value is held inside it first.
                    lo1, hi1 = lower[leftovers], upper[leftovers]
                    values = np.clip(values, lo1, hi1)
                    lower[leftovers] = np.maximum(lo1, values - errors)
                    upper[leftovers] = np.minimum(hi1, values + errors)
                    if obs is not None:
                        span.annotate(
                            candidates=int(leftovers.size),
                            nodes=nodes,
                            scalar_fallbacks=fallbacks,
                        )

        return lower, upper, tier

    def _decided(
        self, lower: np.ndarray, upper: np.ndarray, theta: float | None, tol: float
    ) -> np.ndarray:
        converged = upper - lower < tol
        if theta is None:
            return converged
        return converged | (lower >= theta) | (upper < theta)
