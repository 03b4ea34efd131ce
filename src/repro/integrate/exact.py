"""Exact Phase-3 evaluator backed by the quadratic-form CDF.

Not available to the original system (the paper states Gaussian densities
"cannot be integrated analytically" over spheres and relies on Monte
Carlo); we expose it both as ground truth for testing the stochastic
integrators and as an optional deterministic engine configuration — the
ablation benchmark compares the two regimes.
"""

from __future__ import annotations

import numpy as np

from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import qualification_probability_exact
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult

__all__ = ["ExactIntegrator"]


class ExactIntegrator(ProbabilityIntegrator):
    """Computes qualification probabilities exactly: Ruben's series, with
    Imhof's inversion as the fallback where the series underflows."""

    name = "exact"

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        p = self._validate(gaussian, point, delta)
        value = qualification_probability_exact(gaussian, p, delta)
        return IntegrationResult(
            estimate=value, stderr=0.0, n_samples=0, method="exact-ruben"
        )
