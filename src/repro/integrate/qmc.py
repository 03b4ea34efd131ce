"""Randomized quasi-Monte Carlo integrator.

Halton points in the unit cube are mapped through the inverse normal CDF
and the query's whitening transform into N(q, Σ) samples; the estimator is
the same hit ratio as importance sampling, but the low-discrepancy design
converges roughly like n⁻¹ instead of n^{-1/2} in low dimension.  A small
number of independent Cranley–Patterson rotations provides an unbiased
combined estimate and an empirical standard error.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.halton import halton_sequence
from repro.integrate.result import IntegrationResult

__all__ = ["QuasiMonteCarloIntegrator"]


def _inverse_normal(u: np.ndarray) -> np.ndarray:
    """Φ⁻¹ applied elementwise, with endpoints nudged into (0, 1)."""
    eps = np.finfo(float).tiny
    clipped = np.clip(u, eps, 1.0 - 1e-16)
    return special.ndtri(clipped)


class QuasiMonteCarloIntegrator(ProbabilityIntegrator):
    """Randomized-Halton hit-ratio estimator.

    Parameters
    ----------
    n_samples:
        Total budget; split evenly across ``n_replicates`` rotations.
    n_replicates:
        Independent randomizations (>= 2 so a standard error exists).
    seed:
        Seed for the rotation generator.
    """

    name = "qmc"

    def __init__(self, n_samples: int = 100_000, n_replicates: int = 8, seed: int = 0):
        if n_replicates < 2:
            raise IntegrationError(f"n_replicates must be >= 2, got {n_replicates}")
        if n_samples < n_replicates:
            raise IntegrationError(
                f"n_samples ({n_samples}) must be >= n_replicates ({n_replicates})"
            )
        self.n_samples = int(n_samples)
        self.n_replicates = int(n_replicates)
        self._rng = np.random.default_rng(seed)

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        p = self._validate(gaussian, point, delta)
        per_replicate = self.n_samples // self.n_replicates
        threshold = delta**2
        estimates = np.empty(self.n_replicates)
        for rep in range(self.n_replicates):
            shift = self._rng.random(gaussian.dim)
            cube = halton_sequence(per_replicate, gaussian.dim, shift=shift)
            samples = gaussian.whitening.unwhiten(_inverse_normal(cube))
            deltas = samples - p
            hits = np.count_nonzero(
                np.einsum("ij,ij->i", deltas, deltas) <= threshold
            )
            estimates[rep] = hits / per_replicate
        estimate = float(estimates.mean())
        stderr = float(estimates.std(ddof=1) / np.sqrt(self.n_replicates))
        return IntegrationResult(
            estimate=estimate,
            stderr=stderr,
            n_samples=per_replicate * self.n_replicates,
            method=self.name,
        )
