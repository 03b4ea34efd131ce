"""Numerical evaluation of qualification probabilities (Phase 3).

The paper evaluates ∫_{‖x−o‖≤δ} p_q(x) dx by importance sampling — drawing
from N(q, Σ) and counting the fraction of draws that land in the δ-ball
(Section V-A).  This package implements that estimator plus alternatives
sharing one interface:

- :class:`ImportanceSamplingIntegrator` — the paper's method; its
  ``decide`` settles rows by χ² sandwich bounds first and samples the
  rest on a staged budget;
- :class:`MonteCarloIntegrator` — plain MC: uniform draws in the ball
  times the ball volume times the mean density;
- :class:`QuasiMonteCarloIntegrator` — randomized-Halton QMC;
- :class:`ExactIntegrator` — the closed-form quadratic-form CDF
  (:mod:`repro.gaussian.quadform`), zero variance, used as ground truth;
- :class:`CascadeIntegrator` — tiered deterministic θ-decisions: a batched
  Ruben series with decision-aware truncation on every row, then χ²
  sandwich bounds and one block Imhof quadrature for the rare rows it
  leaves undecided.

All of them return an :class:`IntegrationResult` carrying the estimate,
its standard error and the sample count.
"""

from repro.integrate.result import IntegrationResult
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.montecarlo import MonteCarloIntegrator
from repro.integrate.importance import ImportanceSamplingIntegrator
from repro.integrate.halton import halton_sequence, first_primes
from repro.integrate.qmc import QuasiMonteCarloIntegrator
from repro.integrate.exact import ExactIntegrator
from repro.integrate.cascade import CascadeIntegrator
from repro.integrate.antithetic import AntitheticImportanceSampler

__all__ = [
    "IntegrationResult",
    "ProbabilityIntegrator",
    "MonteCarloIntegrator",
    "ImportanceSamplingIntegrator",
    "QuasiMonteCarloIntegrator",
    "ExactIntegrator",
    "CascadeIntegrator",
    "AntitheticImportanceSampler",
    "halton_sequence",
    "first_primes",
]
