"""Gaussian distribution machinery.

This package owns every piece of Gaussian mathematics the query engine
relies on:

- :class:`~repro.gaussian.distribution.Gaussian` — the query-object
  distribution N(q, Σ) with pdf/sampling/decomposition and the
  bounding-function parameters λ∥, λ⊥ of Definition 6;
- :mod:`~repro.gaussian.radial` — the radial CDF of the *normalized*
  Gaussian (a χ distribution) and the offset-sphere mass (a noncentral χ²
  CDF), the closed forms behind both U-catalogs;
- :mod:`~repro.gaussian.quadform` — exact CDFs of Gaussian quadratic forms
  (Imhof's inversion and Ruben's series), i.e. exact qualification
  probabilities to validate the Monte Carlo integrators against.
"""

from repro.gaussian.distribution import Gaussian
from repro.gaussian.mixture import GaussianMixture
from repro.gaussian.radial import (
    alpha_for_mass,
    offset_sphere_mass,
    radial_cdf,
    radial_ppf,
    r_theta,
)
from repro.gaussian.quadform import (
    GaussianQuadraticForm,
    imhof_cdf,
    qualification_probability_exact,
    ruben_cdf,
)

__all__ = [
    "Gaussian",
    "GaussianMixture",
    "radial_cdf",
    "radial_ppf",
    "r_theta",
    "offset_sphere_mass",
    "alpha_for_mass",
    "GaussianQuadraticForm",
    "imhof_cdf",
    "ruben_cdf",
    "qualification_probability_exact",
]
