"""Convolved-Gaussian reach bounds for uncertain-target queries.

When the query location is x ~ N(q, Σ_q) and a target's location is
y ~ N(o, Σ_o) with x ⊥ y, the displacement x − y is N(q − o, Σ_q + Σ_o),
so

    P(‖x − y‖ <= δ)  =  P(‖z − o‖ <= δ)  for z ~ N(q, Σ_q + Σ_o)

— the two-sided problem collapses to the paper's one-sided machinery with
a per-target covariance.  This module owns the *conservative* Phase-1
reach bound shared by every uncertain-target code path: the radius α such
that any target mean farther than α from q provably fails the threshold θ
under its convolved Gaussian, for *any* target covariance whose largest
eigenvalue is at most ``max_target_eig``.

The bound follows the paper's Eq. 29 bounding-function argument with the
convolved principal eigenvalue λ∥ = 1 / (λ_max(Σ_q) + max_target_eig):
the convolved density is everywhere dominated by the isotropic bounding
function with that eigenvalue, and because det(Σ_q + Σ_o) >= det(Σ_q) the
scaled threshold built from det(Σ_q) alone is smaller — hence safer
(a smaller θ gives a larger α).
"""

from __future__ import annotations

from functools import partial

from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.radial import alpha_for_mass, rescaled_alpha

__all__ = ["conservative_reach_alpha"]


def conservative_reach_alpha(
    gaussian: Gaussian,
    delta: float,
    theta: float,
    max_target_eig: float,
) -> float | None:
    """Conservative qualification radius under target-covariance convolution.

    Parameters
    ----------
    gaussian:
        The query object's distribution N(q, Σ_q).
    delta, theta:
        The PRQ distance bound and probability threshold.
    max_target_eig:
        An upper bound on the largest eigenvalue of any target covariance
        Σ_o.  Pass ``0.0`` for exact targets (the bound then reduces to
        the paper's single-Gaussian α).

    Returns
    -------
    float | None
        α such that every target mean with ‖o − q‖ > α has qualification
        probability < θ under N(q, Σ_q + Σ_o), or ``None`` when *no*
        location can reach the threshold (the query answer is provably
        empty).
    """
    if max_target_eig < 0.0:
        raise QueryError(
            f"max_target_eig must be >= 0, got {max_target_eig}"
        )
    lam_par = 1.0 / (gaussian.eigenvalues[0] + max_target_eig)
    # det(Sigma_q + Sigma_o) >= det(Sigma_q); the scaled theta of Eq. 29
    # shrinks with a smaller determinant, and a smaller theta gives a
    # larger (safer) alpha, so rescale with the query's own det(Sigma_q).
    return rescaled_alpha(
        gaussian, lam_par, delta, theta,
        partial(alpha_for_mass, gaussian.dim, prune=True),
    )
