"""Gaussian mixture query objects (multi-hypothesis location beliefs).

Probabilistic localization often yields *multi-modal* beliefs (e.g. a
robot unsure which of two corridors it is in).  A Gaussian mixture
``Σᵢ wᵢ · N(qᵢ, Σᵢ)`` models this, and the paper's range predicate
generalizes linearly:

    P(‖x − o‖ <= δ)  =  Σᵢ wᵢ · Pᵢ(‖x − o‖ <= δ),

one quadratic-form CDF per component.  Filtering also reduces cleanly:
since Σwᵢ = 1, the mixture probability is at most max_i Pᵢ, so an object
qualifying at threshold θ must qualify the *single-component* query of at
least one component — the sound Phase-1/2 reduction implemented by
:class:`repro.core.kinds.MixtureFilterStrategy` inside the unified stage
pipeline (build a :class:`repro.core.kinds.MixtureRangeQuery` and hand it
to any engine).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import qualification_probability_exact

__all__ = ["GaussianMixture"]


class GaussianMixture:
    """An immutable finite mixture of Gaussians with positive weights."""

    __slots__ = ("_components", "_weights")

    def __init__(self, components: Sequence[Gaussian], weights=None):
        comps = list(components)
        if not comps:
            raise GeometryError("mixture needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise GeometryError(f"components have mixed dimensions {sorted(dims)}")
        if weights is None:
            w = np.full(len(comps), 1.0 / len(comps))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(comps),):
                raise GeometryError(
                    f"{len(comps)} components but weight shape {w.shape}"
                )
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise GeometryError(f"weights must be positive finite, got {w}")
            w = w / w.sum()
        w.setflags(write=False)
        self._components = tuple(comps)
        self._weights = w

    @property
    def components(self) -> tuple[Gaussian, ...]:
        return self._components

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def dim(self) -> int:
        return self._components[0].dim

    def __len__(self) -> int:
        return len(self._components)

    # ------------------------------------------------------------------
    # Moments and density
    # ------------------------------------------------------------------

    def mean(self) -> np.ndarray:
        return np.sum(
            [w * c.mean for w, c in zip(self._weights, self._components)], axis=0
        )

    def covariance(self) -> np.ndarray:
        """Total covariance: Σ wᵢ (Σᵢ + μᵢμᵢᵀ) − μμᵀ."""
        mu = self.mean()
        total = -np.outer(mu, mu)
        for w, c in zip(self._weights, self._components):
            total = total + w * (c.sigma + np.outer(c.mean, c.mean))
        return total

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for w, c in zip(self._weights, self._components):
            out += w * c.pdf(pts)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        counts = rng.multinomial(n, self._weights)
        blocks = [
            c.sample(int(count), rng)
            for c, count in zip(self._components, counts)
            if count
        ]
        samples = np.vstack(blocks)
        rng.shuffle(samples)
        return samples

    # ------------------------------------------------------------------
    # Range predicate
    # ------------------------------------------------------------------

    def qualification_probability(self, point, delta: float) -> float:
        """Exact P(‖x − point‖ <= delta), one Imhof/Ruben call per component."""
        p = np.asarray(point, dtype=float)
        return float(
            sum(
                w * qualification_probability_exact(c, p, delta)
                for w, c in zip(self._weights, self._components)
            )
        )

    def __repr__(self) -> str:
        return (
            f"GaussianMixture(k={len(self)}, dim={self.dim}, "
            f"weights={np.round(self._weights, 3).tolist()})"
        )
