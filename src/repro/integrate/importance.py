"""The paper's integrator: importance sampling from the query Gaussian.

Section V-A: "We generate random numbers that obey a Gaussian distribution
and derive the ratio such that random numbers enter the specified region.
The ratio corresponds to the probability to be estimated."  The estimator
is a binomial hit ratio, so its standard error is √(p̂(1−p̂)/n).

Two execution modes are provided:

- *independent* (the paper's): every candidate gets a fresh sample set of
  size ``n_samples`` — unbiased, but n_samples·|candidates| draws per query;
- *shared* (:meth:`qualification_probabilities`): one sample set is drawn
  per query and reused for every candidate, making Phase 3 cost one draw
  plus |candidates| vectorised distance passes.  Estimates become
  positively correlated across candidates but remain individually unbiased.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult

__all__ = ["ImportanceSamplingIntegrator"]


def _binomial_stderr(p_hat: float, n: int) -> float:
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))


class ImportanceSamplingIntegrator(ProbabilityIntegrator):
    """Hit-ratio estimator under N(q, Σ) draws.

    Parameters
    ----------
    n_samples:
        Draws per estimate.  The paper uses 100,000.
    seed:
        Seed for the internal PCG64 generator.  The generator is advanced
        across calls, so repeated estimates differ, but a freshly
        constructed integrator always reproduces the same stream.
    share_samples:
        When true, :meth:`qualification_probabilities` draws one common
        sample set per query instead of one per candidate.
    chunk_size:
        Memory cap for the shared-samples distance computation: candidates
        are processed in blocks of this many rows.
    """

    name = "importance"

    def __init__(
        self,
        n_samples: int = 100_000,
        seed: int = 0,
        *,
        share_samples: bool = False,
        chunk_size: int = 256,
    ):
        if n_samples < 1:
            raise IntegrationError(f"n_samples must be >= 1, got {n_samples}")
        if chunk_size < 1:
            raise IntegrationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.n_samples = int(n_samples)
        self.share_samples = bool(share_samples)
        self.chunk_size = int(chunk_size)
        self._rng = np.random.default_rng(seed)

    @property
    def composition_independent(self) -> bool:
        """Shared-sample mode draws once per call, so grouping is inert.

        With ``share_samples`` every candidate of a ``decide`` call is
        scored against the same single draw, and per-call draws depend
        only on the RNG state at entry — partitioning candidates across
        calls with equal entry states cannot change any estimate.  The
        per-candidate mode advances the stream between candidates and is
        therefore composition-dependent.
        """
        return self.share_samples

    @property
    def cost_per_candidate(self) -> float:
        """Planner cost hint: a full fixed-budget pass per candidate.

        With ``share_samples`` the draw is amortized over the block, so
        each extra candidate only pays the distance tests (roughly half
        the per-sample work).
        """
        from repro.integrate.base import SECONDS_PER_SAMPLE

        scale = 0.5 if self.share_samples else 1.0
        return self.n_samples * SECONDS_PER_SAMPLE * scale

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        return self._estimate(gaussian, point, delta, self._workspace(gaussian))

    def _workspace(self, gaussian: Gaussian) -> tuple[np.ndarray, np.ndarray]:
        """Sample and squared-distance buffers for one run of estimates.

        A fresh sample set per candidate is several megabytes allocated
        and freed at the top of the heap; whether the allocator hands
        those pages back and re-faults them every time depends on its
        trim threshold at that moment (−25 % throughput when it does).
        One workspace per batch of candidates takes the allocator out of it.
        """
        return (
            np.empty((2, self.n_samples, gaussian.dim)),
            np.empty(self.n_samples),
        )

    def _estimate(
        self,
        gaussian: Gaussian,
        point: np.ndarray,
        delta: float,
        workspace: tuple[np.ndarray, np.ndarray],
    ) -> IntegrationResult:
        p = self._validate(gaussian, point, delta)
        work, squared = workspace
        samples = gaussian.sample(self.n_samples, self._rng, work)
        deltas = np.subtract(samples, p, out=work[0])
        np.einsum("ij,ij->i", deltas, deltas, out=squared)
        hits = int(np.count_nonzero(squared <= delta**2))
        p_hat = hits / self.n_samples
        return IntegrationResult(
            estimate=p_hat,
            stderr=_binomial_stderr(p_hat, self.n_samples),
            n_samples=self.n_samples,
            method=self.name,
        )

    def qualification_probabilities(
        self, gaussian: Gaussian, points: np.ndarray, delta: float
    ) -> list[IntegrationResult]:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            return []
        if not self.share_samples:
            workspace = self._workspace(gaussian)
            return [self._estimate(gaussian, row, delta, workspace) for row in pts]
        samples = gaussian.sample(self.n_samples, self._rng)
        results: list[IntegrationResult] = []
        threshold = delta**2
        # (n_samples, m, d) would be huge; compute squared distances via
        # the expansion ||s - o||^2 = ||s||^2 - 2 s.o + ||o||^2, with both
        # squared-norm vectors computed once for all chunks.
        s_sq = np.einsum("ij,ij->i", samples, samples)
        o_sq_all = np.einsum("ij,ij->i", pts, pts)
        for start in range(0, pts.shape[0], self.chunk_size):
            block = pts[start : start + self.chunk_size]
            o_sq = o_sq_all[start : start + self.chunk_size]
            cross = samples @ block.T
            within = (s_sq[:, None] - 2.0 * cross + o_sq[None, :]) <= threshold
            for hits in np.count_nonzero(within, axis=0):
                p_hat = float(hits) / self.n_samples
                results.append(
                    IntegrationResult(
                        estimate=p_hat,
                        stderr=_binomial_stderr(p_hat, self.n_samples),
                        n_samples=self.n_samples,
                        method=f"{self.name}-shared",
                    )
                )
        return results
