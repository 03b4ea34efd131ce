"""The paper's integrator: importance sampling from the query Gaussian.

Section V-A: "We generate random numbers that obey a Gaussian distribution
and derive the ratio such that random numbers enter the specified region.
The ratio corresponds to the probability to be estimated."  The estimator
is a binomial hit ratio, so its standard error is √(p̂(1−p̂)/n).

Two execution modes are provided:

- *independent* (the paper's): every candidate gets a fresh sample set of
  size ``n_samples`` — unbiased, but n_samples·|candidates| draws per query;
- *shared* (``share_samples=True``): one sample set is drawn per query (per
  look in ``decide``) and reused for every candidate, making Phase 3 cost
  one draw plus
  |candidates| vectorised distance passes.  Estimates become positively
  correlated across candidates but remain individually unbiased.

:meth:`~ImportanceSamplingIntegrator.qualification_probabilities` is the
paper's fixed-budget estimator: every candidate gets all ``n_samples``
draws.  :meth:`~ImportanceSamplingIntegrator.decide`, the engine's Phase-3
entry, needs only the predicate p ≥ θ (the point Bernecker et al. make for
probabilistic pruning) and spends draws only until a row's decision is
certain:

1. one χ² sandwich call (:func:`repro.gaussian.quadform.chi2_sandwich_bounds_block`)
   over the block — a row whose rigorous [lower, upper] interval excludes θ
   is decided with no draws at all;
2. the other rows are drawn at the cumulative looks of
   :data:`LOOK_DIVISORS` and stop at the first look whose Wilson interval
   excludes θ; a row still open at the last look is decided by p̂ ≥ θ on
   the full budget, exactly as the fixed-budget estimator decides it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import chi2_sandwich_bounds_block
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult

__all__ = ["ImportanceSamplingIntegrator"]

#: Cumulative draws at the looks of :meth:`ImportanceSamplingIntegrator.decide`,
#: as divisors of ``n_samples``: 1 %, 10 %, then the full budget.
LOOK_DIVISORS = (100, 10, 1)

#: Half-width, in standard errors, of the Wilson score interval that must
#: exclude θ for a row to stop at an early look.  Under the normal
#: approximation behind the interval, a row whose probability lies on the
#: other side of θ stops at one look with probability at most
#: Φ(−5) ≈ 2.9e-7, so at most 5.7e-7 over the two early looks; the last
#: look decides as the fixed budget does.
WILSON_Z = 5.0


def _binomial_stderr(p_hat: float, n: int) -> float:
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))


def _wilson_verdict(
    hits: np.ndarray, n: int, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(accept, reject)``: the z = :data:`WILSON_Z` Wilson interval of
    ``hits / n`` lies at or above θ, or wholly below it."""
    z2 = WILSON_Z * WILSON_Z
    p = hits / n
    shrink = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / shrink
    half = WILSON_Z * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / shrink
    return centre - half >= theta, centre + half < theta


class ImportanceSamplingIntegrator(ProbabilityIntegrator):
    """Hit-ratio estimator under N(q, Σ) draws.

    Parameters
    ----------
    n_samples:
        Draws per estimate.  The paper uses 100,000.  :meth:`decide` spends
        at most this many per candidate, and usually far fewer.
    seed:
        Seed for the internal PCG64 generator.  The generator is advanced
        across calls, so repeated estimates differ, but a freshly
        constructed integrator always reproduces the same stream.
    share_samples:
        When true, every candidate of a call is scored against one common
        sample set (one per look in :meth:`decide`) instead of its own.
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
        """Shared-sample mode follows a fixed draw schedule, so grouping is inert.

        With ``share_samples`` every look draws one sample set for all
        candidates still open, and the look sizes depend only on
        ``n_samples``: a row's result is a function of the RNG state at
        call entry and its own point — partitioning candidates across
        calls with equal entry states cannot change any decision.  The
        per-candidate mode advances the stream between candidates and is
        therefore composition-dependent.
        """
        return self.share_samples

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        p = self._validate(gaussian, point, delta)
        hits = self._draw_hits(
            gaussian, p, delta, self.n_samples, self._workspace(gaussian)
        )
        return self._result(hits, self.name)

    def qualification_probabilities(
        self, gaussian: Gaussian, points: np.ndarray, delta: float
    ) -> list[IntegrationResult]:
        pts = self._validate_block(gaussian, points, delta)
        if pts.shape[0] == 0:
            return []
        if not self.share_samples:
            workspace = self._workspace(gaussian)
            return [
                self._result(
                    self._draw_hits(gaussian, row, delta, self.n_samples, workspace),
                    self.name,
                )
                for row in pts
            ]
        samples = gaussian.sample(self.n_samples, self._rng)
        label = f"{self.name}-shared"
        return [
            self._result(int(hits), label)
            for hits in self._shared_hits(samples, pts, delta)
        ]

    def decide(
        self,
        gaussian: Gaussian,
        points: np.ndarray,
        delta: float,
        theta: float,
    ) -> tuple[np.ndarray, dict[str, int], int]:
        """θ-decisions from the χ² sandwich first, then a staged budget.

        Rows the sandwich settles are tallied as ``"<name>-sandwich"`` and
        draw nothing; the rest are tallied under the sampling label
        (``"<name>"`` or ``"<name>-shared"``).  ``samples`` is the sum over
        rows of the draws each row was scored against.
        """
        pts = self._validate_block(gaussian, points, delta)
        m = pts.shape[0]
        if m == 0:
            return np.zeros(0, dtype=bool), {}, 0
        bounds = chi2_sandwich_bounds_block(gaussian, pts, delta)
        accept = bounds[:, 0] >= theta
        open_rows = np.nonzero(~accept & (bounds[:, 1] >= theta))[0]
        label = f"{self.name}-shared" if self.share_samples else self.name
        tally = {f"{self.name}-sandwich": m - open_rows.size, label: open_rows.size}
        if not open_rows.size:
            return accept, tally, 0
        accept[open_rows], spent = self._staged(
            gaussian, pts[open_rows], delta, theta
        )
        return accept, tally, int(spent.sum())

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _staged(
        self, gaussian: Gaussian, points: np.ndarray, delta: float, theta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the looks over ``points``; returns ``(accept, draws per row)``."""
        workspace = None if self.share_samples else self._workspace(gaussian)
        looks = sorted({self.n_samples // k for k in LOOK_DIVISORS} - {0})
        m = points.shape[0]
        accept = np.zeros(m, dtype=bool)
        hits = np.zeros(m, dtype=np.int64)
        spent = np.zeros(m, dtype=np.int64)
        rows = np.arange(m)
        drawn = 0
        for look in looks[:-1]:
            hits[rows] += self._more_hits(
                gaussian, points[rows], delta, look - drawn, workspace
            )
            spent[rows] = drawn = look
            up, down = _wilson_verdict(hits[rows], drawn, theta)
            accept[rows[up]] = True
            rows = rows[~(up | down)]
            if not rows.size:
                return accept, spent
        hits[rows] += self._more_hits(
            gaussian, points[rows], delta, self.n_samples - drawn, workspace
        )
        spent[rows] = self.n_samples
        accept[rows] = hits[rows] / self.n_samples >= theta
        return accept, spent

    def _more_hits(
        self,
        gaussian: Gaussian,
        points: np.ndarray,
        delta: float,
        n: int,
        workspace: tuple[np.ndarray, np.ndarray] | None,
    ) -> np.ndarray:
        """Hits of ``n`` further draws per row: one common sample set in
        shared mode, fresh draws into ``workspace`` for each row otherwise."""
        if self.share_samples:
            return self._shared_hits(gaussian.sample(n, self._rng), points, delta)
        return np.fromiter(
            (self._draw_hits(gaussian, p, delta, n, workspace) for p in points),
            dtype=np.int64,
            count=points.shape[0],
        )

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

    def _draw_hits(
        self,
        gaussian: Gaussian,
        point: np.ndarray,
        delta: float,
        n: int,
        workspace: tuple[np.ndarray, np.ndarray],
    ) -> int:
        """Hits of ``n`` fresh draws in ball(point, delta), in the workspace."""
        work, squared = workspace[0][:, :n], workspace[1][:n]
        samples = gaussian.sample(n, self._rng, work)
        deltas = np.subtract(samples, point, out=work[0])
        np.einsum("ij,ij->i", deltas, deltas, out=squared)
        return int(np.count_nonzero(squared <= delta**2))

    def _shared_hits(
        self, samples: np.ndarray, points: np.ndarray, delta: float
    ) -> np.ndarray:
        """Hits of one common sample set in ball(row, delta), per row."""
        # (n_samples, m, d) would be huge; compute squared distances via
        # the expansion ||s - o||^2 = ||s||^2 - 2 s.o + ||o||^2, with both
        # squared-norm vectors computed once for all chunks, in place.
        threshold = delta**2
        s_sq = np.einsum("ij,ij->i", samples, samples)[:, None]
        o_sq = np.einsum("ij,ij->i", points, points)
        hits = np.empty(points.shape[0], dtype=np.int64)
        for start in range(0, points.shape[0], self.chunk_size):
            stop = start + self.chunk_size
            squared = samples @ points[start:stop].T
            squared *= -2.0
            squared += s_sq
            squared += o_sq[start:stop]
            hits[start:stop] = np.count_nonzero(squared <= threshold, axis=0)
        return hits

    def _result(self, hits: int, method: str) -> IntegrationResult:
        p_hat = hits / self.n_samples
        return IntegrationResult(
            estimate=p_hat,
            stderr=_binomial_stderr(p_hat, self.n_samples),
            n_samples=self.n_samples,
            method=method,
        )
