"""Integrator interface shared by Phase-3 evaluators."""

from __future__ import annotations

import abc
import copy
from collections import Counter

import numpy as np

from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.integrate.result import IntegrationResult

__all__ = ["ProbabilityIntegrator"]


class ProbabilityIntegrator(abc.ABC):
    """Evaluates P(‖x − point‖ ≤ delta) for x ~ N(q, Σ).

    Implementations must be deterministic given their construction
    arguments (stochastic ones take an explicit seed), so that experiments
    are reproducible run to run.
    """

    #: Short identifier used in reports and IntegrationResult.method.
    name: str = "abstract"

    #: Observability sink, attached by the engine's Phase 3 for the
    #: duration of a ``decide`` call (and cleared afterwards) so tier-aware
    #: backends can emit ``tier:*`` spans.  Always ``None`` outside the
    #: engine; implementations must treat it as optional and read-only.
    obs = None

    @abc.abstractmethod
    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        """Estimate the probability mass of ``gaussian`` in ball(point, delta)."""

    def qualification_probabilities(
        self, gaussian: Gaussian, points: np.ndarray, delta: float
    ) -> list[IntegrationResult]:
        """Evaluate a batch of candidate objects.

        The default loops over rows; subclasses override when they can
        share work across candidates (e.g. one common sample set).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return [
            self.qualification_probability(gaussian, row, delta) for row in pts
        ]

    def decide(
        self,
        gaussian: Gaussian,
        points: np.ndarray,
        delta: float,
        theta: float,
    ) -> tuple[np.ndarray, dict[str, int], int]:
        """Batched θ-decisions over the rows of ``points``.

        Phase 3 only needs the predicate ``p ≥ θ``, not the probability
        itself; this entry point lets decision-aware integrators (the
        cascade, the importance sampler) spend work only until each
        candidate's decision is certain.  Returns
        ``(accept, tally, samples)``: the boolean accept mask over the
        candidate rows, a ``method label → rows that method decided``
        count summing to the number of rows (the labels
        ``IntegrationResult.method`` carries), and the total Monte Carlo
        samples spent.

        The default derives all three from the full-precision estimates,
        so for any integrator ``decide`` is exactly
        ``qualification_probabilities`` + the ``estimate ≥ θ`` rule — the
        engine can call it unconditionally without changing results.
        """
        results = self.qualification_probabilities(gaussian, points, delta)
        accept = np.fromiter(
            (r.meets_threshold(theta) for r in results),
            dtype=bool,
            count=len(results),
        )
        tally = Counter(r.method for r in results)
        return accept, dict(tally), sum(r.n_samples for r in results)

    def decide_candidates(
        self,
        gaussian: Gaussian,
        ids: np.ndarray,
        points: np.ndarray,
        delta: float,
        theta: float,
    ) -> tuple[np.ndarray, dict[str, int], int]:
        """:meth:`decide` with the candidate object ids alongside the rows.

        The stage pipeline's Phase 3 always calls this entry point.  The
        paper's integrand is a pure function of the candidate location,
        so the default ignores ``ids`` and delegates to :meth:`decide`;
        an adapter whose decision depends on *which* objects the rows are
        (the k-NN win counter) overrides it.
        """
        return self.decide(gaussian, points, delta, theta)

    @property
    def composition_independent(self) -> bool:
        """Whether per-candidate results ignore which candidates co-occur.

        ``True`` means a candidate's :class:`IntegrationResult` is a pure
        function of (integrator state at call entry, candidate point) — it
        does not depend on how the other candidates of a ``decide`` call
        are grouped or ordered.  That is exactly the property the sharded
        engine needs for bit-identical parity with the single-engine path:
        partitioning the candidate set across shards must not perturb any
        estimate.  Deterministic integrators (no internal RNG) qualify by
        construction; stream-advancing samplers do not, because each
        candidate consumes RNG state that shifts its successors.  RNG-free
        is detected the same way :meth:`fork` detects reseedability.
        """
        return not hasattr(self, "_rng")

    def fork(self, seed) -> "ProbabilityIntegrator":
        """A same-configuration copy with a fresh, independent RNG stream.

        ``seed`` may be anything :func:`numpy.random.default_rng` accepts,
        including a :class:`numpy.random.SeedSequence`.  The batch engine
        forks one integrator per query from a spawned seed sequence, so
        estimates depend only on (engine seed, query position) — never on
        worker count or completion order.  Deterministic integrators
        (no internal RNG) are simply deep-copied.
        """
        clone = copy.deepcopy(self)
        if hasattr(clone, "_rng"):
            clone._rng = np.random.default_rng(seed)
        return clone

    @staticmethod
    def _validate(gaussian: Gaussian, point: np.ndarray, delta: float) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (gaussian.dim,):
            raise IntegrationError(
                f"point shape {p.shape} does not match query dimension {gaussian.dim}"
            )
        _check_delta(delta)
        return p

    @staticmethod
    def _validate_block(
        gaussian: Gaussian, points: np.ndarray, delta: float
    ) -> np.ndarray:
        """:meth:`_validate` for a whole ``(m, d)`` block, checked once."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != gaussian.dim:
            raise IntegrationError(
                f"points shape {pts.shape} does not match query dimension "
                f"{gaussian.dim}"
            )
        _check_delta(delta)
        return pts


def _check_delta(delta: float) -> None:
    if not np.isfinite(delta) or delta < 0:
        raise IntegrationError(f"delta must be finite and >= 0, got {delta}")
