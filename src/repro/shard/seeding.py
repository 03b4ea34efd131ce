"""Candidate-keyed seeding: shard-composition independence for samplers.

Most sampling integrators advance one RNG stream *across* candidates
(each candidate's draw starts where the previous candidate's ended), so
their estimates depend on which candidates share a ``decide`` call.
Partitioning the candidate set across shards changes that grouping and
would change the estimates — exactly what the sharded engine must never
do.

:class:`CandidateSeededIntegrator` removes the coupling: every candidate
is evaluated by a fresh fork of the wrapped integrator, seeded from
``(query entropy, candidate point)``.  The per-candidate estimate is
then a pure function of (wrapped integrator's entry state, candidate
coordinates) — independent of shard count, shard membership, worker
count and evaluation order.  Integrators that already share one draw per
call (``share_samples=True``) or are deterministic don't need the
wrapper; :attr:`ProbabilityIntegrator.composition_independent` reports
which is which.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.gaussian.distribution import Gaussian
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult

__all__ = ["CandidateSeededIntegrator"]


def _state_entropy(integrator: ProbabilityIntegrator) -> int:
    """A stable 128-bit digest of the integrator's RNG entry state.

    Fingerprinting the *state* (rather than, say, ``id()``) keeps the
    wrapper a pure function: two wrapped integrators forked from the same
    seed produce identical per-candidate streams, wherever they run.
    """
    rng = getattr(integrator, "_rng", None)
    if rng is None:
        return 0
    payload = json.dumps(
        rng.bit_generator.state, sort_keys=True, default=int
    ).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")


def _point_key(point: np.ndarray) -> int:
    """A 128-bit key of the candidate's exact float64 coordinates."""
    buf = np.ascontiguousarray(point, dtype=np.float64).tobytes()
    return int.from_bytes(hashlib.sha256(buf).digest()[:16], "big")


class CandidateSeededIntegrator(ProbabilityIntegrator):
    """Evaluate each candidate with a per-candidate fork of ``base``.

    The fork seed is ``SeedSequence([entry-state digest, point digest])``,
    so a candidate's estimate never depends on its neighbours.  The
    wrapper reports ``composition_independent = True`` by construction;
    note the estimates *differ* from running the unwrapped ``base`` over
    the whole candidate block (they come from different streams) — the
    guarantee is determinism across partitionings, not equality with the
    stream-advancing original.
    """

    def __init__(self, base: ProbabilityIntegrator):
        self.base = base
        self.name = f"seeded({base.name})"
        self._entropy = _state_entropy(base)

    @property
    def composition_independent(self) -> bool:
        return True

    def fork(self, seed) -> "CandidateSeededIntegrator":
        """Re-derive the wrapper around a reseeded base fork."""
        return CandidateSeededIntegrator(self.base.fork(seed))

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        p = self._validate(gaussian, point, delta)
        fork = self.base.fork(
            np.random.SeedSequence([self._entropy, _point_key(p)])
        )
        return fork.qualification_probability(gaussian, p, delta)
