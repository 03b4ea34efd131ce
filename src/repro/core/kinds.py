"""Query kinds: every query type behind the one stage pipeline.

The paper's engine processes PRQ(q, δ, θ) with exact target locations.
This module folds the repository's other query types into the same
Search → Filter → Integrate pipeline.  Each kind is a frozen subclass of
:class:`ProbabilisticRangeQuery`:

- uncertain targets (:class:`UncertainTargetQuery`) need no adapter:
  :func:`query_legs` reduces one to ordinary exact-target PRQs, one per
  target covariance group, which the engines plan and run like any other;
- Gaussian-mixture query objects (:class:`MixtureRangeQuery`) and
  probabilistic k-NN (:class:`KNNQuery`) get a pair of adapters from
  :func:`adapt_pipeline` — a kind-specific
  :class:`~repro.core.strategies.Strategy` contributing the Phase-1
  search rectangle and the Phase-2 pruning bounds (per-component union
  for mixtures, the sample-driven candidate cut for k-NN) and a
  kind-specific :class:`~repro.integrate.base.ProbabilityIntegrator`
  supplying the Phase-3 integrand (the weighted mixture sum, per-sample
  win counting).

``SearchStage``/``FilterStage``/``IntegrateStage`` stay kind-agnostic:
they talk to strategies and integrators through the
``classify_candidates`` / ``decide_candidates`` protocol extensions,
which add candidate *ids* to the classify/decide calls so per-object
state (which covariance group an object belongs to, which competitors a
k-NN sample sees) never leaks into the stage bodies.  Like ``decide``,
``decide_candidates`` hands Phase 3 a block, not objects:
``(accept, tally, samples)`` — the accept mask over the rows, the rows
each method label decided, and the Monte Carlo samples spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import phase1_rect
from repro.core.stats import QueryStats
from repro.core.strategies import REJECT, UNKNOWN, Strategy
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.mixture import GaussianMixture
from repro.geometry.mbr import Rect
from repro.geometry.transforms import SYMMETRY_RTOL
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.result import IntegrationResult

__all__ = [
    "QUERY_KINDS",
    "query_kind",
    "adapt_pipeline",
    "query_legs",
    "UncertainTargetQuery",
    "MixtureRangeQuery",
    "KNNQuery",
    "UncertainObject",
    "TargetCovarianceTable",
    "TargetGroupStrategy",
    "MixtureFilterStrategy",
    "MixtureDecider",
    "KNNCutStrategy",
    "KNNDecider",
]

#: Every kind the unified pipeline executes.
QUERY_KINDS: tuple[str, ...] = ("prq", "uncertain", "mixture", "knn")


def query_kind(query: ProbabilisticRangeQuery) -> str:
    """The kind tag of a query object (``"prq"`` for the base class)."""
    return getattr(query, "kind", "prq")


# ----------------------------------------------------------------------
# Kinded query specifications
# ----------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class UncertainTargetQuery(ProbabilisticRangeQuery):
    """PRQ whose *targets* are themselves Gaussian (paper future work).

    Identical specification to the base PRQ — the target covariances live
    in the database's :class:`TargetCovarianceTable`, not in the query —
    but the kind tag makes the engines run it as one PRQ over the
    convolved Gaussian N(q, Σ_q + Σ_g) per covariance group g
    (:func:`query_legs`).
    """

    kind = "uncertain"

    def __repr__(self) -> str:
        return (
            f"UncertainTargetQuery(center="
            f"{np.round(self.center, 4).tolist()}, "
            f"delta={self.delta:g}, theta={self.theta:g})"
        )


@dataclass(frozen=True, repr=False)
class MixtureRangeQuery(ProbabilisticRangeQuery):
    """PRQ whose query object is a :class:`GaussianMixture`.

    ``gaussian`` holds the moment-matched *envelope* N(μ_mix, Σ_mix) used
    only for dimension checks; the actual
    search/filter/integrate work runs against the components.  Build via
    :meth:`create` to get the envelope right.
    """

    kind = "mixture"

    mixture: GaussianMixture | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.mixture, GaussianMixture):
            raise QueryError(
                "MixtureRangeQuery needs a GaussianMixture; build one via "
                "MixtureRangeQuery.create(mixture, delta, theta)"
            )
        if self.mixture.dim != self.gaussian.dim:
            raise QueryError(
                f"mixture dimension {self.mixture.dim} does not match "
                f"envelope dimension {self.gaussian.dim}"
            )

    @classmethod
    def create(
        cls, mixture: GaussianMixture, delta: float, theta: float
    ) -> "MixtureRangeQuery":
        """Build the query with its moment-matched envelope Gaussian."""
        envelope = Gaussian(mixture.mean(), mixture.covariance())
        return cls(envelope, float(delta), float(theta), mixture=mixture)

    def __repr__(self) -> str:
        return (
            f"MixtureRangeQuery(k={len(self.mixture)}, "
            f"delta={self.delta:g}, theta={self.theta:g})"
        )


@dataclass(frozen=True, repr=False)
class KNNQuery(ProbabilisticRangeQuery):
    """Probabilistic k-NN: objects that are a k-NN of the query w.p. ≥ θ.

    ``delta`` is a placeholder (the k-NN predicate has no distance
    threshold); build via :meth:`create`.  ``seed`` pins the Monte Carlo
    sample stream — the default 0 matches
    :func:`repro.core.nn.probabilistic_nearest_neighbors`; pass ``None``
    to derive the stream from the engine's per-query seed instead.
    """

    kind = "knn"

    k: int = 1
    n_samples: int = 2_000
    seed: int | None = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if self.n_samples < 10:
            raise QueryError(
                f"n_samples must be >= 10, got {self.n_samples}"
            )

    @classmethod
    def create(
        cls,
        gaussian: Gaussian,
        k: int = 1,
        theta: float = 0.5,
        *,
        n_samples: int = 2_000,
        seed: int | None = 0,
    ) -> "KNNQuery":
        return cls(
            gaussian, 1.0, float(theta), k=int(k), n_samples=int(n_samples),
            seed=seed,
        )

    def __repr__(self) -> str:
        return (
            f"KNNQuery(center={np.round(self.center, 4).tolist()}, "
            f"k={self.k}, theta={self.theta:g}, n_samples={self.n_samples})"
        )


# ----------------------------------------------------------------------
# Uncertain targets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UncertainObject:
    """A target object whose location is itself Gaussian."""

    obj_id: int
    gaussian: Gaussian

    @property
    def mean(self) -> np.ndarray:
        return self.gaussian.mean


class TargetCovarianceTable:
    """Per-object target covariances, deduplicated by matrix bytes.

    Most uncertain databases share a handful of sensor models across many
    objects, so the table stores each distinct Σ_o once (a *group*) and
    maps object ids to groups.  Every Σ_o must be finite, symmetric and
    positive semi-definite (zero is an exact target).  An uncertain-target
    query runs as one exact-target PRQ per group (:func:`query_legs`).
    """

    def __init__(
        self, group_of: dict[int, int], sigmas: Sequence[np.ndarray]
    ):
        mats = [np.asarray(s, dtype=float) for s in sigmas]
        if not mats:
            raise QueryError("target table needs at least one covariance")
        dims = {m.shape for m in mats}
        if len(dims) != 1 or mats[0].ndim != 2:
            raise QueryError(
                f"target covariances must share one (d, d) shape, got "
                f"{sorted(dims)}"
            )
        if mats[0].shape[0] != mats[0].shape[1]:
            raise QueryError(
                f"target covariances must be square, got {mats[0].shape}"
            )
        self._max_eig = max(_checked_max_eig(g, m) for g, m in enumerate(mats))
        ids = np.fromiter(group_of, dtype=np.int64, count=len(group_of))
        groups = np.fromiter(
            group_of.values(), dtype=np.int64, count=len(group_of)
        )
        unknown = np.nonzero((groups < 0) | (groups >= len(mats)))[0]
        if unknown.size:
            raise QueryError(
                f"object {ids[unknown[0]]} maps to unknown covariance group "
                f"{groups[unknown[0]]}"
            )
        order = np.argsort(ids)
        self._ids = ids[order]
        self._groups = groups[order]
        self._sigmas = mats

    @classmethod
    def from_objects(cls, objects: Iterable) -> "TargetCovarianceTable":
        """Build from objects exposing ``obj_id`` and ``gaussian`` attrs
        (e.g. :class:`UncertainObject`)."""
        by_bytes: dict[bytes, int] = {}
        group_of: dict[int, int] = {}
        sigmas: list[np.ndarray] = []
        for obj in objects:
            sigma = np.asarray(obj.gaussian.sigma, dtype=float)
            key = sigma.tobytes()
            group = by_bytes.get(key)
            if group is None:
                group = len(sigmas)
                by_bytes[key] = group
                sigmas.append(sigma)
            group_of[int(obj.obj_id)] = group
        return cls(group_of, sigmas)

    @classmethod
    def shared(
        cls, sigma: np.ndarray, ids: Iterable[int]
    ) -> "TargetCovarianceTable":
        """One covariance shared by every object id."""
        return cls({int(i): 0 for i in ids}, [np.asarray(sigma, float)])

    @property
    def dim(self) -> int:
        return self._sigmas[0].shape[0]

    @property
    def n_groups(self) -> int:
        return len(self._sigmas)

    @property
    def max_eig(self) -> float:
        """Largest eigenvalue over every target covariance."""
        return self._max_eig

    def __len__(self) -> int:
        return self._ids.size

    def sigma(self, group: int) -> np.ndarray:
        return self._sigmas[group]

    def groups_for(self, ids: Iterable[int]) -> np.ndarray:
        """Group index per object id; names the first unregistered id."""
        keys = np.asarray(
            ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64
        )
        pos = np.searchsorted(self._ids, keys)
        found = pos < self._ids.size
        found[found] = self._ids[pos[found]] == keys[found]
        if not found.all():
            raise QueryError(
                f"no target covariance registered for object id "
                f"{keys[~found][0]}"
            )
        return self._groups[pos]


def _checked_max_eig(group: int, sigma: np.ndarray) -> float:
    """Largest eigenvalue of target covariance ``group``, once it is
    checked finite, symmetric and positive semi-definite to the
    tolerance :class:`Gaussian` applies."""
    if not np.isfinite(sigma).all():
        raise QueryError(f"target covariance {group} is not finite")
    atol = SYMMETRY_RTOL * max(1.0, float(np.abs(sigma).max()))
    if not np.allclose(sigma, sigma.T, atol=atol):
        raise QueryError(f"target covariance {group} is not symmetric")
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] < -atol:
        raise QueryError(
            f"target covariance {group} is not positive semi-definite "
            f"(eigenvalue {eigs[0]:g})"
        )
    return float(eigs[-1])


class TargetGroupStrategy(Strategy):
    """Membership filter of one leg of a multi-group uncertain query.

    REJECTs every candidate whose target covariance is not group
    ``group``, so each leg answers for its own objects only.  It offers no
    Phase-1 rectangle, and without ids (:meth:`classify`) it decides
    nothing.
    """

    name = "GROUP"

    def __init__(self, table: TargetCovarianceTable, group: int):
        self._table = table
        self.group = group

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        self._rect = None

    def classify(self, points: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(points)), UNKNOWN, dtype=np.int8)

    def classify_candidates(
        self, ids: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        member = self._table.groups_for(ids) == self.group
        return np.where(member, UNKNOWN, REJECT).astype(np.int8)


def query_legs(
    query: ProbabilisticRangeQuery, targets: TargetCovarianceTable | None
) -> list[tuple[ProbabilisticRangeQuery, list[Strategy]]]:
    """The legs a query runs as: ``(leg query, strategies that go ahead
    of the leg's own)`` pairs, the answer being the union of the legs'.

    Every kind but ``"uncertain"`` is its own single leg.  For x ~ N(q,
    Σ_q) and a target o ~ N(μ_o, Σ_o), Pr(‖x − o‖ ≤ δ) is the
    exact-target probability of μ_o under N(q, Σ_q + Σ_o); so an
    uncertain-target query is one ordinary PRQ(N(q, Σ_q + Σ_g), δ, θ) per
    covariance group g of ``targets``, restricted to that group's objects
    by a :class:`TargetGroupStrategy` when there is more than one group.
    """
    if query_kind(query) != "uncertain":
        return [(query, [])]
    if targets is None:
        raise QueryError(
            "uncertain-target queries need a database built with a "
            "TargetCovarianceTable (SpatialDatabase(..., target_table=...))"
        )
    if query.dim != targets.dim:
        raise QueryError(
            f"query dimension {query.dim} does not match target "
            f"covariance dimension {targets.dim}"
        )
    legs = []
    for group in range(targets.n_groups):
        convolved = Gaussian(
            query.center, query.gaussian.sigma + targets.sigma(group)
        )
        leg = ProbabilisticRangeQuery(convolved, query.delta, query.theta)
        restrict = (
            [TargetGroupStrategy(targets, group)] if targets.n_groups > 1 else []
        )
        legs.append((leg, restrict))
    return legs


# ----------------------------------------------------------------------
# Gaussian-mixture query objects
# ----------------------------------------------------------------------


class MixtureFilterStrategy(Strategy):
    """Mixture Phase-1/2 adapter: per-component filters, unioned.

    Since Σwᵢ = 1, the mixture probability is at most max_i Pᵢ, so every
    answer qualifies some component's single-Gaussian query at the same
    θ.  Preparation runs the base strategy templates once per component
    (dropping components a strategy proves empty); the Phase-1 rectangle
    is the *union* of the per-component intersections, and a candidate is
    REJECTed only when **every** live component rejects it (never
    free-ACCEPTed: one component's acceptance does not certify the
    mixture threshold).
    """

    name = "MIX"

    def __init__(self, templates: Sequence[Strategy], mixture: GaussianMixture):
        self._templates = [t.clone() for t in templates]
        self._mixture = mixture
        self._live: list[tuple[Rect, list[Strategy]]] | None = None

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        if self._mixture.dim != query.dim:
            raise QueryError(
                f"mixture dimension {self._mixture.dim} does not match "
                f"query dimension {query.dim}"
            )
        live: list[tuple[Rect, list[Strategy]]] = []
        for component in self._mixture.components:
            sub = ProbabilisticRangeQuery(component, query.delta, query.theta)
            strategies = [t.clone() for t in self._templates]
            rect = phase1_rect(sub, strategies, QueryStats(), dim=query.dim)
            if rect is not None:
                live.append((rect, strategies))
        self._live = live
        self._rect = Rect.union_of(rect for rect, _ in live) if live else None

    @property
    def proves_empty(self) -> bool:
        self._require_prepared("_live")
        return not self._live

    @property
    def n_live(self) -> int:
        """Components whose Phase-1 region survived preparation."""
        self._require_prepared("_live")
        return len(self._live)

    @property
    def n_components(self) -> int:
        return len(self._mixture)

    def classify(self, points: np.ndarray) -> np.ndarray:
        self._require_prepared("_live")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        alive = np.zeros(pts.shape[0], dtype=bool)
        for rect, strategies in self._live:
            pending = rect.contains_points(pts) & ~alive
            if not np.any(pending):
                continue
            undecided = pending.copy()
            for strategy in strategies:
                if not np.any(undecided):
                    break
                codes = strategy.classify(pts[undecided])
                idx = np.nonzero(undecided)[0]
                undecided[idx[codes == REJECT]] = False
            alive |= undecided
        return np.where(alive, UNKNOWN, REJECT).astype(np.int8)


class MixtureDecider(ProbabilityIntegrator):
    """Phase-3 adapter: the weighted mixture qualification probability.

    With a base integrator the estimate is Σ wᵢ · baseᵢ(point) — for
    :class:`repro.integrate.exact.ExactIntegrator` this reproduces
    :meth:`GaussianMixture.qualification_probability` bit for bit.
    Without one the exact component-wise Ruben sum is used directly.
    """

    def __init__(
        self,
        mixture: GaussianMixture,
        base: ProbabilityIntegrator | None = None,
    ):
        self._mixture = mixture
        self._base = base
        self.name = "mixture" if base is None else f"mixture({base.name})"

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        # The envelope ``gaussian`` is ignored: the integrand is the
        # mixture's own qualification probability.
        p = np.asarray(point, dtype=float)
        if self._base is None:
            estimate = self._mixture.qualification_probability(p, delta)
            return IntegrationResult(float(estimate), 0.0, 0, "mixture")
        parts = [
            self._base.qualification_probability(component, p, delta)
            for component in self._mixture.components
        ]
        weights = self._mixture.weights
        estimate = float(
            sum(w * r.estimate for w, r in zip(weights, parts))
        )
        stderr = float(
            math.sqrt(sum((w * r.stderr) ** 2 for w, r in zip(weights, parts)))
        )
        n_samples = int(sum(r.n_samples for r in parts))
        return IntegrationResult(estimate, stderr, n_samples, self.name)

    @property
    def composition_independent(self) -> bool:
        if self._base is None:
            return True
        return self._base.composition_independent

    def fork(self, seed) -> "MixtureDecider":
        base = None if self._base is None else self._base.fork(seed)
        return MixtureDecider(self._mixture, base)


# ----------------------------------------------------------------------
# Probabilistic k-NN
# ----------------------------------------------------------------------


class KNNCutStrategy(Strategy):
    """k-NN Phase-1 adapter: the sample-driven candidate cut.

    Preparation cuts the decider's samples at ``2·R + kth(q)`` (R the
    largest sample distance from the centre q, kth(q) the k-th
    neighbour distance at q).  It is sound: the k objects nearest q lie
    within ``R + kth(q)`` of any sample, so each of a sample's k nearest
    does too and lies within ``2·R + kth(q)`` of q.  Only objects inside
    the cut sphere compete in Phase 3; Phase 2 decides nothing.
    """

    name = "KNN"

    def __init__(self, decider: "KNNDecider"):
        self._decider = decider
        self._cut_radius: float | None = None

    @property
    def cut_radius(self) -> float:
        self._require_prepared("_cut_radius")
        return self._cut_radius

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        decider, k = self._decider, int(query.k)
        if k > len(decider.index):
            raise QueryError(f"k={k} exceeds database size {len(decider.index)}")
        center = query.center
        reach = float(np.linalg.norm(decider.samples - center, axis=1).max())
        self._cut_radius = 2.0 * reach + decider.index.knn(center, k)[-1][1]
        decider.cut = (center, self._cut_radius)
        self._rect = Rect.from_center(center, np.full(query.dim, self._cut_radius))

    def classify(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(pts.shape[0], UNKNOWN, dtype=np.int8)


class KNNDecider(ProbabilityIntegrator):
    """Phase-3 adapter: per-sample win counting over the candidate block.

    Estimates P(o is among the k nearest objects) as the share of samples
    whose k nearest *competitors* (the candidates inside the cut sphere)
    include o — by the cut's soundness, the share over the whole
    database.  For k = 1 a winner's bisector upper bound against its four
    nearest other objects in ``index`` must reach θ too.
    :meth:`win_fractions` serves :meth:`decide_candidates` and
    :func:`repro.core.nn.probabilistic_nearest_neighbors` alike.
    """

    name = "knn-mc"

    def __init__(self, index, query: KNNQuery, rng: np.random.Generator):
        self.index = index
        self.k = int(query.k)
        self.n_samples = int(query.n_samples)
        #: The Monte Carlo query locations, drawn once.
        self.samples = query.gaussian.sample(self.n_samples, rng)
        #: ``(centre, radius)`` of the cut sphere, set by the cut strategy.
        self.cut: tuple[np.ndarray, float] | None = None

    def qualification_probability(
        self, gaussian: Gaussian, point: np.ndarray, delta: float
    ) -> IntegrationResult:
        raise QueryError(
            "k-NN probabilities depend on the whole candidate block; use "
            "decide_candidates"
        )

    def win_fractions(
        self, gaussian: Gaussian, ids: np.ndarray, points: np.ndarray, theta: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, fractions, qualify)`` over the candidate rows.

        ``rows`` are the competitors (the rows inside the cut sphere), in
        row order; ``fractions`` the share of samples each one is among
        the k nearest competitors of; ``qualify`` marks the competitors
        whose fraction reaches θ and, for k = 1, whose bisector upper
        bound does too.
        """
        if self.cut is None:
            raise QueryError("KNN decider used before its cut strategy prepared")
        center, radius = self.cut
        deltas = points - center
        rows = np.nonzero(np.sqrt(np.einsum("ij,ij->i", deltas, deltas)) <= radius)[0]
        candidates = points[rows]
        wins = np.zeros(rows.size, dtype=np.int64)
        chunk = max(1, 2_000_000 // max(1, rows.size))
        # With no competitor there is nothing to rank.
        for start in range(0, self.n_samples if rows.size else 0, chunk):
            block = self.samples[start : start + chunk]
            d2 = (
                np.einsum("ij,ij->i", block, block)[:, None]
                - 2.0 * block @ candidates.T
                + np.einsum("ij,ij->i", candidates, candidates)[None, :]
            )
            if self.k == 1:
                nearest = np.argmin(d2, axis=1)
                np.add.at(wins, nearest, 1)
            else:
                nearest = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
                np.add.at(wins, nearest.ravel(), 1)
        fractions = wins / self.n_samples
        qualify = fractions >= theta
        if self.k == 1 and qualify.any():
            winners = rows[qualify]
            qualify[qualify] = (
                self._bisector_bounds(gaussian, ids[winners], points[winners]) >= theta
            )
        return rows, fractions, qualify

    def _bisector_bounds(
        self, gaussian: Gaussian, ids: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Bisector upper bounds against each object's four nearest others
        in the index, all in the pool of the objects' five nearest."""
        from repro.core.nn import bisector_upper_bounds

        pool = dict.fromkeys(ids.tolist())
        for point in points:
            pool.update((obj_id, None) for obj_id, _ in self.index.knn(point, 5))
        rivals = list(pool)[ids.size :]
        pooled = np.vstack([points, self.index.points_of(rivals)])
        return bisector_upper_bounds(gaussian, pooled)[: ids.size]

    def decide_candidates(
        self,
        gaussian: Gaussian,
        ids: np.ndarray,
        points: np.ndarray,
        delta: float,
        theta: float,
    ) -> tuple[np.ndarray, dict[str, int], int]:
        rows, _, qualify = self.win_fractions(gaussian, ids, points, theta)
        accept = np.zeros(len(points), dtype=bool)
        accept[rows[qualify]] = True
        tally = {"knn-cut": accept.size - rows.size, "knn-mc": rows.size}
        return accept, tally, self.n_samples * rows.size


# ----------------------------------------------------------------------
# The one entry point the engines call
# ----------------------------------------------------------------------


def adapt_pipeline(
    query: ProbabilisticRangeQuery,
    strategies: list[Strategy],
    integrator: ProbabilityIntegrator,
    *,
    index,
    seed=None,
) -> tuple[list[Strategy], ProbabilityIntegrator]:
    """Swap in the kind-specific strategy list and integrator wrapper.

    Exact-target PRQs — the legs of an uncertain-target query among them
    (:func:`query_legs`) — pass through untouched (the hot path).  For
    the other kinds the returned pair plugs straight into the
    kind-agnostic stage pipeline:

    - ``"mixture"`` — the base strategies become per-component templates
      of a :class:`MixtureFilterStrategy` and the integrator evaluates
      components inside a :class:`MixtureDecider`;
    - ``"knn"`` — a fresh :class:`KNNCutStrategy`/:class:`KNNDecider`
      pair seeded from ``query.seed`` (or the engine's per-query
      ``seed`` when the query leaves it ``None``).
    """
    kind = query_kind(query)
    if kind == "prq":
        return strategies, integrator
    if kind == "mixture":
        return (
            [MixtureFilterStrategy(strategies, query.mixture)],
            MixtureDecider(query.mixture, integrator),
        )
    if kind == "knn":
        rng_seed = query.seed if query.seed is not None else seed
        decider = KNNDecider(index, query, np.random.default_rng(rng_seed))
        return [KNNCutStrategy(decider)], decider
    raise QueryError(f"no pipeline adapters for query kind {kind!r}")
