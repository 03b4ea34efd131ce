"""Cost-based adaptive query planning (``strategy="auto"``).

The paper's Tables I–III show that no fixed filter configuration wins
everywhere: pre-approximation pays off only when it prunes enough, and
the right combination depends on the query's shape (Σ), range (δ) and
threshold (θ).  ``QueryPlanner`` picks the cheapest plan per query
instead of trusting the caller:

1. **Enumerate** one candidate plan per strategy combo of its menu.  Each
   runs Phase 1 over the *intersection* of its strategies' rectangles,
   the engine's one Phase-1 policy.
2. **Predict** each plan's workload: expected Phase-1 retrievals from a
   :class:`repro.core.selectivity.SelectivityEstimator`
   (:class:`~repro.core.selectivity.UniformDensity` above d = 3) and
   expected Phase-3 candidates from the strategies' own prepared regions
   (BF's α∥/α⊥ radii, RR/OR boxes).
3. **Score** with calibrated per-strategy and per-integrator cost
   coefficients (the module's ``SEARCH_*``/``*_SECONDS`` constants and
   ``ProbabilityIntegrator.cost_per_candidate``) and pick the minimum.

Determinism contract: plans are a *pure function of the quantized query
shape*.  The planner quantizes (Σ-spectrum, δ, θ) onto a log grid, plans
against a canonical query reconstructed from the quantized key (centered
at the data centre), and memoizes the decision in a thread-safe LRU
cache.  Because the decision never depends on the concrete query center,
batch order or cache warmth, ``run_batch`` stays bit-identical across
worker counts and across cold/warm caches — repeated workload shapes
simply reuse their plan.

Kinded queries (:mod:`repro.core.kinds`) plan through the same cache.
An uncertain-target query never reaches the planner as such: the engines
plan each of its legs, exact-target PRQs over convolved Gaussians.
Mixtures are planned on their moment-matched envelope over the normal
combo menu, while k-NN queries get a single fixed plan whose spec is the
kind name — the engine recognizes that the spec is not a strategy combo
and lets ``adapt_pipeline`` install the kind's dedicated stages.  The
cache key gains a kind tag plus the kind parameters that change the plan
(component count, ``k``).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.kinds import query_kind
from repro.core.query import ProbabilisticRangeQuery
from repro.core.selectivity import (
    SelectivityEstimator,
    UniformDensity,
    undecided_mass,
)
from repro.core.stages import combined_search_rect
from repro.core.strategies import Strategy, make_strategies
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.geometry.mbr import Rect
from repro.integrate.base import ProbabilityIntegrator

__all__ = [
    "PlanChoice",
    "PlanDecision",
    "QueryPlanner",
    "quantize_log",
    "quantized_shape_key",
    "SHAPE_BINS_PER_EFOLD",
]

#: Resolution of the shape key: each of log λᵢ, log δ and log θ is rounded
#: to 1/4 e-fold.  One value for the plan cache and the serving layer's
#: result cache, whose buckets are documented as the planner's shapes.
SHAPE_BINS_PER_EFOLD = 4

#: Monte Carlo budget of one candidate-count prediction (planning-time
#: only; executed results never depend on it).
PLAN_SAMPLES = 4_000


def quantize_log(value: float) -> int:
    """Quantize a positive scalar onto the shape key's log grid."""
    return round(math.log(max(value, 1e-300)) * SHAPE_BINS_PER_EFOLD)


def quantized_shape_key(query: ProbabilisticRangeQuery) -> tuple:
    """The quantized (dim, Σ-spectrum, δ, θ) shape of a query.

    Two queries share a shape key iff their covariance spectra, ranges
    and thresholds land in the same log-grid bins — the equivalence the
    plan cache memoizes under, and the bucketing the serving layer's
    result cache groups entries by.
    """
    spectrum = tuple(
        quantize_log(ev) for ev in np.sort(query.gaussian.eigenvalues)
    )
    return (
        query.dim,
        spectrum,
        quantize_log(query.delta),
        quantize_log(query.theta),
    )

#: The strategy combinations the planner enumerates — the paper's six
#: configurations.  EM is excluded from the menu: its
#: per-candidate root find makes the classify coefficient data-dependent.
DEFAULT_COMBOS: tuple[str, ...] = (
    "rr",
    "bf",
    "rr+bf",
    "rr+or",
    "bf+or",
    "all",
)


#: Calibrated cost coefficients, all in seconds.  Measured on the 2-D
#: road workload (50k points, R*-tree); they only need to be *relatively*
#: right — the planner compares plans against each other, never against a
#: wall clock.
#:
#: Fixed Phase-1 overhead (tree descent, result assembly).
SEARCH_BASE = 5e-5
#: Per retrieved candidate: index walk + point gather.
SEARCH_PER_OBJECT = 2.5e-7
#: Per-strategy `prepare()` cost (BF's noncentral-χ² root finds dominate;
#: the `repro.gaussian.radial` memos amortize them across a workload, so
#: this is the *cold* figure scaled down).
PREPARE_SECONDS = {"RR": 2e-5, "OR": 4e-5, "BF": 2e-4, "EM": 2e-5}
#: Per-strategy `classify()` cost per candidate row.
CLASSIFY_SECONDS = {"RR": 1.5e-7, "OR": 2.5e-7, "BF": 1.2e-7, "EM": 2.0e-5}
#: Fallbacks for strategies missing from the maps (the kind strategies).
DEFAULT_PREPARE = 5e-5
DEFAULT_CLASSIFY = 5e-7

#: LRU plan-cache capacity (distinct quantized workload shapes).
CACHE_SIZE = 256


def _strategy_cost(names: Sequence[str], retrieved: float) -> float:
    """Prepare + classify cost of a strategy list over ``retrieved`` rows."""
    cost = 0.0
    for name in names:
        cost += PREPARE_SECONDS.get(name, DEFAULT_PREPARE)
        cost += CLASSIFY_SECONDS.get(name, DEFAULT_CLASSIFY) * retrieved
    return cost


@dataclass(frozen=True)
class PlanChoice:
    """One scored candidate plan."""

    #: Strategy spec string (``"rr+bf"`` …) — feed to ``make_strategies``.
    strategies: str
    #: The individual strategy names, execution order.
    strategy_names: tuple[str, ...]
    #: Predicted Phase-1 retrievals.
    predicted_retrieved: float
    #: Predicted Phase-3 candidates (after all filters).
    predicted_candidates: float
    #: Total predicted cost under the cost model, seconds.
    predicted_seconds: float


@dataclass(frozen=True)
class PlanDecision:
    """The planner's verdict for one quantized query shape."""

    chosen: PlanChoice
    #: Every plan that was scored, cheapest first.
    considered: tuple[PlanChoice, ...]
    #: The quantized cache key the decision is memoized under.
    key: tuple
    #: True when this decision came from the LRU cache.
    cache_hit: bool = False


class QueryPlanner:
    """Chooses the cheapest strategy combination per query; the caller's
    integrator and the ``"intersect"`` Phase 1 are never second-guessed.

    Parameters
    ----------
    points:
        The (n, d) points it plans over.  Their count and bounding box
        feed the uniform-density predictions, and the box's centre is the
        canonical query location plans are computed at; a d ≤ 3 planner
        also builds a :class:`SelectivityEstimator` over them.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise QueryError(
                f"points must be a non-empty (n, d) array, got shape {points.shape}"
            )
        self._total = points.shape[0]
        self._bounds = Rect(points.min(axis=0), points.max(axis=0))
        self._estimator: SelectivityEstimator | UniformDensity = (
            SelectivityEstimator(points)
            if points.shape[1] <= 3
            else UniformDensity(self._total, self._bounds)
        )
        self._cache: OrderedDict[tuple, PlanDecision] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._rotations: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def plan(
        self,
        query: ProbabilisticRangeQuery,
        integrator: ProbabilityIntegrator,
    ) -> PlanDecision:
        """The cheapest plan for ``query`` under the cost model.

        Memoized per quantized (Σ-spectrum, δ, θ, integrator) shape; the
        decision is a pure function of that key, so identical shapes get
        identical plans regardless of arrival order or cache state.
        """
        key = self._cache_key(query, integrator)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return replace(cached, cache_hit=True)
        decision = self._plan_key(key, integrator)
        with self._lock:
            self._misses += 1
            self._cache[key] = decision
            self._cache.move_to_end(key)
            while len(self._cache) > CACHE_SIZE:
                self._cache.popitem(last=False)
        return decision

    def cache_info(self) -> dict[str, int]:
        """Plan-cache counters: hits, misses, current and maximum size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "currsize": len(self._cache),
                "maxsize": CACHE_SIZE,
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def publish_metrics(self, obs) -> None:
        """Snapshot plan-cache state into an Observability sink's gauges.

        Sets ``repro_planner_cache_hits`` / ``_misses`` / ``_entries`` /
        ``_size`` (see ``docs/observability.md``).  The engine calls this
        once per ``execute``/``run_batch`` when observability is enabled;
        per-decision hit/miss *counters* and prediction-error histograms
        are instead derived from :class:`~repro.core.stats.QueryStats` in
        ``Observability.record_query``.
        """
        if obs is None or obs.metrics is None:
            return
        info = self.cache_info()
        registry = obs.metrics
        registry.gauge(
            "repro_planner_cache_hits",
            "Plan-cache hits since planner construction.",
        ).set(info["hits"])
        registry.gauge(
            "repro_planner_cache_misses",
            "Plan-cache misses since planner construction.",
        ).set(info["misses"])
        registry.gauge(
            "repro_planner_cache_entries",
            "Plans currently resident in the cache.",
        ).set(info["currsize"])
        registry.gauge(
            "repro_planner_cache_size",
            "Configured plan-cache capacity.",
        ).set(info["maxsize"])

    # ------------------------------------------------------------------
    # Quantization: cache key <-> canonical query
    # ------------------------------------------------------------------

    def _cache_key(
        self,
        query: ProbabilisticRangeQuery,
        integrator: ProbabilityIntegrator,
    ) -> tuple:
        """Quantized memoization key; kinded queries append a kind tag.

        Exact-target PRQ keys keep their historical 5-tuple layout.  A
        kinded query appends ``(kind, *extras)`` where the extras are the
        kind parameters that change the plan: the component count
        (mixture) or ``(k, n_samples)`` (k-NN).
        """
        base = quantized_shape_key(query) + (integrator.name,)
        kind = query_kind(query)
        if kind == "prq":
            return base
        if kind == "mixture":
            return base + (kind, len(query.mixture.components))
        if kind == "knn":
            return base + (kind, query.k, query.n_samples)
        return base + (kind,)

    @staticmethod
    def _dequantize(q: int) -> float:
        return math.exp(q / SHAPE_BINS_PER_EFOLD)

    def _generic_rotation(self, dim: int) -> np.ndarray:
        """A fixed, deterministic 'generic orientation' rotation per dim.

        The cache key keeps only the Σ *spectrum*, so the canonical query
        must pick some orientation.  Axis-aligned would be the worst
        prior: it makes RR's bounding box coincide with OR's oblique box
        and hides OR's pruning power entirely, while real covariances are
        almost never axis-aligned.  A fixed random rotation is the
        generic case.
        """
        rotation = self._rotations.get(dim)
        if rotation is None:
            rng = np.random.default_rng(0)
            q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
            rotation = q * np.sign(np.diag(r))
            self._rotations[dim] = rotation
        return rotation

    def _canonical_query(self, key: tuple) -> ProbabilisticRangeQuery:
        """Rebuild the representative query of a cache key.

        Centered at the data centre, with the quantized spectrum rotated
        into a fixed generic orientation — the plan must not depend on
        any per-query detail finer than the key, or cache reuse would
        break the determinism contract.
        """
        dim, spectrum, qdelta, qtheta = key[:4]
        eigenvalues = np.array([self._dequantize(q) for q in spectrum])
        rotation = self._generic_rotation(dim)
        sigma = (rotation * eigenvalues) @ rotation.T
        sigma = 0.5 * (sigma + sigma.T)
        delta = self._dequantize(qdelta)
        theta = min(max(self._dequantize(qtheta), 1e-9), 1.0 - 1e-9)
        return ProbabilisticRangeQuery(
            Gaussian(self._bounds.center, sigma), delta, theta
        )

    # ------------------------------------------------------------------
    # Prediction + scoring
    # ------------------------------------------------------------------

    def _estimate_in_rect(self, rect: Rect | None) -> float:
        return 0.0 if rect is None else self._estimator.estimate_in_rect(rect)

    def _knn_plan(
        self, key: tuple, integrator: ProbabilityIntegrator
    ) -> PlanDecision:
        """The single fixed plan of a k-NN query.

        The sample-driven cut has no exact-target substitute, so the
        planner's job reduces to predicting the workload — a full pass,
        since the cut radius is only known once the samples are drawn.
        The spec string is the *kind name* — deliberately not a
        ``STRATEGY_COMBINATIONS`` member, which tells the engine to pass
        its base strategies through to :func:`repro.core.kinds.adapt_pipeline`
        untouched.
        """
        retrieved = float(self._total)
        cost = (
            SEARCH_BASE
            + SEARCH_PER_OBJECT * retrieved
            + _strategy_cost(("KNN",), retrieved)
            + integrator.cost_per_candidate * retrieved
        )
        choice = PlanChoice(
            strategies="knn",
            strategy_names=("KNN",),
            predicted_retrieved=retrieved,
            predicted_candidates=retrieved,
            predicted_seconds=cost,
        )
        return PlanDecision(chosen=choice, considered=(choice,), key=key)

    def _plan_key(
        self, key: tuple, integrator: ProbabilityIntegrator
    ) -> PlanDecision:
        kind = key[5] if len(key) > 5 else "prq"
        if kind == "knn":
            return self._knn_plan(key, integrator)
        # Exact-target PRQs and mixtures share the combo menu: a mixture
        # is planned on its moment-matched envelope, and the chosen combo
        # becomes the per-component filter template inside
        # :class:`repro.core.kinds.MixtureFilterStrategy` — which runs the
        # combo's prepare/classify once *per component*, so the Phase-2
        # term below is charged that many times.
        components = key[6] if kind == "mixture" else 1
        canonical = self._canonical_query(key)
        # Combos share one prepared instance per strategy name: BF's α
        # root finds and RR/OR's r_θ lookups run once per cache key, not
        # once per combo.
        pool: dict[str, Strategy] = {}
        combo_strategies: dict[str, list[Strategy]] = {}
        for combo in DEFAULT_COMBOS:
            combo_strategies[combo] = [
                pool.setdefault(s.name, s) for s in make_strategies(combo)
            ]
        for strategy in pool.values():
            strategy.prepare(canonical)
        combo_rects = {
            combo: (
                None
                if any(s.proves_empty for s in strategies)
                else combined_search_rect(strategies)
            )
            for combo, strategies in combo_strategies.items()
        }
        # The filters reject everything outside their own regions, so one
        # sample set over the union of the live rectangles serves every
        # combo; a combo proven empty has nothing left to integrate.
        live = {
            combo: combo_strategies[combo]
            for combo, rect in combo_rects.items()
            if rect is not None
        }
        candidate_counts = dict.fromkeys(DEFAULT_COMBOS, 0.0)
        if live:
            union = Rect.union_of(combo_rects[combo] for combo in live)
            candidate_counts.update(
                undecided_mass(
                    self._estimator, live, union, n_samples=PLAN_SAMPLES
                )
            )
        choices: list[PlanChoice] = []
        for combo in DEFAULT_COMBOS:
            names = tuple(s.name for s in combo_strategies[combo])
            retrieved = self._estimate_in_rect(combo_rects[combo])
            candidates = candidate_counts[combo]
            cost = (
                SEARCH_BASE
                + SEARCH_PER_OBJECT * retrieved
                + components * _strategy_cost(names, retrieved)
                + integrator.cost_per_candidate * candidates
            )
            choices.append(
                PlanChoice(
                    strategies=combo,
                    strategy_names=names,
                    predicted_retrieved=retrieved,
                    predicted_candidates=candidates,
                    predicted_seconds=cost,
                )
            )
        # Stable sort: equal costs keep menu order, so ties never depend
        # on dict iteration or float noise across processes.
        choices.sort(key=lambda c: c.predicted_seconds)
        return PlanDecision(
            chosen=choices[0], considered=tuple(choices), key=key
        )
