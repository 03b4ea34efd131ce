"""The paper's primary contribution: probabilistic range query processing.

- :class:`ProbabilisticRangeQuery` — the PRQ(q, δ, θ) specification
  (Definition 2);
- :mod:`~repro.core.strategies` — the RR, OR and BF filtering strategies
  (Section IV) behind one `Strategy` interface;
- :class:`QueryEngine` — the generic three-phase processor (Section III-B)
  that combines any subset of strategies;
- :class:`SpatialDatabase` — the user-facing façade tying data, index,
  catalogs, strategies and integrator together;
- :mod:`~repro.core.kinds` — the query-kind abstraction folding the
  paper's future-work extensions (uncertain targets, Gaussian-mixture
  query objects, probabilistic k-NN) into the same three-phase stage
  pipeline as exact-target PRQs (see ``docs/query_types.md``);
- standalone per-extension entry points: sampling k-NN
  (:mod:`~repro.core.nn`) and the closed-form 1-D case
  (:mod:`~repro.core.oned`).
"""

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stats import BatchStats, QueryStats
from repro.core.strategies import (
    ACCEPT,
    REJECT,
    UNKNOWN,
    BoundingFunctionStrategy,
    EllipsoidStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
    Strategy,
    make_strategies,
)
from repro.core.engine import BatchResult, QueryEngine, QueryPlan, QueryResult
from repro.core.kinds import (
    QUERY_KINDS,
    KNNQuery,
    MixtureRangeQuery,
    TargetCovarianceTable,
    UncertainObject,
    UncertainTargetQuery,
    query_kind,
)
from repro.core.planner import PlanChoice, QueryPlanner
from repro.core.database import SpatialDatabase
from repro.core.sweep import ThresholdSweepResult, threshold_sweep
from repro.core.selectivity import SelectivityEstimator
from repro.core.moving import MovingObject, MovingObjectDatabase, stale_gaussian
from repro.core.nn import probabilistic_nearest_neighbors
from repro.core.oned import OneDimensionalDatabase, interval_probability

__all__ = [
    "ProbabilisticRangeQuery",
    "QueryStats",
    "BatchStats",
    "BatchResult",
    "Strategy",
    "RectilinearStrategy",
    "ObliqueStrategy",
    "BoundingFunctionStrategy",
    "EllipsoidStrategy",
    "make_strategies",
    "ACCEPT",
    "REJECT",
    "UNKNOWN",
    "QueryEngine",
    "QUERY_KINDS",
    "query_kind",
    "UncertainTargetQuery",
    "MixtureRangeQuery",
    "KNNQuery",
    "TargetCovarianceTable",
    "QueryPlan",
    "QueryPlanner",
    "PlanChoice",
    "QueryResult",
    "SpatialDatabase",
    "ThresholdSweepResult",
    "threshold_sweep",
    "SelectivityEstimator",
    "MovingObject",
    "MovingObjectDatabase",
    "stale_gaussian",
    "probabilistic_nearest_neighbors",
    "UncertainObject",
    "OneDimensionalDatabase",
    "interval_probability",
]
