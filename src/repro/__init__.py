"""repro — probabilistic spatial range queries for Gaussian query objects.

A complete, from-scratch reproduction of

    Y. Ishikawa, Y. Iijima, J. X. Yu.
    "Spatial Range Querying for Gaussian-Based Imprecise Query Objects."
    ICDE 2009.

Quickstart::

    import numpy as np
    from repro import SpatialDatabase, Gaussian

    points = np.random.default_rng(0).random((10_000, 2)) * 1000
    db = SpatialDatabase(points)
    sigma = 10.0 * np.array([[7.0, 2 * np.sqrt(3)], [2 * np.sqrt(3), 3.0]])
    result = db.probabilistic_range_query(
        Gaussian([500.0, 500.0], sigma), delta=25.0, theta=0.01
    )
    print(result.ids, result.stats.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core import (
    QUERY_KINDS,
    BatchResult,
    BatchStats,
    KNNQuery,
    MixtureRangeQuery,
    TargetCovarianceTable,
    UncertainTargetQuery,
    query_kind,
    QueryPlan,
    QueryPlanner,
    threshold_sweep,
    MovingObject,
    MovingObjectDatabase,
    SelectivityEstimator,
    stale_gaussian,
    ProbabilisticRangeQuery,
    QueryEngine,
    QueryResult,
    QueryStats,
    SpatialDatabase,
    UncertainObject,
    OneDimensionalDatabase,
    make_strategies,
    probabilistic_nearest_neighbors,
)
from repro.core.strategies import (
    BoundingFunctionStrategy,
    EllipsoidStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
)
from repro.gaussian import Gaussian, GaussianMixture
from repro.index import GridIndex, LinearScanIndex, RStarTree
from repro.integrate import (
    AntitheticImportanceSampler,
    CascadeIntegrator,
    ExactIntegrator,
    ImportanceSamplingIntegrator,
    MonteCarloIntegrator,
    QuasiMonteCarloIntegrator,
)
from repro.catalog import BFCatalog, RThetaCatalog
from repro.obs import (
    CProfileHook,
    MetricsRegistry,
    Observability,
    ProfilingHook,
    Span,
    Tracer,
)

__version__ = "1.0.0"

__all__ = [
    "ProbabilisticRangeQuery",
    "QUERY_KINDS",
    "query_kind",
    "UncertainTargetQuery",
    "MixtureRangeQuery",
    "KNNQuery",
    "TargetCovarianceTable",
    "QueryEngine",
    "QueryResult",
    "QueryStats",
    "BatchResult",
    "BatchStats",
    "SpatialDatabase",
    "MovingObject",
    "MovingObjectDatabase",
    "SelectivityEstimator",
    "stale_gaussian",
    "UncertainObject",
    "OneDimensionalDatabase",
    "make_strategies",
    "probabilistic_nearest_neighbors",
    "RectilinearStrategy",
    "ObliqueStrategy",
    "BoundingFunctionStrategy",
    "EllipsoidStrategy",
    "Gaussian",
    "GaussianMixture",
    "threshold_sweep",
    "QueryPlan",
    "QueryPlanner",
    "RStarTree",
    "GridIndex",
    "LinearScanIndex",
    "ImportanceSamplingIntegrator",
    "MonteCarloIntegrator",
    "QuasiMonteCarloIntegrator",
    "CascadeIntegrator",
    "ExactIntegrator",
    "AntitheticImportanceSampler",
    "BFCatalog",
    "RThetaCatalog",
    "Observability",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "ProfilingHook",
    "CProfileHook",
    "__version__",
]
