"""Query planning: explain, predict, choose, and execute adaptively.

A tour of the optimizer-flavoured machinery around the core engine:

1. ``engine.explain`` shows the geometry a query would run with;
2. ``SelectivityEstimator`` predicts each combination's Phase-3 workload
   from a data histogram (no index access);
3. the prediction picks a strategy combination;
4. ``ImportanceSamplingIntegrator`` then executes Phase 3 adaptively:
   sandwich bounds settle the clear candidates without a draw, and only
   borderline ones spend the full sampling budget.

Run:  python examples/query_planning.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Gaussian,
    ImportanceSamplingIntegrator,
    ProbabilisticRangeQuery,
    SpatialDatabase,
)
from repro.core.selectivity import SelectivityEstimator
from repro.core.strategies import STRATEGY_COMBINATIONS
from repro.datasets import clustered_points


def main() -> None:
    points = clustered_points(40_000, 2, n_clusters=15, spread=25.0, seed=12)
    db = SpatialDatabase(points)
    estimator = SelectivityEstimator(points, bins=64)

    sigma = 10.0 * np.array([[7.0, 2 * 3**0.5], [2 * 3**0.5, 3.0]])
    gaussian = Gaussian(points[123], sigma)
    delta, theta = 25.0, 0.01
    query = ProbabilisticRangeQuery(gaussian, delta, theta)

    # 1. Explain the default plan.
    plan = db.engine(strategies="all").explain(query, estimator=estimator)
    print("default plan\n------------")
    print(plan.render())

    # 2-3. Predict every combination's workload and pick the cheapest.
    print("\npredicted Phase-3 candidates per combination:")
    predictions = {}
    for spec in STRATEGY_COMBINATIONS:
        predictions[spec] = estimator.estimate_candidates(query, spec, seed=3)
        print(f"  {spec:>6}: {predictions[spec]:8.1f}")
    chosen = min(predictions, key=predictions.get)
    print(f"chosen combination: {chosen}")

    # 4. Execute with the decision-aware sampler.
    integrator = ImportanceSamplingIntegrator(100_000, seed=0)
    result = db.engine(strategies=chosen, integrator=integrator).execute(query)
    spent = result.stats.integration_samples
    fixed = result.stats.integrations * 100_000
    print(
        f"\nexecuted: {len(result)} answers from "
        f"{result.stats.integrations} integrations; adaptive sampling spent "
        f"{spent / 1e6:.2f}M samples vs {fixed / 1e6:.1f}M at a fixed budget "
        f"({fixed / max(spent, 1):.1f}x saved)"
    )


if __name__ == "__main__":
    main()
