"""The ``strategies="auto"`` plan: a constant-time rule.

``auto`` runs the paper's ALL (RR+BF+OR) for range-shaped legs, and the
kind plan for k-NN.  Table I of the paper has ALL fastest at every γ, so
the decision is made once, offline, instead of per query: pruning work
pays only where it costs less than it saves, and a per-query cost model
cost more than any plan it could pick over ALL.

Range-shaped legs are exact-target PRQs, the convolved legs of an
uncertain-target query (:func:`repro.core.kinds.query_legs`) and mixture
queries, where ALL is the per-component filter template of
:class:`repro.core.kinds.MixtureFilterStrategy`.  A k-NN query's plan
spec is its kind name, which is not a strategy combo: the engine keeps
its base strategies and :func:`repro.core.kinds.adapt_pipeline` installs
the kind's own stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kinds import query_kind
from repro.core.query import ProbabilisticRangeQuery
from repro.core.strategies import STRATEGY_COMBINATIONS
from repro.integrate.base import ProbabilityIntegrator

__all__ = ["PlanChoice", "QueryPlanner"]


@dataclass(frozen=True)
class PlanChoice:
    """The plan of one query leg."""

    #: Strategy spec string (``"all"``) or, for k-NN, the kind name.
    strategies: str
    #: The individual strategy names, execution order.
    strategy_names: tuple[str, ...]


ALL_PLAN = PlanChoice("all", STRATEGY_COMBINATIONS["all"])
KNN_PLAN = PlanChoice("knn", ("KNN",))


class QueryPlanner:
    """Maps a query leg to its plan; holds no state."""

    def plan(
        self,
        query: ProbabilisticRangeQuery,
        integrator: ProbabilityIntegrator,
    ) -> PlanChoice:
        """The kind plan for a k-NN query, ALL for every other leg.

        The integrator is the one the leg will run with; no plan depends
        on it.
        """
        return KNN_PLAN if query_kind(query) == "knn" else ALL_PLAN
