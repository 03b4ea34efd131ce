"""Determinism and parity battery for sharded scatter–gather execution.

Contract under test (see ``docs/sharding.md``):

1. **Parity** — for composition-independent integrators (Exact, Cascade,
   shared-draw importance) the merged sharded answer is
   bit-identical to the single-engine path: same ids, same candidate and
   integration counters, for every shard count and worker count.
2. **Determinism** — for composition-dependent samplers (plain MC, QMC,
   stream-advancing importance, antithetic) the engine swaps in
   :class:`repro.shard.seeding.CandidateSeededIntegrator`, whose output
   depends only on (base seed, query, candidate point) — so the answer
   is identical across shard counts {1, 2, 4, 8}, worker counts and
   repeated runs, even though it need not match the unwrapped sampler.
3. **Plan caches** — cold vs warm planner caches change latency, never
   answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.kinds import TargetCovarianceTable, UncertainTargetQuery
from repro.core.query import ProbabilisticRangeQuery
from repro.gaussian.distribution import Gaussian
from repro.integrate import (
    AntitheticImportanceSampler,
    CascadeIntegrator,
    ExactIntegrator,
    ImportanceSamplingIntegrator,
    MonteCarloIntegrator,
    QuasiMonteCarloIntegrator,
)

from tests.conftest import random_spd

#: Guard for the process-pool suites; no-op unless pytest-timeout is
#: installed (it is in CI — see .github/workflows/ci.yml).
pytestmark = pytest.mark.timeout(300)

SHARD_COUNTS = [1, 2, 4, 8]

#: Small sample budgets: the battery checks determinism, not accuracy.
INDEPENDENT = {
    "exact": lambda: ExactIntegrator(),
    "cascade": lambda: CascadeIntegrator(),
    "importance-shared": lambda: ImportanceSamplingIntegrator(
        4_000, share_samples=True
    ),
    "sequential-shared": lambda: ImportanceSamplingIntegrator(
        8_000, share_samples=True
    ),
}
DEPENDENT = {
    "montecarlo": lambda: MonteCarloIntegrator(4_000),
    "qmc": lambda: QuasiMonteCarloIntegrator(4_096, n_replicates=4),
    "importance": lambda: ImportanceSamplingIntegrator(4_000),
    "antithetic": lambda: AntitheticImportanceSampler(4_000),
}


def make_points(n: int = 400, seed: int = 77) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1000.0, (6, 2))
    clustered = (
        centers[rng.integers(0, len(centers), n - 80)]
        + 35.0 * rng.standard_normal((n - 80, 2))
    )
    return np.vstack([clustered, rng.uniform(0.0, 1000.0, (80, 2))])


def make_queries() -> list[ProbabilisticRangeQuery]:
    """A mixed workload: hits, a near-certain empty, and an off-cloud
    query that should route to few or no shards."""
    rng = np.random.default_rng(31)
    queries = []
    for _ in range(4):
        sigma = random_spd(rng, 2, scale=60.0 + 120.0 * rng.random())
        center = rng.uniform(100.0, 900.0, 2)
        delta = float(10.0 + 30.0 * rng.random())
        theta = float(rng.uniform(0.05, 0.3))
        queries.append(ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta))
    # θ close to 1 with a small δ: provably empty for most strategies.
    queries.append(
        ProbabilisticRangeQuery(
            Gaussian([500.0, 500.0], 400.0 * np.eye(2)), 1.0, 0.99
        )
    )
    # Far outside the cloud: Phase-0 routing should prune every shard.
    queries.append(
        ProbabilisticRangeQuery(
            Gaussian([5_000.0, 5_000.0], 50.0 * np.eye(2)), 10.0, 0.2
        )
    )
    return queries


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    return SpatialDatabase(make_points())


@pytest.fixture(scope="module")
def queries() -> list[ProbabilisticRangeQuery]:
    return make_queries()


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def sharded(request, database):
    with database.shard(request.param) as sdb:
        yield sdb


@pytest.mark.parametrize("name", sorted(INDEPENDENT))
def test_independent_integrators_match_unsharded_bitwise(
    sharded, database, queries, name
):
    integrator = INDEPENDENT[name]()
    baseline = database.engine(
        strategies="all", integrator=integrator
    ).run_batch(queries, base_seed=5)
    batch = sharded.engine(
        strategies="all", integrator=integrator
    ).run_batch(queries, base_seed=5)
    assert len(batch.results) == len(baseline.results)
    for got, want in zip(batch.results, baseline.results):
        assert got.ids == want.ids
        assert got.stats.retrieved == want.stats.retrieved
        assert got.stats.integrations == want.stats.integrations
        assert got.stats.integration_samples == want.stats.integration_samples
        assert (
            got.stats.accepted_without_integration
            == want.stats.accepted_without_integration
        )
        assert got.stats.results == want.stats.results
        assert dict(got.stats.rejected_by_filter) == dict(
            want.stats.rejected_by_filter
        )


@pytest.mark.parametrize("name", sorted(DEPENDENT))
def test_dependent_integrators_are_deterministic_per_shard_count(
    sharded, name, queries
):
    """Warm rerun on the same pool returns bit-identical answers."""
    engine = sharded.engine(strategies="all", integrator=DEPENDENT[name]())
    first = engine.run_batch(queries, base_seed=9)
    second = engine.run_batch(queries, base_seed=9)
    for a, b in zip(first.results, second.results):
        assert a.ids == b.ids
        assert a.stats.retrieved == b.stats.retrieved


@pytest.mark.parametrize("name", sorted(DEPENDENT))
def test_dependent_integrators_agree_across_shard_counts(
    database, queries, name
):
    """The candidate-seeded wrap makes the answer a function of
    (seed, query, candidate) alone — shard layout must not matter."""
    per_count = {}
    for n_shards in SHARD_COUNTS:
        with database.shard(n_shards) as sdb:
            engine = sdb.engine(strategies="all", integrator=DEPENDENT[name]())
            batch = engine.run_batch(queries, base_seed=13)
            per_count[n_shards] = [r.ids for r in batch.results]
    reference = per_count[SHARD_COUNTS[0]]
    for n_shards, ids in per_count.items():
        assert ids == reference, (
            f"{name}: shard count {n_shards} changed the answer"
        )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_never_changes_answers(database, queries, workers):
    baseline = database.engine(
        strategies="all", integrator=ExactIntegrator()
    ).run_batch(queries, base_seed=2)
    with database.shard(4, workers=workers) as sdb:
        batch = sdb.engine(
            strategies="all", integrator=ExactIntegrator()
        ).run_batch(queries, base_seed=2)
    for got, want in zip(batch.results, baseline.results):
        assert got.ids == want.ids


def test_plan_cache_cold_vs_warm_answers_identical(sharded, queries):
    """``auto`` runs the paper's ALL: a sharded auto batch, run twice,
    answers and retrieves exactly what a fixed ``all`` batch does, and
    no plan is ever served from a cache."""
    engine = sharded.engine(strategies="auto", integrator=CascadeIntegrator())
    first = engine.run_batch(queries, base_seed=3)
    again = engine.run_batch(queries, base_seed=3)
    fixed = sharded.engine(
        strategies="all", integrator=CascadeIntegrator()
    ).run_batch(queries, base_seed=3)
    for a, b, c in zip(first.results, again.results, fixed.results):
        if a.error is None:
            assert a.stats.plan_strategies == ("RR", "BF", "OR")
        assert a.stats.plan_cache_hit is None
        assert a.ids == b.ids == c.ids
        assert a.stats.retrieved == b.stats.retrieved == c.stats.retrieved


def test_empty_and_unrouted_queries_match_unsharded(sharded, database, queries):
    """The provably-empty and off-cloud queries short-circuit at the
    coordinator (no tasks dispatched) yet report the same shape as the
    single-engine path."""
    empty_queries = queries[-2:]
    baseline = database.engine(
        strategies="all", integrator=ExactIntegrator()
    ).run_batch(empty_queries, base_seed=4)
    batch = sharded.engine(
        strategies="all", integrator=ExactIntegrator()
    ).run_batch(empty_queries, base_seed=4)
    for got, want in zip(batch.results, baseline.results):
        assert got.ids == want.ids == ()
        assert got.stats.results == 0


def test_integrator_factory_is_evaluated_at_the_coordinator(
    sharded, database, queries
):
    """``run_batch(integrator_factory=...)`` — the serve path — must work
    even though the closure itself can never cross a process boundary."""
    calls: list[int] = []

    def factory(query, seed):
        calls.append(1)
        return ExactIntegrator()

    baseline = database.engine(strategies="all").run_batch(
        queries, base_seed=6, integrator_factory=lambda q, s: ExactIntegrator()
    )
    batch = sharded.engine(strategies="all").run_batch(
        queries, base_seed=6, integrator_factory=factory
    )
    assert len(calls) == len(queries)
    for got, want in zip(batch.results, baseline.results):
        assert got.ids == want.ids


@pytest.mark.parametrize("name", ["exact", "cascade"])
def test_uncertain_group_legs_match_unsharded(name):
    """An uncertain-target query over a 2-group table scatters one leg
    per group; the merged answer and counters equal the unsharded run."""
    points = make_points()
    ids = np.arange(len(points))
    table = TargetCovarianceTable(
        {int(i): int(i) % 2 for i in ids},
        [30.0 * np.eye(2), np.diag([150.0, 10.0])],
    )
    database = SpatialDatabase(points, target_table=table)
    rng = np.random.default_rng(41)
    queries = [
        UncertainTargetQuery(
            Gaussian(rng.uniform(150.0, 850.0, 2), random_spd(rng, 2, scale=80.0)),
            float(rng.uniform(15.0, 40.0)),
            float(rng.uniform(0.05, 0.3)),
        )
        for _ in range(8)
    ]
    baseline = database.engine(
        strategies="all", integrator=INDEPENDENT[name]()
    ).run_batch(queries, base_seed=8)
    assert any(r.ids for r in baseline.results)
    with database.shard(2) as sdb:
        batch = sdb.engine(
            strategies="all", integrator=INDEPENDENT[name]()
        ).run_batch(queries, base_seed=8)
    for got, want in zip(batch.results, baseline.results):
        assert got.ids == want.ids
        assert got.stats.retrieved == want.stats.retrieved
        assert got.stats.integrations == want.stats.integrations
        assert got.stats.results == want.stats.results
        assert dict(got.stats.rejected_by_filter) == dict(
            want.stats.rejected_by_filter
        )
