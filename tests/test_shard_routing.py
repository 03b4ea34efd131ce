"""Oracle-backed soundness of Phase-0 shard routing.

The sharded engine dispatches a query only to shards whose MBR
intersects the combined Phase-1 rectangle (the θ-region Minkowski box,
possibly tightened by the other strategies).  Routing is *sound* iff the
pruning never loses an answer: the union of the routed shards' Phase-1
candidate sets must equal the unsharded candidate set, and every skipped
shard's tree must return zero candidates for the same rectangle.  These
tests replay that contract over seeded random Gaussians, δ and θ in
d ∈ {2, 3}, for several shard counts of the STR partitioning,
against the repo's own single-tree index as the oracle — the style of
``tests/test_filter_soundness.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import phase1_rect
from repro.core.stats import QueryStats
from repro.core.storage import open_soa, write_soa
from repro.core.strategies import make_strategies
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.shard.partition import partition_positions
from repro.shard.worker import build_shard_tree

from tests.conftest import random_spd

#: Cloud size.  Mixed clustered/uniform so shard MBRs differ in shape
#: and density and MBR pruning actually fires for off-cluster queries.
N_POINTS = 500

#: Seeded queries replayed per (dim, shards, method) combination.
N_QUERIES = 12


def point_cloud(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1000.0, (8, dim))
    n_clustered = N_POINTS - 100
    clustered = (
        centers[rng.integers(0, len(centers), n_clustered)]
        + 30.0 * rng.standard_normal((n_clustered, dim))
    )
    uniform = rng.uniform(0.0, 1000.0, (100, dim))
    return np.vstack([clustered, uniform])


def seeded_query(dim: int, seed: int) -> ProbabilisticRangeQuery:
    """One random PRQ; centers range from deep inside to off the cloud."""
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, dim, scale=20.0 + 180.0 * rng.random())
    center = rng.uniform(-200.0, 1200.0, dim)
    delta = float(5.0 + 45.0 * rng.random())
    theta = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5))))
    return ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)


#: STR is the one partitioning order; the ids keep naming it.
STR = pytest.mark.parametrize("order", ["str"])


@STR
@pytest.mark.parametrize("n_shards", [2, 3, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_routed_union_equals_unsharded_candidates(dim, n_shards, order, tmp_path):
    points = point_cloud(dim, seed=101 * dim)
    db = SpatialDatabase(points)
    specs = partition_positions(points, n_shards)
    write_soa(tmp_path / "points.soa", np.arange(len(points)), points)
    store = open_soa(tmp_path / "points.soa")
    trees = {
        spec.shard_id: build_shard_tree(store, spec.positions) for spec in specs
    }
    routed_somewhere = 0
    pruned_somewhere = 0
    for qseed in range(N_QUERIES):
        query = seeded_query(dim, 9_000 + 7 * qseed)
        rect = phase1_rect(query, make_strategies("all"), QueryStats(), dim=dim)
        if rect is None:
            # Some strategy proved the result empty before Phase 1 —
            # the engine dispatches nothing, trivially sound.
            continue
        oracle = set(db.index.range_search_rect(rect))
        routed = [s for s in specs if s.mbr.intersects(rect)]
        skipped = [s for s in specs if not s.mbr.intersects(rect)]
        routed_somewhere += bool(routed)
        pruned_somewhere += bool(skipped)
        union: set[int] = set()
        for spec in routed:
            union |= set(trees[spec.shard_id].range_search_rect(rect))
        assert union == oracle, (
            f"dim={dim} shards={n_shards} qseed={qseed}: "
            f"routed union lost {sorted(oracle - union)} / "
            f"invented {sorted(union - oracle)}"
        )
        for spec in skipped:
            extra = list(trees[spec.shard_id].range_search_rect(rect))
            assert extra == [], (
                f"skipped shard {spec.shard_id} held candidates {extra}"
            )
    # The seeded workload must actually exercise both branches.
    assert routed_somewhere > 0, "no query routed to any shard"
    assert pruned_somewhere > 0, "no query ever pruned a shard"


@STR
def test_partition_is_a_partition(order):
    """Shards cover every position exactly once and MBRs are tight."""
    points = point_cloud(2, seed=404)
    specs = partition_positions(points, 5)
    seen: list[int] = []
    for spec in specs:
        seen.extend(int(p) for p in spec.positions)
        block = points[spec.positions]
        assert np.allclose(spec.mbr.lows, block.min(axis=0))
        assert np.allclose(spec.mbr.highs, block.max(axis=0))
    assert sorted(seen) == list(range(len(points)))


def test_partition_argument_validation():
    points = point_cloud(2, seed=404)
    with pytest.raises(QueryError):
        partition_positions(points, 0)
    with pytest.raises(QueryError):
        partition_positions(points, len(points) + 1)
    # One partitioning order, one start method: neither is a knob.
    with pytest.raises(TypeError):
        partition_positions(points, 2, method="hilbert")
    db = SpatialDatabase(points, defer_index=True)
    for knob in ({"method": "hilbert"}, {"start_method": "spawn"}):
        with pytest.raises(TypeError):
            db.shard(2, **knob)


def test_single_shard_routes_everything():
    """With one shard the MBR is the dataset MBR: every non-empty query
    routes to it, so the sharded candidate set is trivially complete."""
    points = point_cloud(2, seed=505)
    db = SpatialDatabase(points)
    (spec,) = partition_positions(points, 1)
    hits = 0
    for qseed in range(N_QUERIES):
        query = seeded_query(2, 20_000 + qseed)
        rect = phase1_rect(
            query, make_strategies("all"), QueryStats(), dim=2
        )
        if rect is None:
            continue
        oracle = db.index.range_search_rect(rect)
        if oracle and spec.mbr.intersects(rect):
            hits += 1
        assert not oracle or spec.mbr.intersects(rect)
    assert hits > 0


def test_end_to_end_candidate_parity_through_pool():
    """The full scatter–gather path retrieves exactly the unsharded
    Phase-1 candidate count and returns the identical answer set."""
    from repro.integrate import ExactIntegrator

    points = point_cloud(2, seed=606)
    db = SpatialDatabase(points)
    queries = [seeded_query(2, 31_000 + 11 * s) for s in range(6)]
    baseline = db.engine(
        strategies="all", integrator=ExactIntegrator()
    ).run_batch(queries, base_seed=1)
    with db.shard(3) as sharded:
        engine = sharded.engine(
            strategies="all", integrator=ExactIntegrator()
        )
        batch = engine.run_batch(queries, base_seed=1)
    for got, want in zip(batch.results, baseline.results):
        assert got.ids == want.ids
        assert got.stats.retrieved == want.stats.retrieved


def test_coordinator_index_is_built_on_first_use_only():
    """Phase-0 routing runs off the dimension alone: a PRQ batch through
    the pool never builds the coordinator's full R*-tree; ``explain``
    (or a k-NN query) builds it on demand."""
    from repro.integrate import ExactIntegrator

    db = SpatialDatabase(point_cloud(2, seed=707), defer_index=True)
    queries = [seeded_query(2, 41_000 + 13 * s) for s in range(4)]
    with db.shard(2) as sharded:
        engine = sharded.engine(strategies="all", integrator=ExactIntegrator())
        batch = engine.run_batch(queries, base_seed=1)
        assert db._built_index is None
        with pytest.raises(QueryError):
            engine.run_batch([seeded_query(3, 5)])  # routed off database.dim
        assert db._built_index is None
        engine.explain(queries[0])
        assert engine.index is db.index and db._built_index is not None
    baseline = db.engine(
        strategies="all", integrator=ExactIntegrator()
    ).run_batch(queries, base_seed=1)
    assert batch.ids == baseline.ids


def test_sharded_engine_validates_and_types_errors_like_the_engine():
    """One copy of the constructor contract and of failure typing: the
    same bad arguments raise the same error on both engines, and a
    non-library exception is captured identically under
    ``return_errors=True``."""

    def exploding_factory(query, seed):
        raise RuntimeError("boom")

    db = SpatialDatabase(point_cloud(2, seed=808))
    queries = [seeded_query(2, 51_000 + 17 * s) for s in range(2)]
    with db.shard(2) as sharded:
        with pytest.raises(QueryError) as plain:
            db.engine(strategies=[])
        with pytest.raises(QueryError) as scattered:
            sharded.engine(strategies=[])
        assert str(scattered.value) == str(plain.value)
        # Phase 1 has one policy: neither engine takes a knob for it.
        for make_engine in (db.engine, sharded.engine):
            with pytest.raises(TypeError, match="phase1"):
                make_engine(phase1="intersect")
        captured = [
            engine.run_batch(
                queries,
                integrator_factory=exploding_factory,
                return_errors=True,
            )
            for engine in (db.engine(), sharded.engine())
        ]
        with pytest.raises(QueryError, match="query 0 failed: RuntimeError"):
            sharded.engine().run_batch(
                queries, integrator_factory=exploding_factory
            )
    for plain, scattered in zip(*captured):
        assert type(scattered.error) is type(plain.error) is QueryError
        assert str(scattered.error) == str(plain.error)
        assert isinstance(scattered.error.__cause__, RuntimeError)
        assert scattered.ids == plain.ids == ()
