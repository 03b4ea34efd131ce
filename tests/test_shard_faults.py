"""Fault injection for the shard worker pool.

A worker process killed mid-batch must never hang or corrupt a batch:
its outstanding tasks come back as typed :class:`repro.errors.ShardError`
payloads (``run_batch(..., return_errors=True)``), queries untouched by
the dead worker still return the exact unsharded answer, the worker is
respawned with a fresh queue, and the very next batch runs at full
parity.  The ``repro.serve`` scheduler sits on the same pool and must
ride through a worker death: one failed response, then business as
usual.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.core.storage import write_soa
from repro.errors import QueryError, ShardError
from repro.gaussian.distribution import Gaussian
from repro.integrate import CascadeIntegrator, ExactIntegrator
from repro.serve import PRQRequest, STATUS_FAILED, STATUS_OK
from repro.shard import ShardPool, partition_positions

#: Guard for the process-pool suites; no-op unless pytest-timeout is
#: installed (it is in CI — see .github/workflows/ci.yml).
pytestmark = pytest.mark.timeout(300)


def make_points(n: int = 300, seed: int = 55) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1000.0, (n, 2))


def broad_query() -> ProbabilisticRangeQuery:
    """Covers the whole cloud: guaranteed to route to every shard."""
    return ProbabilisticRangeQuery(
        Gaussian([500.0, 500.0], 90_000.0 * np.eye(2)), 400.0, 0.01
    )


def narrow_queries(k: int) -> list[ProbabilisticRangeQuery]:
    rng = np.random.default_rng(91)
    out = []
    for _ in range(k):
        center = rng.uniform(200.0, 800.0, 2)
        out.append(
            ProbabilisticRangeQuery(
                Gaussian(center, 300.0 * np.eye(2)), 30.0, 0.1
            )
        )
    return out


@pytest.fixture()
def database() -> SpatialDatabase:
    return SpatialDatabase(make_points())


@pytest.fixture()
def sharded(database):
    # Two workers over four shards: worker 0 owns shards {0, 2},
    # worker 1 owns shards {1, 3} — killing worker 0 leaves half the
    # space fully serviceable.
    with database.shard(4, workers=2) as sdb:
        yield sdb


def kill_worker(sharded, index: int) -> None:
    victim = sharded.pool.processes[index]
    victim.kill()
    victim.join(10.0)
    assert not victim.is_alive()


class TestWorkerDeath:
    def test_typed_errors_and_respawn(self, sharded, database):
        queries = [broad_query()] + narrow_queries(3)
        engine = sharded.engine(
            strategies="all", integrator=ExactIntegrator()
        )
        baseline = database.engine(
            strategies="all", integrator=ExactIntegrator()
        ).run_batch(queries, base_seed=0)

        victim = sharded.pool.processes[0].pid
        kill_worker(sharded, 0)
        batch = engine.run_batch(queries, base_seed=0, return_errors=True)

        failed = [r for r in batch.results if r.error is not None]
        ok = [
            (i, r)
            for i, r in enumerate(batch.results)
            if r.error is None
        ]
        # The broad query fans out to all four shards, two of which were
        # owned by the dead worker — it must fail, and fail typed.
        assert batch.results[0].error is not None
        for r in failed:
            assert isinstance(r.error, ShardError)
            assert r.error.shard_id % 2 == 0, (
                "only worker 0's shards (even ids) could have failed"
            )
            assert "died" in r.error.reason
            assert r.ids == ()
        # Queries that never touched the dead worker are exact.
        for i, r in ok:
            assert r.ids == baseline.results[i].ids
        assert batch.stats.failed == len(failed)
        assert sharded.pool.worker_failures >= 1
        respawned = sharded.pool.processes[0]
        assert respawned.pid != victim and respawned.is_alive()

        # The respawned worker rebuilt its trees: next batch is full
        # parity, errors and all counters included.
        again = engine.run_batch(queries, base_seed=0)
        for got, want in zip(again.results, baseline.results):
            assert got.error is None
            assert got.ids == want.ids
            assert got.stats.retrieved == want.stats.retrieved

    def test_raises_without_return_errors(self, sharded):
        engine = sharded.engine(
            strategies="all", integrator=ExactIntegrator()
        )
        kill_worker(sharded, 0)
        with pytest.raises(ShardError):
            engine.run_batch([broad_query()], base_seed=0)
        # The pool healed even though the batch raised.
        result = engine.run_batch([broad_query()], base_seed=0)
        assert result.results[0].error is None

    def test_repeated_failures_keep_healing(self, sharded):
        engine = sharded.engine(
            strategies="all", integrator=ExactIntegrator()
        )
        reference = engine.run_batch([broad_query()], base_seed=1)
        for round_no in range(2):
            kill_worker(sharded, round_no % 2)
            batch = engine.run_batch(
                [broad_query()], base_seed=1, return_errors=True
            )
            assert isinstance(batch.results[0].error, ShardError)
            healed = engine.run_batch([broad_query()], base_seed=1)
            assert healed.results[0].ids == reference.results[0].ids
        assert sharded.pool.worker_failures >= 2

    @pytest.mark.timeout(120)
    def test_kills_right_after_a_batch_never_stall_the_pool(self, database):
        """Four workers on fewer cores, one killed the moment its batch
        returns, i.e. possibly still finishing its last send.  While the
        workers shared one result queue, a worker killed inside that
        queue's cross-process write lock stalled every sibling's results
        and the gather loop waited forever (2 hangs in about 500 such
        kills on a 2-vCPU VM)."""
        with database.shard(4, workers=4) as sharded:
            engine = sharded.engine(
                strategies="all", integrator=CascadeIntegrator()
            )
            reference = engine.run_batch([broad_query()], base_seed=1)
            for round_no in range(100):
                engine.run_batch([broad_query()], base_seed=1)
                kill_worker(sharded, round_no % 4)
                batch = engine.run_batch(
                    [broad_query()], base_seed=1, return_errors=True
                )
                assert isinstance(batch.results[0].error, ShardError)
            healed = engine.run_batch([broad_query()], base_seed=1)
            assert healed.ids == reference.ids
            assert sharded.pool.worker_failures == 100


class TestPoolStart:
    @pytest.mark.timeout(60)
    def test_worker_dying_before_ready_fails_the_start(self, tmp_path):
        """A worker that cannot open the store exits before it reports
        ready: the start raises, naming the worker and its exit code,
        instead of waiting forever."""
        points = make_points()
        path = tmp_path / "gone.soa"
        write_soa(path, np.arange(len(points)), points)
        shards = partition_positions(points, 4)
        path.unlink()
        began = time.monotonic()
        with pytest.raises(QueryError, match=r"shard worker \d exited with code 1"):
            ShardPool(path, shards, 2)
        assert time.monotonic() - began < 30


class TestServeRidesThrough:
    def test_scheduler_survives_worker_death(self, sharded, database):
        gaussian = Gaussian([500.0, 500.0], 90_000.0 * np.eye(2))
        with sharded.serve(integrator=CascadeIntegrator()) as service:
            before = service.submit(PRQRequest(gaussian, 400.0, 0.01))
            before = before.result(timeout=30)
            assert before.status == STATUS_OK

            kill_worker(sharded, 0)
            # Distinct Gaussian so the response cache cannot mask the
            # failure path.
            hurt = service.submit(
                PRQRequest(
                    Gaussian([501.0, 500.0], 90_000.0 * np.eye(2)),
                    400.0,
                    0.01,
                )
            ).result(timeout=30)
            assert hurt.status == STATUS_FAILED
            assert isinstance(hurt.error, ShardError)

            # Scheduler thread is alive and the pool has respawned:
            # the next request over the same region is served in full.
            after = service.submit(
                PRQRequest(
                    Gaussian([502.0, 500.0], 90_000.0 * np.eye(2)),
                    400.0,
                    0.01,
                )
            ).result(timeout=30)
            assert after.status == STATUS_OK
        expected = database.probabilistic_range_query(
            Gaussian([502.0, 500.0], 90_000.0 * np.eye(2)),
            400.0,
            0.01,
            integrator=CascadeIntegrator(),
        )
        assert after.ids == tuple(expected.ids)
