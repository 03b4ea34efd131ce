"""The sharded façade: ``db.shard(n)`` returns one of these.

A :class:`ShardedDatabase` wraps an existing
:class:`repro.core.database.SpatialDatabase`: it copies the points into
a shared-memory store, partitions them spatially, starts the worker
pool, and then mirrors the database/engine surface so everything built
on top — ``run_batch`` callers, ``repro.serve``, the CLI — works
unchanged.  The wrapped database's own index stays available (routing,
``explain`` and deadline degradation read it), so sharding adds
parallel execution without removing any single-process capability.

The pool holds OS resources (processes, queues, one shm segment); call
:meth:`close` or use the database as a context manager.
"""

from __future__ import annotations

import numpy as np

from repro.core.database import SpatialDatabase
from repro.core.strategies import Strategy
from repro.errors import QueryError
from repro.integrate.base import ProbabilityIntegrator
from repro.shard.engine import ShardedEngine, ShardPool
from repro.shard.partition import ShardSpec, partition_positions
from repro.shard.shm import SharedPointStore

__all__ = ["ShardedDatabase"]


class ShardedDatabase:
    """A :class:`SpatialDatabase` partitioned across worker processes."""

    def __init__(
        self,
        database: SpatialDatabase,
        n_shards: int,
        *,
        method: str = "str",
        workers: int | None = None,
        max_entries: int = 50,
        start_method: str | None = None,
    ):
        if n_shards < 1:
            raise QueryError(f"n_shards must be >= 1, got {n_shards}")
        self._database = database
        backing = getattr(database, "_backing", None)
        if backing is not None:
            # The database is a mapped structure-of-arrays file: workers
            # map the very same file instead of copying into fresh shm.
            self._store = SharedPointStore.from_store_file(
                backing.path,
                backing.n,
                backing.dim,
                backing.ids_offset,
                backing.points_offset,
            )
        else:
            self._store = SharedPointStore.create(database.ids, database.points)
        self.shards: list[ShardSpec] = partition_positions(
            np.asarray(database.points), n_shards, method=method
        )
        self.pool = ShardPool(
            self._store,
            self.shards,
            workers,
            max_entries=max_entries,
            method=method,
            start_method=start_method,
        )
        self._closed = False

    # -- database surface ----------------------------------------------

    @property
    def database(self) -> SpatialDatabase:
        """The wrapped single-process database."""
        return self._database

    @property
    def index(self):
        return self._database.index

    @property
    def dim(self) -> int:
        return self._database.dim

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return len(self._database)

    def point(self, obj_id: int) -> np.ndarray:
        return self._database.point(obj_id)

    def range_query(self, center, radius: float) -> list[int]:
        return self._database.range_query(center, radius)

    def knn(self, center, k: int):
        return self._database.knn(center, k)

    def planner(self, **kwargs):
        return self._database.planner(**kwargs)

    @property
    def targets(self):
        """The wrapped database's target covariance table, or ``None``."""
        return self._database.targets

    # -- probabilistic querying ----------------------------------------

    def engine(
        self,
        *,
        strategies: str | list[Strategy] = "all",
        integrator: ProbabilityIntegrator | None = None,
        obs=None,
    ) -> ShardedEngine:
        """A :class:`ShardedEngine` over the pool (drop-in engine)."""
        planner, strategy_list = self._database._resolve_strategies(strategies)
        return ShardedEngine(
            self,
            strategy_list,
            integrator,
            planner=planner,
            obs=obs,
            targets=self._database.targets,
        )

    #: The unsharded database's front door, verbatim: it only needs
    #: :meth:`engine`, so here the query scatters across the shards.
    probabilistic_range_query = SpatialDatabase.probabilistic_range_query

    def serve(self, config=None, **knobs):
        """An embedded :class:`repro.serve.QueryService` over the shards.

        The service builds its engine through :meth:`engine`, so every
        micro-batch scatters across the worker processes while the
        scheduler thread, admission control and deadline degradation
        behave exactly as on a single-process database.
        """
        from repro.serve import QueryService

        return QueryService(self, config, **knobs)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool and release the shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        self._store.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
