"""The sharded façade: ``db.shard(n)`` returns one of these.

A :class:`ShardedDatabase` wraps an existing
:class:`repro.core.database.SpatialDatabase`: it hands its worker
processes one structure-of-arrays store file (:mod:`repro.core.storage`)
— the database's own file when it was loaded from one, otherwise a
private temporary store written once — partitions the points spatially,
starts the worker pool, and then mirrors the database/engine surface so
everything built on top — ``run_batch`` callers, ``repro.serve``, the
CLI — works unchanged.  The wrapped database's own index stays available
(routing, ``explain`` and deadline degradation read it), so sharding
adds parallel execution without removing any single-process capability.

The pool holds OS resources (processes, queues, pipes and possibly the
temporary store); call :meth:`close` or use the database as a context
manager.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from pathlib import Path

import numpy as np

from repro.core.database import SpatialDatabase
from repro.core.storage import write_soa
from repro.core.strategies import Strategy
from repro.errors import QueryError
from repro.integrate.base import ProbabilityIntegrator
from repro.shard.engine import ShardedEngine, ShardPool
from repro.shard.partition import ShardSpec, partition_positions

__all__ = ["ShardedDatabase"]


class ShardedDatabase:
    """A :class:`SpatialDatabase` partitioned across worker processes."""

    def __init__(
        self,
        database: SpatialDatabase,
        n_shards: int,
        *,
        workers: int | None = None,
    ):
        if n_shards < 1:
            raise QueryError(f"n_shards must be >= 1, got {n_shards}")
        self._database = database
        self.shards: list[ShardSpec] = partition_positions(
            np.asarray(database.points), n_shards
        )
        self._remove_store = None
        if database._backing is not None:
            path = database._backing.path
        else:
            # Workers open a store file, so an in-memory database writes a
            # private one: removed by close(), or when this object is
            # collected if close() never runs.
            fd, path = tempfile.mkstemp(prefix="repro-shard-", suffix=".soa")
            os.close(fd)
            self._remove_store = weakref.finalize(
                self, Path(path).unlink, missing_ok=True
            )
            write_soa(path, database.ids, database.points)
        try:
            self.pool = ShardPool(path, self.shards, workers)
        except BaseException:
            self._delete_store()
            raise

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

    def planner(self):
        return self._database.planner()

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

    #: The service builds its engine through :meth:`engine`, so every
    #: micro-batch scatters across the worker processes while the
    #: scheduler, admission control and degradation behave as unsharded.
    serve = SpatialDatabase.serve

    # -- lifecycle ------------------------------------------------------

    def _delete_store(self) -> None:
        if self._remove_store is not None:
            self._remove_store()

    def close(self) -> None:
        """Stop the worker pool and delete a temporary store (idempotent)."""
        self.pool.close()
        self._delete_store()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
