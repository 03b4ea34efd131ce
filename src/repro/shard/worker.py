"""Shard worker process: attach, build local trees, execute tasks.

Each worker process owns one or more shards.  At startup it attaches the
shared-memory point store, bulk-loads one R*-tree per owned shard (views
into shared pages — the only per-worker memory is the tree itself), then
loops on its task queue running the standard three-phase pipeline
(:func:`repro.core.stages.execute_pipeline`) against the shard-local
tree.  Strategies arrive *unprepared* and the integrator arrives already
forked/seeded by the coordinator, so a task's outcome is a pure function
of the task message — independent of which worker runs it or when.

Failure semantics: any exception inside a task becomes an error payload
on the result queue (the worker survives); a crashed/killed worker is
detected by the coordinator via liveness checks and its outstanding
tasks are failed with :class:`repro.errors.ShardError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import (
    FilterStage,
    IntegrateStage,
    SearchStage,
    StageContext,
    execute_pipeline,
)
from repro.core.stats import QueryStats
from repro.core.strategies import Strategy
from repro.index.rtree import RStarTree
from repro.integrate.base import ProbabilityIntegrator
from repro.shard.shm import ShmDescriptor, SharedPointStore

__all__ = ["ShardTask", "ShardTaskResult", "worker_main"]


@dataclass(frozen=True)
class ShardTask:
    """One (query, shard) execution order, fully self-contained."""

    task_id: int
    query_index: int
    shard_id: int
    query: ProbabilisticRangeQuery
    #: Unprepared strategy clones; the worker prepares them itself.
    strategies: list[Strategy]
    #: Already forked/seeded for this query — identical entry state on
    #: every shard the query fans out to.
    integrator: ProbabilityIntegrator


@dataclass(frozen=True)
class ShardTaskResult:
    """A finished (or failed) task, reported back to the coordinator."""

    task_id: int
    query_index: int
    shard_id: int
    ids: tuple[int, ...] = ()
    stats: QueryStats = field(default_factory=QueryStats)
    #: ``"ExcType: message"`` when the task raised; ``None`` on success.
    error: str | None = None


def execute_task(tree: RStarTree, task: ShardTask) -> ShardTaskResult:
    """Run the three-phase pipeline for one task against a shard tree."""
    stats = QueryStats()
    ctx = StageContext(task.query, task.strategies, task.integrator, stats)
    ids = execute_pipeline(ctx, [SearchStage(tree), FilterStage(), IntegrateStage()])
    return ShardTaskResult(
        task.task_id, task.query_index, task.shard_id, ids=ids, stats=stats
    )


def build_shard_tree(
    store: SharedPointStore,
    positions: np.ndarray,
    *,
    max_entries: int = 50,
    method: str = "str",
) -> RStarTree:
    """Bulk-load one shard's R*-tree over shared-memory views."""
    tree = RStarTree(store.dim, max_entries=max_entries)
    ids = store.ids[positions]
    tree.bulk_load(ids.tolist(), store.points[positions], method=method)
    return tree


def worker_main(
    descriptor: ShmDescriptor,
    owned_shards: list[tuple[int, np.ndarray]],
    task_queue,
    result_queue,
    *,
    max_entries: int = 50,
    method: str = "str",
    untrack_shm: bool = False,
) -> None:
    """Process entry point: build trees, then drain tasks until ``None``."""
    store = SharedPointStore.attach(descriptor, untrack=untrack_shm)
    try:
        trees = {
            shard_id: build_shard_tree(
                store, positions, max_entries=max_entries, method=method
            )
            for shard_id, positions in owned_shards
        }
        result_queue.put(("ready", None))
        while True:
            task = task_queue.get()
            if task is None:
                break
            try:
                result = execute_task(trees[task.shard_id], task)
            except BaseException as exc:  # noqa: BLE001 - reported, not raised
                result = ShardTaskResult(
                    task.task_id,
                    task.query_index,
                    task.shard_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            result_queue.put(("result", result))
    finally:
        store.close()
