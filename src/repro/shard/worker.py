"""Shard worker process: open the store, build local trees, execute tasks.

Each worker process owns one or more shards.  At startup it maps the
database's structure-of-arrays store file (:func:`repro.core.storage.open_soa`
— every process maps the same file, so the OS page cache shares the
points), bulk-loads one R*-tree per owned shard (the only per-worker
memory is the tree itself), then loops on its task queue running the
standard three-phase pipeline (:func:`repro.core.stages.execute_pipeline`)
against the shard-local tree.  The worker searches the Phase-1
rectangle the coordinator routed on, with the strategies it prepared
(none is prepared twice), and the integrator arrives already
forked/seeded, so a task's outcome is a pure function of the task
message — independent of which worker runs it or when.

Every message back goes down the worker's own result pipe: first
:data:`READY` once the trees are built, then one :class:`ShardTaskResult`
per task.  No lock is shared with any other process, so a worker killed
mid-send cannot stall its siblings.

Failure semantics: any exception inside a task becomes an error payload
(the worker survives); a crashed/killed worker is detected by the
coordinator (its process sentinel fires, or its pipe reaches end of
file) and its outstanding tasks are failed with
:class:`repro.errors.ShardError`.
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
from repro.core.storage import SoaStore, open_soa
from repro.core.strategies import Strategy
from repro.geometry.mbr import Rect
from repro.index.rtree import RStarTree
from repro.integrate.base import ProbabilityIntegrator

__all__ = ["ShardTask", "ShardTaskResult", "worker_main"]

#: The first message of every worker: its trees are built.
READY = "ready"


@dataclass(frozen=True)
class ShardTask:
    """One (query, shard) execution order, fully self-contained."""

    task_id: int
    query_index: int
    shard_id: int
    query: ProbabilisticRangeQuery
    #: The leg's planned, kind-adapted strategies, prepared against
    #: ``query`` by the coordinator's routing.
    strategies: list[Strategy]
    #: The leg's Phase-1 rectangle, which the coordinator routed on.
    rect: Rect
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
    """Search the task's rectangle in a shard tree, then Filter/Integrate."""
    stats = QueryStats()
    ctx = StageContext(task.query, task.strategies, task.integrator, stats)
    stages = [SearchStage(tree, rect=task.rect), FilterStage(), IntegrateStage()]
    ids = execute_pipeline(ctx, stages)
    return ShardTaskResult(
        task.task_id, task.query_index, task.shard_id, ids=ids, stats=stats
    )


def build_shard_tree(store: SoaStore, positions: np.ndarray) -> RStarTree:
    """Bulk-load one shard's R*-tree over rows of the mapped store."""
    tree = RStarTree(store.dim)
    tree.bulk_load(store.ids[positions], store.points[positions])
    return tree


def worker_main(
    store_path: str,
    owned_shards: list[tuple[int, np.ndarray]],
    task_queue,
    results,
) -> None:
    """Process entry point: build trees, then drain tasks until ``None``.

    ``results`` is the write end of this worker's own result pipe.
    """
    store = open_soa(store_path)
    trees = {
        shard_id: build_shard_tree(store, positions)
        for shard_id, positions in owned_shards
    }
    results.send(READY)
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
        results.send(result)
