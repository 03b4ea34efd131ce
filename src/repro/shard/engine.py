"""Scatter–gather PRQ execution over spatial shards in worker processes.

The coordinator (this module) does everything that must be globally
consistent — planning, per-query integrator forking, Phase-0 routing —
and ships self-contained :class:`~repro.shard.worker.ShardTask` messages
to a pool of long-lived worker processes, one R*-tree per shard, all
mapping the same structure-of-arrays store file.  Results are merged
deterministically in shard order.

Routing is Phase 1 reused: the coordinator prepares the query's
strategies and computes the combined Phase-1 search rectangle (the
θ-region Minkowski box, possibly tightened by the other strategies); a
shard is dispatched only when its MBR intersects that rectangle.  Since
a shard whose MBR misses the rectangle cannot contain a Phase-1
candidate, skipped shards contribute nothing — the union of routed
shards' candidates *is* the unsharded candidate set.

Determinism contract (matching :meth:`repro.core.engine.QueryEngine`):
every query's integrator is forked from the ``i``-th spawn of
``SeedSequence(base_seed)`` and every shard receives a copy with the
*same entry state*, so for composition-independent integrators (see
:attr:`~repro.integrate.base.ProbabilityIntegrator.composition_independent`)
the merged results are bit-identical to the single-engine path for every
shard count and worker count.  Composition-dependent
samplers are automatically wrapped in
:class:`~repro.shard.seeding.CandidateSeededIntegrator`, which keeps the
cross-shard-count guarantee (at the price of differing from the
unwrapped sampler's stream).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np

from repro.core.engine import (
    BatchResult,
    IntegratorFactory,
    QueryEngine,
    QueryResult,
)
from repro.core.kinds import query_kind
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import phase1_rect
from repro.core.stats import BatchStats, QueryStats
from repro.core.strategies import Strategy
from repro.errors import QueryError, ReproError, ShardError
from repro.integrate.base import ProbabilityIntegrator
from repro.obs import COUNT_BUCKETS, Observability, span_of
from repro.shard.partition import ShardSpec
from repro.shard.seeding import CandidateSeededIntegrator
from repro.shard.worker import ShardTask, ShardTaskResult, worker_main

__all__ = ["ShardPool", "ShardedEngine"]

#: Fork where the platform has it (a worker starts without re-importing
#: the package), spawn elsewhere.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass
class _Worker:
    """One worker process plus its private task queue and result pipe."""

    index: int
    owned: list[tuple[int, np.ndarray]]
    process: mp.Process
    task_queue: object
    #: Read end of the pipe only this worker writes to.
    results: object


@dataclass(frozen=True)
class PoolRunReport:
    """Outcome of one :meth:`ShardPool.run`: results plus fault counters."""

    results: dict[int, ShardTaskResult]
    worker_failures: int = 0


class ShardPool:
    """Long-lived worker processes executing :class:`ShardTask` messages.

    Shard ``s`` is owned by worker ``s % n_workers``; each worker builds
    the R*-trees for its shards once, at startup, over the store file at
    ``store_path``.  ``run`` is thread-safe (serialized), so several
    engines — e.g. a user thread and the ``repro.serve`` scheduler — can
    share one pool.

    Fault handling: a worker that dies (crash, ``SIGKILL``) is detected
    through its process sentinel or the end of its result pipe; its
    outstanding tasks are failed with a typed error payload and the
    worker is respawned with a fresh queue and pipe, so the next batch
    runs at full strength.  A worker that dies before it has built its
    trees fails the pool's start with a :class:`QueryError`.
    """

    def __init__(
        self,
        store_path,
        shards: list[ShardSpec],
        n_workers: int | None = None,
    ):
        if not shards:
            raise QueryError("at least one shard is required")
        self._store_path = str(store_path)
        self._ctx = mp.get_context(_START_METHOD)
        self.n_workers = min(n_workers or len(shards), len(shards))
        if self.n_workers < 1:
            raise QueryError(f"n_workers must be >= 1, got {self.n_workers}")
        self._lock = threading.Lock()
        self._task_ids = itertools.count()
        self._closed = False
        #: Cumulative count of workers found dead (read by the engine's
        #: metrics).
        self.worker_failures = 0
        self._workers: list[_Worker] = []
        try:
            for widx in range(self.n_workers):
                owned = [
                    (spec.shard_id, spec.positions)
                    for spec in shards
                    if spec.shard_id % self.n_workers == widx
                ]
                self._workers.append(self._spawn(widx, owned))
            # Block until every worker has built its trees: keeps startup
            # cost out of the first batch and surfaces build errors early.
            waiting = set(range(self.n_workers))
            while waiting:
                for worker, message in self._receive():
                    if message is None:
                        raise QueryError(
                            f"shard worker {worker.index} exited with code "
                            f"{worker.process.exitcode} before it was ready"
                        )
                    waiting.discard(worker.index)
        except BaseException:
            self.close()
            raise

    def _spawn(self, widx: int, owned) -> _Worker:
        task_queue = self._ctx.Queue()
        results, sender = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(self._store_path, owned, task_queue, sender),
            daemon=True,
        )
        process.start()
        # The worker now holds the only write end, so its death reads as
        # end of file here.
        sender.close()
        return _Worker(widx, owned, process, task_queue, results)

    def _receive(self) -> list[tuple[_Worker, object]]:
        """Block until some worker sends a message or dies.

        Returns ``(worker, message)`` pairs; message ``None`` marks a
        dead worker, already killed and joined so its exit code is set.
        """
        handles = {}
        for worker in self._workers:
            handles[worker.results] = worker
            handles[worker.process.sentinel] = worker
        events = []
        for handle in wait(list(handles)):
            worker = handles[handle]
            if handle is worker.results:
                try:
                    events.append((worker, worker.results.recv()))
                    continue
                except (EOFError, OSError):
                    pass
            worker.process.kill()
            worker.process.join()
            events.append((worker, None))
        return events

    def next_task_id(self) -> int:
        return next(self._task_ids)

    def worker_for(self, shard_id: int) -> int:
        return shard_id % self.n_workers

    @property
    def processes(self) -> list[mp.Process]:
        """The live worker processes (test hook for fault injection)."""
        return [w.process for w in self._workers]

    def run(self, tasks: list[ShardTask]) -> PoolRunReport:
        """Dispatch ``tasks`` and gather one result per task.

        Never raises for worker faults: a dead worker's outstanding tasks
        come back as :class:`ShardTaskResult` error payloads and the
        worker is respawned before returning.
        """
        if self._closed:
            raise QueryError("shard pool is closed")
        with self._lock:
            outstanding: dict[int, ShardTask] = {}
            for task in tasks:
                outstanding[task.task_id] = task
                self._workers[self.worker_for(task.shard_id)].task_queue.put(task)
            results: dict[int, ShardTaskResult] = {}
            failures = 0
            while outstanding:
                for worker, message in self._receive():
                    if self._workers[worker.index] is not worker:
                        continue  # already failed over
                    if message is None:
                        failures += 1
                        self._fail_over(worker, outstanding, results)
                    elif (
                        isinstance(message, ShardTaskResult)
                        and message.task_id in outstanding
                    ):
                        del outstanding[message.task_id]
                        results[message.task_id] = message
            self.worker_failures += failures
            return PoolRunReport(results, worker_failures=failures)

    def _fail_over(self, worker: _Worker, outstanding, results) -> None:
        """Fail a dead worker's outstanding tasks; respawn the worker."""
        reason = (
            f"worker process {worker.index} died "
            f"(exitcode {worker.process.exitcode})"
        )
        for task_id, task in list(outstanding.items()):
            if self.worker_for(task.shard_id) == worker.index:
                del outstanding[task_id]
                results[task_id] = ShardTaskResult(
                    task.task_id, task.query_index, task.shard_id, error=reason
                )
        # A fresh queue drops any tasks buffered for the dead worker
        # — they were just failed above; the respawn must not rerun
        # them and report duplicate (ignored) results.
        self._drain_task_queue(worker)
        worker.results.close()
        self._workers[worker.index] = self._spawn(worker.index, worker.owned)

    @staticmethod
    def _drain_task_queue(worker: _Worker) -> None:
        try:
            while True:
                worker.task_queue.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop every worker (sentinel, then terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - torn queue
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.terminate()
                worker.process.join(1.0)
        for worker in self._workers:
            worker.task_queue.cancel_join_thread()
            worker.task_queue.close()
            worker.results.close()


@dataclass
class _Prepared:
    """Coordinator-side state for one query of a batch."""

    stats: QueryStats
    #: One task per (leg, routed shard) pair.
    tasks: list[ShardTask] = field(default_factory=list)
    #: (leg, shard) pairs pruned by MBR routing.
    skipped: int = 0
    error: ReproError | None = None
    #: Result of a query executed coordinator-side (k-NN kind, whose win
    #: counting needs every competitor in one candidate set).
    local: QueryResult | None = None


class ShardedEngine(QueryEngine):
    """Drop-in :class:`~repro.core.engine.QueryEngine` over a shard pool.

    A :class:`QueryEngine` whose batches scatter across the pool: the
    constructor contract, ``explain``, plan application and
    error typing are the base class's; ``execute`` and ``run_batch``
    route, scatter and merge.  ``repro.serve`` and every batch caller
    work unchanged.  The ``workers`` argument of ``run_batch`` is
    validated for compatibility but parallelism is governed by the
    pool's worker processes — queries fan out across shards, not threads.
    """

    def __init__(
        self,
        database,
        strategies: list[Strategy],
        integrator: ProbabilityIntegrator | None = None,
        *,
        planner=None,
        obs: Observability | None = None,
        targets=None,
    ):
        self.database = database
        self._configure(strategies, integrator, planner, obs, targets)

    @property
    def index(self):
        """The coordinator's index over the full point set.

        Phase-0 routing needs only the dimension, so this is built on
        first use — by ``explain`` or a k-NN query — not at construction.
        """
        return self.database.index

    def execute(self, query: ProbabilisticRangeQuery) -> QueryResult:
        return self.run_batch([query]).results[0]

    def run_batch(
        self,
        queries,
        *,
        workers: int = 1,
        base_seed: int = 0,
        integrator_factory: IntegratorFactory | None = None,
        return_errors: bool = False,
    ) -> BatchResult:
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        queries = list(queries)
        pool = self.database.pool
        shards = self.database.shards
        seeds = np.random.SeedSequence(base_seed).spawn(len(queries))
        obs = self.obs

        start = time.perf_counter()
        with span_of(
            obs, "batch", queries=len(queries), workers=pool.n_workers
        ):
            prepared = [
                self._prepare(i, query, seed, integrator_factory, return_errors)
                for i, (query, seed) in enumerate(zip(queries, seeds))
            ]
            tasks = [task for prep in prepared for task in prep.tasks]

            report = PoolRunReport({})
            with span_of(
                obs,
                "shard:scatter",
                queries=len(queries),
                tasks=len(tasks),
                shards=len(shards),
            ) as scatter_span:
                try:
                    if tasks:
                        report = pool.run(tasks)
                finally:
                    scatter_span.annotate(
                        worker_failures=report.worker_failures
                    )

            per_query: list[list[ShardTaskResult]] = [[] for _ in queries]
            for result in report.results.values():
                per_query[result.query_index].append(result)
            results = [
                self._merge(i, prep, per_query[i], return_errors)
                for i, prep in enumerate(prepared)
            ]
        wall = time.perf_counter() - start

        batch = BatchStats.of(results, workers=pool.n_workers, wall_seconds=wall)
        if obs is not None:
            self._publish(obs, prepared, tasks, report, len(shards))
            for result in results:
                obs.record_query(result.stats)
            obs.record_batch(batch)
        return BatchResult(tuple(results), batch)

    # -- coordinator internals -----------------------------------------

    def _prepare(
        self, i, query, seed, integrator_factory, return_errors
    ) -> _Prepared:
        try:
            if integrator_factory is not None:
                integrator = integrator_factory(query, seed)
            else:
                integrator = self.integrator.fork(seed)
            if query_kind(query) == "knn":
                # The win count compares every competitor against every
                # other, so the candidate set cannot be partitioned;
                # execute against the coordinator's full index with the
                # exact same (legs, integrator, seed) the unsharded engine
                # would use — bit-identical by construction.  No sink:
                # run_batch records every result itself.
                result = self._execute_with(query, integrator, seed=seed, obs=None)
                return _Prepared(stats=result.stats, local=result)
            # The composition-independence fix-up goes under the kind
            # adapters, so a kind decider stays outermost.
            if not integrator.composition_independent:
                integrator = CandidateSeededIntegrator(integrator)
            shards = self.database.shards
            parts: list[QueryStats] = []
            tasks: list[ShardTask] = []
            skipped = 0
            for leg, strategies, decider, stats in self.legs(
                query, integrator, seed=seed
            ):
                parts.append(stats)
                # Phase-0 routing: the leg's own Phase-1 rectangle is the
                # routing volume, and every routed shard searches it with
                # the strategies prepared here.
                with stats.time_phase("search"):
                    rect = phase1_rect(leg, strategies, stats, dim=self.database.dim)
                routed = [] if rect is None else [
                    spec for spec in shards if spec.mbr.intersects(rect)
                ]
                skipped += len(shards) - len(routed)
                tasks += [
                    ShardTask(
                        task_id=self.database.pool.next_task_id(),
                        query_index=i,
                        shard_id=spec.shard_id,
                        query=leg,
                        strategies=strategies,
                        rect=rect,
                        integrator=decider,
                    )
                    for spec in routed
                ]
            return _Prepared(QueryStats.combine(parts), tasks, skipped)
        except BaseException as exc:  # noqa: BLE001 - re-typed below
            error = self._typed_failure(i, exc, return_errors)
            return _Prepared(stats=QueryStats(), error=error)

    def _merge(
        self,
        i: int,
        prep: _Prepared,
        shard_results: list[ShardTaskResult],
        return_errors: bool,
    ) -> QueryResult:
        if prep.error is not None:
            return QueryResult((), QueryStats(), error=prep.error)
        if prep.local is not None:
            return prep.local
        parts = [prep.stats]
        errors: list[ShardError] = []
        # Shard order, not arrival order: merged stats dict insertion
        # (rejections, tier decisions) must not depend on scheduling.
        for result in sorted(shard_results, key=lambda r: r.shard_id):
            if result.error is not None:
                errors.append(ShardError(result.shard_id, i, result.error))
            else:
                parts.append(result.stats)
        if errors:
            if not return_errors:
                raise errors[0]
            return QueryResult((), QueryStats(), error=errors[0])
        ids = tuple(sorted(
            int(obj) for result in shard_results for obj in result.ids
        ))
        return QueryResult(ids, QueryStats.combine(parts))

    def _publish(
        self, obs, prepared, tasks, report, n_shards: int
    ) -> None:
        """Emit the ``repro_shard_*`` metric family for one batch."""
        reg = obs.metrics
        reg.gauge(
            "repro_shard_count", "Number of spatial shards in the pool"
        ).set(n_shards)
        reg.counter(
            "repro_shard_tasks_total",
            "Shard tasks dispatched to worker processes",
        ).inc(len(tasks))
        routed = reg.counter(
            "repro_shard_routed_total",
            "Query-shard pairs routed (shard MBR intersected the query box)",
        )
        skipped = reg.counter(
            "repro_shard_skipped_total",
            "Query-shard pairs pruned by MBR routing",
        )
        fanout = reg.histogram(
            "repro_shard_fanout",
            "Shards dispatched per query",
            buckets=COUNT_BUCKETS,
        )
        for prep in prepared:
            if prep.error is not None:
                continue
            routed.inc(len(prep.tasks))
            skipped.inc(prep.skipped)
            fanout.observe(len(prep.tasks))
        reg.counter(
            "repro_shard_worker_failures_total",
            "Worker processes found dead (and respawned) during "
            "scatter-gather",
        ).inc(report.worker_failures)
