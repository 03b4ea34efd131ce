"""Sharded scatter–gather process curve, parity and throughput gate.

The acceptance bar for `repro.shard` (see docs/sharding.md): on a
>= 200k-point workload, batch throughput with 4 shard worker processes
must be >= 2.5x the single-engine path, and the merged answers must be
**bit-identical** query-for-query.

The bench times the single engine, then 1, 2 and 4 shard processes (one
shard per process), and records the curve with ``os.cpu_count()`` in
``BENCH_shard.json``.  Parity is asserted at every point of the curve.
The speedup gate only applies where 4 processes can actually run in
parallel (``os.cpu_count() >= 4`` — CI runners qualify); on smaller
hosts the measured ratios are still reported.

Environment knobs (CI smoke shrinks none of the defaults — the gate is
specified at 200k points):

- ``REPRO_BENCH_SHARD_POINTS`` — dataset size (default 200,000);
- ``REPRO_BENCH_SHARD_QUERIES`` — batch size (default 40).
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import report, report_json

from repro.bench.harness import ExperimentTable
from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.gaussian.distribution import Gaussian
from repro.integrate.cascade import CascadeIntegrator

PROCESS_COUNTS = (1, 2, 4)
GATED_PROCESSES = 4
SPEEDUP_GATE = 2.5


def shard_points(default: int = 200_000) -> int:
    return int(os.environ.get("REPRO_BENCH_SHARD_POINTS", default))


def shard_queries(default: int = 40) -> int:
    return int(os.environ.get("REPRO_BENCH_SHARD_QUERIES", default))


def make_dataset(n: int, seed: int = 42) -> np.ndarray:
    """Clustered + uniform mix over [0, 1000]^2, like the test clouds."""
    rng = np.random.default_rng(seed)
    n_uniform = n // 5
    centers = rng.uniform(0.0, 1000.0, (24, 2))
    clustered = (
        centers[rng.integers(0, len(centers), n - n_uniform)]
        + 25.0 * rng.standard_normal((n - n_uniform, 2))
    )
    return np.vstack([clustered, rng.uniform(0.0, 1000.0, (n_uniform, 2))])


def make_queries(k: int, seed: int = 9) -> list[ProbabilisticRangeQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(k):
        center = rng.uniform(100.0, 900.0, 2)
        scale = float(rng.choice([5.0, 20.0, 60.0]))
        delta = float(rng.choice([10.0, 20.0, 35.0]))
        theta = float(rng.choice([0.05, 0.1, 0.3]))
        queries.append(
            ProbabilisticRangeQuery(
                Gaussian(center, scale * np.eye(2)), delta, theta
            )
        )
    return queries


def timed_batch(engine, queries):
    start = time.perf_counter()
    batch = engine.run_batch(queries, base_seed=11)
    return batch, time.perf_counter() - start


def test_shard_throughput_and_parity(benchmark):
    def run():
        points = make_dataset(shard_points())
        queries = make_queries(shard_queries())
        db = SpatialDatabase(points)

        baseline, single_wall = timed_batch(
            db.engine(strategies="all", integrator=CascadeIntegrator()),
            queries,
        )
        walls = {}
        for processes in PROCESS_COUNTS:
            with db.shard(processes, workers=processes) as sharded:
                batch, walls[processes] = timed_batch(
                    sharded.engine(
                        strategies="all", integrator=CascadeIntegrator()
                    ),
                    queries,
                )
            # The hard gate, unconditional: bit-identical merged answers
            # at every point of the curve.
            mismatches = sum(
                got.ids != want.ids
                for got, want in zip(batch.results, baseline.results)
            )
            assert mismatches == 0, (
                f"{processes} processes: {mismatches} queries lost parity"
            )
            assert sum(r.stats.retrieved for r in batch.results) == sum(
                r.stats.retrieved for r in baseline.results
            )

        table = ExperimentTable(
            f"Sharded scatter–gather — {len(points):,} points, "
            f"{len(queries)} queries, cascade Phase 3",
            ["mode", "wall s", "qps", "speedup"],
        )
        table.add_row("single engine", single_wall, len(queries) / single_wall, 1.0)
        for processes, wall in walls.items():
            table.add_row(
                f"{processes} shard processes",
                wall,
                len(queries) / wall,
                single_wall / wall,
            )
        return table, single_wall, walls

    table, single_wall, walls = benchmark.pedantic(run, rounds=1, iterations=1)
    cpus = os.cpu_count()
    speedup = single_wall / walls[GATED_PROCESSES]
    gated = cpus is not None and cpus >= GATED_PROCESSES
    report(
        "shard_throughput",
        table.render()
        + f"\n{GATED_PROCESSES}-process speedup: {speedup:.2f}x "
        + (
            f"(gate: >= {SPEEDUP_GATE}x)"
            if gated
            else f"(gate skipped: {cpus} CPUs < {GATED_PROCESSES})"
        ),
    )
    report_json(
        "BENCH_shard",
        {
            "points": shard_points(),
            "queries": shard_queries(),
            "cpu_count": cpus,
            "single_wall_s": single_wall,
            "curve": [
                {
                    "processes": processes,
                    "wall_s": wall,
                    "speedup": single_wall / wall,
                }
                for processes, wall in walls.items()
            ],
            "speedup_gate_applied": gated,
        },
    )
    if gated:
        assert speedup >= SPEEDUP_GATE, (
            f"{GATED_PROCESSES}-shard speedup {speedup:.2f}x below the "
            f"{SPEEDUP_GATE}x gate"
        )
