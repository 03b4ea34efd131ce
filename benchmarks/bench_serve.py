"""Load benchmark for the embedded query service (:mod:`repro.serve`).

A closed-loop client submits a 200-request hot-key workload (a zipf-ish
mix over ~40 distinct query shapes — the classic serving traffic
pattern) and the table compares three dispatch modes:

- ``sequential`` — the service with ``max_batch=1``: every request is
  its own engine call, no coalescing (the no-micro-batching baseline);
- ``batched`` — dynamic micro-batching (``max_batch=32``), result cache
  off: coalesced drains execute bit-identical in-flight duplicates once
  and fan the result out;
- ``batched+cache`` — the full serving stack with the keyed LRU result
  cache on.

Acceptance gate: micro-batched throughput must be >= 1.5x the
sequential-dispatch baseline, and every response must be bit-identical
to running the same queries through ``QueryEngine.run_batch`` directly.
On a single core the win comes from duplicate coalescing and caching
(per-request work cannot be parallelised); with more cores the
coalesced ``run_batch`` fan-out adds thread-level speedup on top.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import bench_batch_queries, report, report_json

from repro.bench.harness import ExperimentTable
from repro.core.database import SpatialDatabase
from repro.gaussian.distribution import Gaussian
from repro.integrate.cascade import CascadeIntegrator
from repro.serve import PRQRequest

DISTINCT_SHAPES = 40


def make_service_workload(
    n_requests: int, seed: int = 11
) -> tuple[SpatialDatabase, list[PRQRequest]]:
    """A database plus a hot-key request mix (zipf-ish over 40 shapes)."""
    rng = np.random.default_rng(seed)
    db = SpatialDatabase(rng.random((10_000, 2)) * 1000.0)
    shapes = []
    for _ in range(DISTINCT_SHAPES):
        shapes.append((
            rng.random(2) * 900.0 + 50.0,
            float(rng.choice([2.0, 5.0, 10.0])),
            float(rng.choice([5.0, 10.0])),
            float(rng.choice([0.1, 0.3])),
        ))
    weights = 1.0 / np.arange(1, DISTINCT_SHAPES + 1) ** 1.1
    weights /= weights.sum()
    picks = rng.choice(DISTINCT_SHAPES, size=n_requests, p=weights)
    requests = []
    for i, k in enumerate(picks):
        center, scale, delta, theta = shapes[k]
        requests.append(PRQRequest(
            Gaussian(center, scale * np.eye(2)), delta, theta, request_id=i
        ))
    return db, requests


def drive(db, requests, *, max_batch: int, cache_size: int):
    """Submit the whole workload closed-loop; return (wall, responses, stats)."""
    with db.serve(
        max_batch=max_batch,
        batch_window=0.002,
        workers=4,
        integrator=CascadeIntegrator(),
        cache_size=cache_size,
        degrade=False,
    ) as service:
        start = time.perf_counter()
        futures = [service.submit(r) for r in requests]
        responses = [f.result() for f in futures]
        wall = time.perf_counter() - start
        stats = service.snapshot()
    return wall, responses, stats


def test_serve_microbatching_speedup(benchmark):
    """Micro-batched dispatch >= 1.5x sequential dispatch, bit-identical."""
    n = bench_batch_queries(200)
    db, requests = make_service_workload(n)
    direct = db.engine(integrator=CascadeIntegrator()).run_batch(
        [r.query for r in requests], workers=1
    )

    modes = {}

    def run():
        table = ExperimentTable(
            f"Serving — {n}-request hot-key workload, closed-loop client",
            ["mode", "wall ms", "qps", "p50 ms", "p99 ms",
             "executed", "deduped", "cache hits"],
        )
        for label, max_batch, cache_size in (
            ("sequential", 1, 0),
            ("batched", 32, 0),
            ("batched+cache", 32, 1024),
        ):
            wall, responses, stats = drive(
                db, requests, max_batch=max_batch, cache_size=cache_size
            )
            latencies = sorted(r.service_seconds for r in responses)
            modes[label] = (wall, responses, stats)
            table.add_row(
                label,
                wall * 1e3,
                n / wall,
                latencies[int(0.50 * (n - 1))] * 1e3,
                latencies[int(0.99 * (n - 1))] * 1e3,
                stats.executed,
                stats.deduplicated,
                stats.cache_hits,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    report("serve_microbatching", table.render())
    report_json("BENCH_serve", {
        label: {
            "wall_seconds": wall,
            "qps": n / wall,
            "executed": stats.executed,
            "deduplicated": stats.deduplicated,
            "cache_hits": stats.cache_hits,
            "batches": stats.batches,
            "coalesced_batches": stats.coalesced_batches,
        }
        for label, (wall, _, stats) in modes.items()
    })

    # Soundness before speed: every mode must answer every request
    # bit-identically to direct batch execution.
    for label, (_, responses, stats) in modes.items():
        assert all(r.status == "ok" for r in responses), label
        assert tuple(r.ids for r in responses) == direct.ids, (
            f"{label} responses diverged from direct run_batch"
        )
        assert stats.failed == 0 and stats.overloaded == 0

    # Micro-batching must actually coalesce, and pay off.
    assert modes["batched"][2]["coalesced_batches"] >= 1
    assert modes["batched"][2]["executed"] < n
    speedup = modes["sequential"][0] / modes["batched"][0]
    assert speedup >= 1.5, (
        f"micro-batched dispatch only {speedup:.2f}x sequential"
    )


def test_serve_admission_control(benchmark):
    """A tiny queue under burst load rejects with typed responses and
    never blocks or drops a request silently."""
    db, requests = make_service_workload(100)

    def run():
        with db.serve(
            max_queue=8, max_batch=4, batch_window=0.0,
            workers=1, integrator=CascadeIntegrator(), cache_size=0,
        ) as service:
            futures = [service.submit(r) for r in requests]
            return [f.result(timeout=60.0) for f in futures]

    responses = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(responses) == len(requests)
    overloaded = [r for r in responses if r.status == "overloaded"]
    served = [r for r in responses if r.status == "ok"]
    assert len(overloaded) + len(served) == len(requests)
    assert overloaded, "burst into an 8-slot queue must shed load"
    assert served, "admission control must not reject everything"
    assert all(r.error is not None for r in overloaded)
    report("serve_admission", (
        f"burst of {len(requests)} into queue bound 8: "
        f"{len(served)} served, {len(overloaded)} overloaded (typed)"
    ))
