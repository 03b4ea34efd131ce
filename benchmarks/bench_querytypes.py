"""Query-kind planner parity — auto plans vs the per-kind fixed oracle.

The acceptance bar for the unified query-kind pipeline (see
docs/query_types.md): for every kind — exact-target PRQ,
uncertain-target PRQ, Gaussian-mixture, probabilistic k-NN — the
``auto`` engine (the paper's ALL for range-shaped kinds, the kind plan
for k-NN) must run a mixed workload within 1.1x of the best
*fixed* plan for that kind (the "fixed oracle": rerun the workload under
each fixed strategy spec and keep the cheapest).  Answers must be
bit-identical across every plan, fixed or auto — strategies only change
how hard Phases 1/2 prune, never what Phase 3 decides.

Results land in ``BENCH_querytypes.json`` at the repo root: per kind,
seconds under each fixed spec, seconds under ``auto``, the winning fixed
spec, and the auto/best-fixed ratio the gate checks.

Environment knobs:

- ``REPRO_BENCH_QT_POINTS`` — dataset size (default 4,000);
- ``REPRO_BENCH_QT_QUERIES`` — queries per kind (default 8);
- ``REPRO_BENCH_QT_REPEATS`` — best-of repeats per measurement (default 5);
- ``REPRO_BENCH_QT_GATE`` — auto vs best-fixed ratio bound (default 1.1);
- ``REPRO_BENCH_QT_SLACK`` — absolute timer-noise allowance in seconds on
  top of the ratio bound (default 0.005 — meaningful only for kinds whose
  whole batch runs in a few milliseconds, vanishing for the rest).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import report, report_json

from repro import (
    Gaussian,
    GaussianMixture,
    KNNQuery,
    MixtureRangeQuery,
    ProbabilisticRangeQuery,
    SpatialDatabase,
    TargetCovarianceTable,
    UncertainTargetQuery,
)
from repro.bench.harness import ExperimentTable
from repro.integrate.cascade import CascadeIntegrator

FIXED_SPECS = ("rr", "bf", "all")


def qt_points(default: int = 4_000) -> int:
    return int(os.environ.get("REPRO_BENCH_QT_POINTS", default))


def qt_queries(default: int = 8) -> int:
    return int(os.environ.get("REPRO_BENCH_QT_QUERIES", default))


def qt_repeats(default: int = 5) -> int:
    return int(os.environ.get("REPRO_BENCH_QT_REPEATS", default))


def qt_gate(default: float = 1.1) -> float:
    return float(os.environ.get("REPRO_BENCH_QT_GATE", default))


def qt_slack(default: float = 0.005) -> float:
    return float(os.environ.get("REPRO_BENCH_QT_SLACK", default))


def best_of_interleaved(fns: dict[str, object], repeats: int) -> dict[str, float]:
    """Minimum wall-clock per labelled thunk, measured round-robin.

    Interleaving the contenders inside each repeat round (instead of
    exhausting one engine's repeats before starting the next) cancels
    machine drift — a slow round hits every contender, not just the one
    that happened to run last.
    """
    best = {label: float("inf") for label in fns}
    for _ in range(repeats):
        for label, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return best


def make_database(n: int, dim: int = 2, seed: int = 3) -> SpatialDatabase:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1000.0, size=(n, dim))
    ids = np.arange(n)
    table = TargetCovarianceTable.shared(40.0 * np.eye(dim), ids)
    return SpatialDatabase(points, ids=ids, target_table=table)


def query_gaussian(rng, dim: int) -> Gaussian:
    sigma = 800.0 * np.eye(dim)
    sigma[0, 0] *= 2.0
    center = rng.uniform(300.0, 700.0, size=dim)
    return Gaussian(center, sigma)


def make_workloads(dim: int, n_queries: int) -> dict[str, list]:
    """``n_queries`` queries of each kind, deterministic in the seed."""
    rng = np.random.default_rng(11)
    workloads: dict[str, list] = {"prq": [], "uncertain": [], "mixture": [], "knn": []}
    for i in range(n_queries):
        delta = 60.0 + 5.0 * (i % 4)
        theta = 0.03 + 0.01 * (i % 3)
        workloads["prq"].append(
            ProbabilisticRangeQuery(query_gaussian(rng, dim), delta, theta)
        )
        workloads["uncertain"].append(
            UncertainTargetQuery(query_gaussian(rng, dim), delta, theta)
        )
        mixture = GaussianMixture(
            [query_gaussian(rng, dim), query_gaussian(rng, dim)],
            weights=[0.6, 0.4],
        )
        workloads["mixture"].append(MixtureRangeQuery.create(mixture, delta, theta))
        workloads["knn"].append(
            KNNQuery.create(
                query_gaussian(rng, dim),
                k=2,
                theta=0.1,
                n_samples=400,
                seed=i,
            )
        )
    return workloads


def run_workload(engine, queries) -> list[tuple[int, ...]]:
    return [tuple(engine.execute(query).ids) for query in queries]


def test_query_kind_auto_plan(benchmark):
    def run():
        db = make_database(qt_points())
        workloads = make_workloads(db.dim, qt_queries())
        repeats = qt_repeats()
        table = ExperimentTable(
            "Query kinds — auto plan vs per-kind fixed oracle "
            f"({qt_queries()} queries/kind, {qt_points()} points)",
            ["kind", *(f"{spec} ms" for spec in FIXED_SPECS), "auto ms", "ratio"],
        )
        payload: dict[str, dict] = {}
        for kind, queries in workloads.items():
            engines = {
                spec: db.engine(strategies=spec, integrator=CascadeIntegrator())
                for spec in (*FIXED_SPECS, "auto")
            }
            # Warm-up pass: r_theta/BF lookups — and the
            # soundness check. Every plan must return the same answer.
            answers = {
                label: run_workload(engine, queries)
                for label, engine in engines.items()
            }
            for spec in FIXED_SPECS:
                assert answers[spec] == answers["auto"], (
                    f"{kind}: fixed plan {spec!r} disagrees with auto"
                )
            timings = best_of_interleaved(
                {
                    label: (lambda e=engine: run_workload(e, queries))
                    for label, engine in engines.items()
                },
                repeats,
            )
            auto_seconds = timings.pop("auto")
            best_spec = min(timings, key=timings.get)
            ratio = auto_seconds / timings[best_spec]
            table.add_row(
                kind,
                *(timings[spec] * 1e3 for spec in FIXED_SPECS),
                auto_seconds * 1e3,
                ratio,
            )
            payload[kind] = {
                "fixed_seconds": timings,
                "auto_seconds": auto_seconds,
                "best_fixed_spec": best_spec,
                "auto_vs_best_fixed_ratio": ratio,
                "n_queries": len(queries),
                "results_identical_across_plans": True,
            }
        return table, payload

    table, payload = benchmark.pedantic(run, rounds=1, iterations=1)
    report("querytypes", table.render())
    report_json(
        "BENCH_querytypes",
        {"gate": qt_gate(), "slack_seconds": qt_slack(), "kinds": payload},
    )

    gate = qt_gate()
    slack = qt_slack()
    for kind, row in payload.items():
        best = row["fixed_seconds"][row["best_fixed_spec"]]
        assert row["auto_seconds"] <= gate * best + slack, (
            f"{kind}: auto plan {row['auto_vs_best_fixed_ratio']:.2f}x the "
            f"best fixed plan ({row['best_fixed_spec']}), gate {gate:.2f}x "
            f"+ {slack * 1e3:.1f} ms"
        )
