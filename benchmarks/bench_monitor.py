"""Update-storm benchmark for safe-region subscription monitoring.

A fleet of standing probabilistic range queries drifts in small random
steps while the data stays put — the paper's moving-object monitoring
workload.  Two implementations answer every update:

- ``safe-region`` — ``repro.serve.monitor.SubscriptionManager``: each
  subscription carries a pre-approximated safe region (alpha shells +
  per-object probability slack), so an update is classified in O(1) and
  usually commits without touching index, filter or integrator;
- ``re-evaluate`` — a cold ``QueryEngine.execute`` at every update:
  all three phases from scratch, the reference the subscription contract
  (``docs/monitoring.md``) promises bit-identity with.

Acceptance gate: safe-region update throughput must be >= 3x cold
re-evaluation on the update storm (measured 3.8-4.5x at the default
1000 x 5 on the 2-vCPU reference box), with every per-update answer
bit-identical between the two paths (both run the deterministic
cascade, so equality is exact, not statistical).  Sizes honour
``REPRO_BENCH_MONITOR_SUBS`` / ``REPRO_BENCH_MONITOR_STEPS`` so CI can
shrink the storm without touching the thresholds.
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
from repro.serve.monitor import SubscriptionManager

SPEEDUP_GATE = 3.0


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def make_fleet(n_subs: int, n_steps: int, seed: int = 29):
    """A database plus a drifting fleet of standing-query parameters."""
    rng = np.random.default_rng(seed)
    db = SpatialDatabase(rng.random((10_000, 2)) * 1000.0)
    centers = rng.random((n_subs, 2)) * 900.0 + 50.0
    sigma_scales = rng.choice([0.25, 0.5, 1.0], size=n_subs)
    deltas = rng.choice([12.0, 15.0, 20.0], size=n_subs)
    thetas = rng.choice([0.3, 0.5], size=n_subs)
    # Small drifts: the regime safe regions are built for.  The storm is
    # still adversarial for correctness — every step of every trajectory
    # is checked bit-for-bit against the re-evaluation path.
    steps = rng.normal(0.0, 0.05, size=(n_steps, n_subs, 2))
    return db, centers, sigma_scales, deltas, thetas, steps


def test_monitor_update_storm_speedup(benchmark):
    """Safe-region updates >= 3x cold re-evaluation, bit-identical."""
    n_subs = _env_int("REPRO_BENCH_MONITOR_SUBS", 1000)
    n_steps = _env_int("REPRO_BENCH_MONITOR_STEPS", 5)
    db, centers, sigma_scales, deltas, thetas, steps = make_fleet(
        n_subs, n_steps
    )
    n_updates = n_subs * n_steps
    positions = steps.cumsum(axis=0) + centers  # (n_steps, n_subs, 2)

    result = {}

    def run():
        table = ExperimentTable(
            f"Monitoring — {n_subs} subscriptions x {n_steps} update steps",
            ["mode", "updates", "wall ms", "updates/s", "survived",
             "reintegrated", "replanned"],
        )

        # Safe-region manager: subscribe once, then drive the storm.
        engine = db.engine(integrator=CascadeIntegrator())
        manager = SubscriptionManager(db, engine, degrade=False)
        for sid in range(n_subs):
            manager.subscribe(
                Gaussian(centers[sid], sigma_scales[sid] * np.eye(2)),
                float(deltas[sid]),
                float(thetas[sid]),
                subscription_id=sid,
            )
        manager_ids = {}
        start = time.perf_counter()
        for step in range(n_steps):
            for sid in range(n_subs):
                resp = manager.update(sid, positions[step, sid])
                manager_ids[step, sid] = resp.ids
        manager_wall = time.perf_counter() - start
        stats = manager.snapshot()
        table.add_row(
            "safe-region", n_updates, manager_wall * 1e3,
            n_updates / manager_wall, stats.survived,
            stats.reintegrated, stats.replanned,
        )

        # Baseline: a cold three-phase query at every update.
        cold = db.engine(integrator=CascadeIntegrator())
        baseline_ids = {}
        start = time.perf_counter()
        for step in range(n_steps):
            for sid in range(n_subs):
                res = cold.execute(
                    ProbabilisticRangeQuery(
                        Gaussian(
                            positions[step, sid],
                            sigma_scales[sid] * np.eye(2),
                        ),
                        float(deltas[sid]),
                        float(thetas[sid]),
                    )
                )
                baseline_ids[step, sid] = res.ids
        baseline_wall = time.perf_counter() - start
        table.add_row(
            "re-evaluate", n_updates, baseline_wall * 1e3,
            n_updates / baseline_wall, "-", "-", "-",
        )

        result["manager_wall"] = manager_wall
        result["baseline_wall"] = baseline_wall
        result["manager_ids"] = manager_ids
        result["baseline_ids"] = baseline_ids
        result["stats"] = stats
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    report("monitor_update_storm", table.render())

    stats = result["stats"]
    speedup = result["baseline_wall"] / result["manager_wall"]
    report_json("BENCH_monitor", {
        "n_subscriptions": n_subs,
        "n_steps": n_steps,
        "n_updates": n_updates,
        "safe_region": {
            "wall_seconds": result["manager_wall"],
            "updates_per_second": n_updates / result["manager_wall"],
            "survived": stats.survived,
            "reintegrated": stats.reintegrated,
            "replanned": stats.replanned,
            "degraded": stats.degraded,
            "failed": stats.failed,
        },
        "re_evaluate": {
            "wall_seconds": result["baseline_wall"],
            "updates_per_second": n_updates / result["baseline_wall"],
        },
        "speedup": speedup,
        "gate": SPEEDUP_GATE,
    })

    # Soundness before speed: every update of every trajectory must be
    # bit-identical to the cold re-evaluation baseline.
    assert stats.failed == 0 and stats.degraded == 0
    mismatches = [
        key for key in result["baseline_ids"]
        if result["manager_ids"][key] != result["baseline_ids"][key]
    ]
    assert not mismatches, (
        f"{len(mismatches)} of {n_updates} updates diverged from "
        f"re-evaluation, first at (step, sub)={mismatches[0]}"
    )
    # The storm must actually exercise the O(1) fast path — a benchmark
    # where every update replans measures nothing.
    assert stats.survived > 0, stats

    assert speedup >= SPEEDUP_GATE, (
        f"safe-region updates only {speedup:.2f}x re-evaluation "
        f"(gate {SPEEDUP_GATE}x)"
    )
