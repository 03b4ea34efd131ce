"""Ablation — adaptive sequential Phase 3 vs the paper's fixed budget.

The paper spends 100k samples on every candidate; the decision-aware
``ImportanceSamplingIntegrator.decide`` settles candidates by sandwich
bounds first and curtails each sampled candidate once the θ-decision is
statistically settled, reserving the full budget for boundary cases.
Same answers, a fraction of the samples.
"""

from __future__ import annotations

from conftest import bench_trials, report

from repro.bench.experiments import run_ablation_sequential


def test_ablation_sequential(benchmark):
    table = benchmark.pedantic(
        run_ablation_sequential,
        kwargs={"n_trials": bench_trials(), "max_samples": 100_000},
        rounds=1,
        iterations=1,
    )
    report("ablation_sequential", table.render())

    rows = {row[0]: row for row in table.rows}
    fixed, sequential = rows["fixed"], rows["sequential"]
    # Same candidates, nearly the same answers, far fewer samples.
    assert sequential[1] == fixed[1]
    assert abs(sequential[3] - fixed[3]) <= max(2.0, 0.05 * fixed[3])
    assert sequential[2] < 0.4 * fixed[2]
    assert sequential[4] < fixed[4]
