"""The CI ``e2e-smoke`` check (``benchmarks/e2e_smoke.py``) on canned lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "e2e_smoke", Path(__file__).parent.parent / "benchmarks" / "e2e_smoke.py"
)
e2e_smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_smoke)


#: Traced readings of the cascade spans (prq_cascade_9d, seed 0, 10 s):
#: Ruben decides every Phase-3 row, the sandwich kernel is never called.
CASCADE = {
    "integrate.decide_s": 6.45,
    "kernels.chi2_sandwich_block_s": 0.0,
    "kernels.ruben_block_s": 6.17,
    "kernels.squared_distance_noncentralities_s": 0.14,
    "stages.filter_s": 0.76,
}

#: The same workload's prq_cascade_2d readings of the Phase-3 guards.
CASCADE_2D = {
    "integrate.ruben_share": 1.0,
    "gaussian.imhof_calls": 0,
    "kernels.ruben_block_s": 2.14,
    "stages.filter_s": 1.51,
}


def result_line(**metrics) -> dict:
    values = {
        "trace.unresolved_targets": 0,
        "index.range_search_calls": 212,
        **CASCADE,
    }
    values.update(metrics)
    return {
        "correct": True,
        "attempted": 212,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "count"} for k, v in values.items()},
    }


def test_healthy_line_has_no_problems():
    assert e2e_smoke.problems(result_line()) == []


def test_each_guard_fires():
    assert e2e_smoke.problems({**result_line(), "correct": False})
    assert e2e_smoke.problems({**result_line(), "failed": 2})
    assert e2e_smoke.problems(result_line(**{"trace.unresolved_targets": 1}))
    # Phase 1 moved off RStarTree.range_search_rect: the span reads no
    # calls (0) or does not resolve at all (None).
    for calls in (0, None):
        found = e2e_smoke.problems(result_line(**{"index.range_search_calls": calls}))
        assert len(found) == 1 and "Phase-1 span" in found[0]
    # The stage walks one object per candidate again: 0.40 of decide_s
    # lies outside the 6.31 s of kernels (as before the block hand-over),
    # or the span is gone and the share has no base.
    for decide in (10.5, None):
        (problem,) = e2e_smoke.problems(
            result_line(**{"integrate.decide_s": decide})
        )
        assert "per-candidate objects" in problem
    assert len(e2e_smoke.problems({})) == 6


def test_tier3_guards_apply_to_prq_cascade_2d_only():
    """Ruben decides the rows whose leading weight used to underflow (the
    old Tier 3), and no scalar Imhof call is made."""

    def found(**metrics):
        return e2e_smoke.problems(result_line(**metrics), "prq_cascade_2d")

    assert found(**CASCADE_2D) == []
    # The sandwich runs first again (a sandwich-first cascade read 0.66), the
    # underflow rows leave Ruben again (0.995), or the metric is gone;
    # the contract line prints 0 for a metric that resolved to nothing.
    for share in (0.6645, 0.995, 0, None):
        (problem,) = found(**{**CASCADE_2D, "integrate.ruben_share": share})
        assert "ruben_share" in problem
    (problem,) = found(**{**CASCADE_2D, "gaussian.imhof_calls": 893})
    assert "scalar imhof_cdf loop" in problem
    assert len(e2e_smoke.problems({}, "prq_cascade_2d")) == 7
    # prq_cascade_9d has no underflow rows: the guards stay off.
    assert e2e_smoke.problems(
        result_line(**{"gaussian.imhof_calls": 7, "integrate.ruben_share": 0.70})
    ) == []


def test_tier2_share_guard_applies_to_both_cascade_workloads():
    """Ruben's kernel time within a few times the filter stage's; with
    every term re-running the O(K²) convolution a Ruben row cost 3.2x
    (9-D) and 8.1x (2-D) as much."""
    ruben, filtering = "kernels.ruben_block_s", "stages.filter_s"
    for workload, healthy, slowdown in (
        ("prq_cascade_9d", CASCADE, 3.2),
        ("prq_cascade_2d", CASCADE_2D, 8.1),
    ):
        slow = {**healthy, ruben: slowdown * healthy[ruben]}
        assert e2e_smoke.problems(result_line(**healthy), workload) == []
        (problem,) = e2e_smoke.problems(result_line(**slow), workload)
        assert ruben in problem and "O(d)" in problem
        # Either span gone: the ratio has no base (on 9-D a missing Ruben
        # span also empties the decide-overhead guard's kernel sum).
        for missing in (ruben, filtering):
            found = e2e_smoke.problems(
                result_line(**{**healthy, missing: None}), workload
            )
            assert any(ruben in problem and "O(d)" in problem for problem in found)
    # serve_uniform also runs Ruben, but carries no guard.
    slow = {ruben: 3.2 * CASCADE[ruben]}
    assert e2e_smoke.problems(result_line(**slow), "serve_uniform") == []


def test_sampler_budget_guard_applies_to_prq_mc_2d_only():
    def found(**metrics):
        return e2e_smoke.problems(result_line(**metrics), "prq_mc_2d")

    # Traced prq_mc_2d: about 23 000 draws a candidate, one sandwich call
    # an op.
    healthy = {
        "integrate.samples_per_candidate": 22_784.0,
        "kernels.chi2_sandwich_block_calls": 31,
    }
    assert found(**healthy) == []
    # Every candidate draws the full budget again, or the metric is gone.
    for samples in (100_000.0, 50_001.0, None):
        (problem,) = found(
            **{**healthy, "integrate.samples_per_candidate": samples}
        )
        assert "samples_per_candidate" in problem
        assert problem.endswith(e2e_smoke.MC_FULL_BUDGET)
    # No sandwich call: bounds no longer come first.
    for calls in (0, None):
        (problem,) = found(
            **{**healthy, "kernels.chi2_sandwich_block_calls": calls}
        )
        assert "chi2_sandwich_block_calls" in problem
        assert problem.endswith(e2e_smoke.MC_FULL_BUDGET)
    assert len(e2e_smoke.problems({}, "prq_mc_2d")) == 6
    # The cascade workloads draw nothing and carry no such guard.
    full = {"integrate.samples_per_candidate": 100_000.0}
    assert e2e_smoke.problems(result_line(**full), "prq_cascade_9d") == []
    assert e2e_smoke.problems(result_line(**full, **CASCADE_2D), "prq_cascade_2d") == []


def test_shard_guard_reads_the_workers_not_the_coordinator_index():
    def found(**metrics):
        return e2e_smoke.problems(result_line(**metrics), "shard_batch_2d")

    # Traced shard_batch_2d: Phase 1 runs in the workers, so the
    # coordinator's index span reads 0 calls on a healthy run.
    healthy = {
        "index.range_search_calls": 0,
        "shard.tasks_per_query": 1.9,
        "shard.worker_busy_s": 4.2,
    }
    assert found(**healthy) == []
    for name in ("shard.tasks_per_query", "shard.worker_busy_s"):
        for value in (0, None):
            (problem,) = found(**{**healthy, name: value})
            assert name in problem and "shard workers" in problem
    assert len(e2e_smoke.problems({}, "shard_batch_2d")) == 5
    # Every other workload keeps the Phase-1 guard.
    assert e2e_smoke.problems(result_line(**healthy))


def test_planning_share_guard_applies_to_the_auto_workloads():
    """``planner.plan_s`` within 2 % of ``engine.run_batch_s``: a sampled
    per-query cost model read about 30 %, the rule about 0.1 %."""
    sampled = {"planner.plan_s": 3.0, "engine.run_batch_s": 10.0}
    rule = {"planner.plan_s": 0.01, "engine.run_batch_s": 10.0}
    for workload, extra in (("prq_cascade_2d", CASCADE_2D), ("prq_cascade_9d", {})):
        (problem,) = e2e_smoke.problems(result_line(**extra, **sampled), workload)
        assert "planning is back on the hot path" in problem
        assert e2e_smoke.problems(result_line(**extra, **rule), workload) == []
    # The fixed-plan workloads never plan: the guard stays off.
    line = result_line(
        **sampled,
        **{
            "integrate.samples_per_candidate": 23_000,
            "kernels.chi2_sandwich_block_calls": 9,
        },
    )
    assert e2e_smoke.problems(line, "prq_mc_2d") == []
