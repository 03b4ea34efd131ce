"""The CI ``e2e-smoke`` check (``benchmarks/e2e_smoke.py``) on canned lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "e2e_smoke", Path(__file__).parent.parent / "benchmarks" / "e2e_smoke.py"
)
e2e_smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_smoke)


#: Traced readings of the cascade spans (prq_cascade_9d, seed 0, 10 s).
CASCADE = {
    "integrate.decide_s": 3.50,
    "kernels.chi2_sandwich_block_s": 1.34,
    "kernels.ruben_block_s": 1.76,
    "kernels.squared_distance_noncentralities_s": 0.13,
    "kernels.chi2_sandwich_block_ns_per_row": 1394.0,
    "kernels.ruben_block_ns_per_row": 2755.0,
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
    # lies outside the 3.23 s of kernels (as before the block hand-over),
    # or the span is gone and the share has no base.
    for decide in (5.40, None):
        (problem,) = e2e_smoke.problems(
            result_line(**{"integrate.decide_s": decide})
        )
        assert "per-candidate objects" in problem
    assert len(e2e_smoke.problems({})) == 6


def test_tier3_guards_apply_to_prq_cascade_2d_only():
    def found(**metrics):
        return e2e_smoke.problems(result_line(**metrics), "prq_cascade_2d")

    healthy = {"integrate.imhof_share": 0.0049, "gaussian.imhof_calls": 0}
    assert found(**healthy) == []
    # The contract line prints 0 for a metric that resolved to nothing.
    for share in (0, 0.0, None):
        (problem,) = found(**{**healthy, "integrate.imhof_share": share})
        assert "imhof_share" in problem
    (problem,) = found(**{**healthy, "gaussian.imhof_calls": 893})
    assert "scalar imhof_cdf loop" in problem
    assert len(e2e_smoke.problems({}, "prq_cascade_2d")) == 7
    # prq_cascade_9d never reaches Tier 3: the guards stay off.
    assert e2e_smoke.problems(result_line(**{"gaussian.imhof_calls": 7})) == []


def test_tier2_share_guard_applies_to_both_cascade_workloads():
    ruben, sandwich = (
        "kernels.ruben_block_ns_per_row",
        "kernels.chi2_sandwich_block_ns_per_row",
    )
    # Per row, with and without the O(K^2) convolution (9-D, then 2-D).
    slow = {ruben: 9000.0, sandwich: 1440.0}
    fast = {ruben: 966.0, sandwich: 700.0}
    tier3 = {"integrate.imhof_share": 0.0049, "gaussian.imhof_calls": 0}
    for workload, extra in (("prq_cascade_9d", {}), ("prq_cascade_2d", tier3)):
        assert e2e_smoke.problems(result_line(**fast, **extra), workload) == []
        (problem,) = e2e_smoke.problems(result_line(**slow, **extra), workload)
        assert "ruben_block_ns_per_row" in problem and "O(d)" in problem
        # Either kernel span gone: the ratio has no base.
        for missing in (ruben, sandwich):
            (problem,) = e2e_smoke.problems(
                result_line(**{missing: None}, **extra), workload
            )
            assert "ruben_block_ns_per_row" in problem and "O(d)" in problem
    # serve_uniform also runs Tier 2, but carries no guard.
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
    tier3 = {"integrate.imhof_share": 0.0049, "gaussian.imhof_calls": 0}
    full = {"integrate.samples_per_candidate": 100_000.0}
    assert e2e_smoke.problems(result_line(**full), "prq_cascade_9d") == []
    assert e2e_smoke.problems(result_line(**full, **tier3), "prq_cascade_2d") == []


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
    for workload in ("prq_cascade_2d", "prq_cascade_9d"):
        extra = {"integrate.imhof_share": 0.0049, "gaussian.imhof_calls": 0}
        (problem,) = e2e_smoke.problems(result_line(**sampled, **extra), workload)
        assert "planning is back on the hot path" in problem
        assert e2e_smoke.problems(result_line(**rule, **extra), workload) == []
    # The fixed-plan workloads never plan: the guard stays off.
    line = result_line(
        **sampled,
        **{
            "integrate.samples_per_candidate": 23_000,
            "kernels.chi2_sandwich_block_calls": 9,
        },
    )
    assert e2e_smoke.problems(line, "prq_mc_2d") == []
