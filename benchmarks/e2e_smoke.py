"""CI smoke over the end-to-end benchmark (``benchmarks/e2e``).

Runs one short traced pass of a workload exactly as ``BENCHMARK.json``
names it and checks the last stdout line: answers verified, nothing
failed, every traced callable still resolves, and the Phase-1 span —
``RStarTree.range_search_rect`` — was actually hit, i.e. it still sits on
the search the pipeline uses.  On ``prq_cascade_2d``, the one workload
that reaches the cascade's Tier 3, it also checks that the tier is still
exercised and that it runs as the block sweep, not as scalar
``imhof_cdf`` calls.  On both cascade workloads it checks that a Tier-2
row costs no more than a few Tier-1 rows, and on ``prq_cascade_9d``, where
every candidate is decided inside a traced kernel, that Phase 3 spends
little time outside them (within-run ratios, so the hardware does not
matter).  On both cascade workloads, whose engines say ``strategies="auto"``,
it also checks that planning stays off the hot path: ``planner.plan_s`` is at
most 2 % of ``engine.run_batch_s`` in the same traced run (about 30 % while
``auto`` sampled a cost model per query; the rule that runs ALL reads about
0.1 %).  On ``prq_mc_2d`` it checks that the importance sampler still
settles rows by sandwich bounds first and draws well under its budget.
On ``shard_batch_2d``, whose Phase 1 runs inside the shard workers, the
Phase-1 check is replaced by one that the workers received tasks and
spent time on them.

    python benchmarks/e2e_smoke.py [--workload NAME] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).parent / "e2e" / "run.py"

#: ``kernels.ruben_block_ns_per_row`` over
#: ``kernels.chi2_sandwich_block_ns_per_row`` read 11.4 / 6.3 (2-D / 9-D)
#: while every term re-ran the convolution and reads about 1.4 / 2.0 with
#: the running sums.
RUBEN_ROW_COST_LIMIT = 4.0

#: Share of ``integrate.decide_s`` outside the three kernel spans on
#: ``prq_cascade_9d``: 0.40 while ``decide`` built one ``IntegrationResult``
#: per candidate for the stage to walk, about 0.08 with the block hand-over.
DECIDE_OVERHEAD_LIMIT = 0.25
DECIDE_KERNELS = (
    "kernels.chi2_sandwich_block_s",
    "kernels.ruben_block_s",
    "kernels.squared_distance_noncentralities_s",
)

#: ``planner.plan_s`` over ``engine.run_batch_s`` on the two ``auto``
#: workloads: about 0.26-0.34 while every query sampled a cost model over
#: six strategy combos, about 0.001 with the constant-time rule.
PLAN_SHARE_LIMIT = 0.02

#: ``integrate.samples_per_candidate`` on ``prq_mc_2d``: 100 000 while every
#: candidate drew the paper's full budget, about 23 000 with sandwich
#: bounds first and the staged looks.
MC_SAMPLES_LIMIT = 0.5 * 100_000
MC_FULL_BUDGET = "the sampler draws the full budget for every candidate again"


def problems(result: dict, workload: str = "prq_cascade_9d") -> list[str]:
    """What is wrong with ``workload``'s result line of ``benchmarks/e2e/run.py``."""

    def metric(name: str):
        return (result.get("metrics", {}).get(name) or {}).get("value")

    found = []
    if result.get("correct") is not True:
        found.append("answers did not verify")
    if result.get("failed") != 0:
        found.append(f"failed = {result.get('failed')!r}, expected 0")
    if metric("trace.unresolved_targets") != 0:
        found.append(
            f"trace.unresolved_targets = {metric('trace.unresolved_targets')!r}, "
            "expected 0"
        )
    if workload == "shard_batch_2d":
        # Phase 1 runs inside the worker processes, out of the
        # coordinator's traced index span: read the pool's side instead.
        for name in ("shard.tasks_per_query", "shard.worker_busy_s"):
            if not (metric(name) or 0) > 0:
                found.append(
                    f"{name} = {metric(name)!r} is not positive: the "
                    "shard workers no longer execute the queries"
                )
    elif not (metric("index.range_search_calls") or 0) > 0:
        found.append(
            "index.range_search_calls is not positive: the Phase-1 span no "
            "longer sits on the search the pipeline uses"
        )
    if workload in ("prq_cascade_2d", "prq_cascade_9d"):
        plan = metric("planner.plan_s") or 0
        batch = metric("engine.run_batch_s") or 0
        if plan > PLAN_SHARE_LIMIT * batch:
            found.append(
                f"planner.plan_s = {plan!r} is not within {PLAN_SHARE_LIMIT} x "
                f"engine.run_batch_s = {batch!r}: planning is back on the "
                "hot path"
            )
        ruben = metric("kernels.ruben_block_ns_per_row") or 0
        sandwich = metric("kernels.chi2_sandwich_block_ns_per_row") or 0
        if not 0 < ruben <= RUBEN_ROW_COST_LIMIT * sandwich:
            found.append(
                f"kernels.ruben_block_ns_per_row = {ruben!r} is not within "
                f"{RUBEN_ROW_COST_LIMIT} x kernels.chi2_sandwich_block_ns_per_row "
                f"= {sandwich!r}: a Tier-2 term no longer costs O(d)"
            )
    if workload == "prq_cascade_9d":
        decide = metric("integrate.decide_s") or 0
        outside = decide - sum(metric(name) or 0 for name in DECIDE_KERNELS)
        if not 0 < decide or outside > DECIDE_OVERHEAD_LIMIT * decide:
            found.append(
                f"{outside!r} s of integrate.decide_s = {decide!r} lie outside "
                f"the kernel spans, more than {DECIDE_OVERHEAD_LIMIT} of it: "
                "Phase 3 builds per-candidate objects again"
            )
    if workload == "prq_cascade_2d":
        if not (metric("integrate.imhof_share") or 0) > 0:
            found.append(
                "integrate.imhof_share is not positive: no candidate reached "
                "the cascade's Tier 3, so the smoke no longer exercises it"
            )
        if metric("gaussian.imhof_calls") != 0:
            found.append(
                f"gaussian.imhof_calls = {metric('gaussian.imhof_calls')!r}, "
                "expected 0: Tier 3 is back on the scalar imhof_cdf loop"
            )
    if workload == "prq_mc_2d":
        samples = metric("integrate.samples_per_candidate")
        if samples is None or samples > MC_SAMPLES_LIMIT:
            found.append(
                f"integrate.samples_per_candidate = {samples!r} is not within "
                f"{MC_SAMPLES_LIMIT:.0f}: {MC_FULL_BUDGET}"
            )
        calls = metric("kernels.chi2_sandwich_block_calls")
        if not (calls or 0) > 0:
            found.append(
                f"kernels.chi2_sandwich_block_calls = {calls!r}, expected "
                f"> 0: {MC_FULL_BUDGET}"
            )
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="prq_cascade_9d")
    parser.add_argument("--seconds", default="3")
    args = parser.parse_args(argv)
    command = [
        sys.executable, str(RUN), "--workload", args.workload,
        "--seed", "0", "--seconds", args.seconds, "--trace", "1",
    ]  # fmt: skip
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"e2e smoke: {' '.join(command)} exited {run.returncode}")
        return 1
    found = problems(json.loads(lines[-1]), args.workload)
    for problem in found:
        print(f"e2e smoke: {problem}")
    if not found:
        print(f"e2e smoke OK: {args.workload}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
