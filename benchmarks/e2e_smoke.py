"""CI smoke over the end-to-end benchmark (``benchmarks/e2e``).

Runs one short traced pass of a workload exactly as ``BENCHMARK.json``
names it and checks the last stdout line: answers verified, nothing
failed, every traced callable still resolves, and the Phase-1 span —
``RStarTree.range_search_rect`` — was actually hit, i.e. it still sits on
the search the pipeline uses.  On ``prq_cascade_2d``, the workload whose
queries weight the rows with an underflowing leading Ruben weight, it also
checks that Ruben still decides those rows (nearly every Phase-3 row) and
that no scalar ``imhof_cdf`` call is made.  On both cascade workloads it
checks that the Ruben kernel costs no more than a few times the filter
stage, and on ``prq_cascade_9d``, where every candidate is decided inside a
traced kernel, that Phase 3 spends little time outside them (within-run
ratios, so the hardware does not matter).  On both cascade workloads, whose engines say ``strategies="auto"``,
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

#: ``kernels.ruben_block_s`` over ``stages.filter_s`` in one traced run:
#: about 1.4 (2-D) and 8.1 (9-D) with Ruben on every Phase-3 row and O(d)
#: running sums per term.  While every term re-ran the O(K²) convolution a
#: Ruben row cost 8.1x (2-D) and 3.2x (9-D) as much, which reads about
#: 11.5 and 26.
RUBEN_FILTER_LIMIT = {"prq_cascade_2d": 4.0, "prq_cascade_9d": 16.0}

#: ``integrate.ruben_share`` on ``prq_cascade_2d``: 1.0 with Ruben first
#: and no underflow exit, 0.995 if the 0.5 % of rows whose leading weight
#: exp(-Σnc/2) underflows went to other tiers again, 0.66 while the χ²
#: sandwich ran first.
RUBEN_SHARE_LIMIT = 0.999

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
        ruben = metric("kernels.ruben_block_s") or 0
        filtering = metric("stages.filter_s") or 0
        limit = RUBEN_FILTER_LIMIT[workload]
        if not 0 < ruben <= limit * filtering:
            found.append(
                f"kernels.ruben_block_s = {ruben!r} is not within {limit} x "
                f"stages.filter_s = {filtering!r}: a Ruben term no longer "
                "costs O(d)"
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
        share = metric("integrate.ruben_share")
        if not (share or 0) >= RUBEN_SHARE_LIMIT:
            found.append(
                f"integrate.ruben_share = {share!r} is below "
                f"{RUBEN_SHARE_LIMIT}: Ruben no longer decides the rows whose "
                "leading weight underflows, or no longer runs first"
            )
        if metric("gaussian.imhof_calls") != 0:
            found.append(
                f"gaussian.imhof_calls = {metric('gaussian.imhof_calls')!r}, "
                "expected 0: Phase 3 is back on the scalar imhof_cdf loop"
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
