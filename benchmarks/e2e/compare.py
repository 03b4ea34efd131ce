"""Compare two result files of ``benchmarks.e2e.run`` under the bounds.

``python -m benchmarks.e2e.compare A.json B.json`` prints one row per
(end-to-end metric, workload): both medians, the ratio B ÷ A (A is the
base), how much worse B is as a share of A, the bound from
``BENCHMARK.json`` and a verdict:

- ``within``     — B's median is no worse than A's by more than the bound;
- ``REGRESSED``  — it is worse by more than the bound;
- ``unresolved`` — the run-to-run spread (inter-quartile distance over
  the median, the wider of the two sides) exceeds the bound, so the pair
  can be called neither unchanged nor regressed — unless every run of B
  reads better than every run of A, which is ``within`` whatever the
  spread.

``failed_share`` has the absolute bound 0.  Exit code 1 when any pair
regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.measure import quartile_spread

__all__ = ["judge", "main"]

ROOT = Path(__file__).resolve().parents[2]


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict for one (metric, workload) pair; ``a`` is the base."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    spread = (
        max(quartile_spread(a), quartile_spread(b))
        if min(len(a), len(b)) >= 2
        else None
    )
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if spread is not None and spread > bound and not b_always_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSED"
    else:
        verdict = "within"
    return {
        "median_a": med_a,
        "median_b": med_b,
        "ratio": med_b / med_a,
        "worse_by": worse_by,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="result file compared against the base")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a = json.loads(Path(args.a).read_text())["workloads"]
    side_b = json.loads(Path(args.b).read_text())["workloads"]
    regressed = unresolved = 0
    print(
        f"{'workload':<16}{'metric':<18}{'A (base)':>12}{'B':>12}"
        f"{'B/A':>8}{'worse by':>10}{'spread':>8}{'bound':>7}  verdict"
    )
    for workload in side_a:
        if workload not in side_b:
            continue
        runs_a, runs_b = side_a[workload]["runs"], side_b[workload]["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = judge(
                [r[name] for r in runs_a],
                [r[name] for r in runs_b],
                metric["better"],
                metric["bound"],
            )
            regressed += row["verdict"] == "REGRESSED"
            unresolved += row["verdict"] == "unresolved"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            print(
                f"{workload:<16}{name:<18}{row['median_a']:>12.5g}"
                f"{row['median_b']:>12.5g}{row['ratio']:>8.3f}"
                f"{row['worse_by']:>+10.3f}{spread:>8}{row['bound']:>7.2f}"
                f"  {row['verdict']}"
            )
        share_b = side_b[workload]["failed_share"]
        verdict = "within" if share_b == 0 else "REGRESSED"
        regressed += share_b != 0
        print(
            f"{workload:<16}{'failed_share':<18}"
            f"{side_a[workload]['failed_share']:>12.5g}{share_b:>12.5g}"
            f"{'':>8}{'':>10}{'':>8}{0:>7.2f}  {verdict}"
        )
    print(f"\n{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
