"""CI smokes over the ``repro`` CLI: input generators and output checkers.

The ``serve-smoke``, ``monitor-smoke`` and ``query-kinds-smoke`` jobs write
a request file, pipe it through ``python -m repro serve`` and check what
came back; the shard and load jobs borrow a generator and a checker:

    python benchmarks/serve_smoke.py generate serve|monitor REQUESTS
    python benchmarks/serve_smoke.py generate kinds BATCH REQUESTS
    python benchmarks/serve_smoke.py generate shard-batch BATCH
    python benchmarks/serve_smoke.py check serve|monitor --requests R \
        --responses OUT --summary ERR --metrics M [--database DB]
    python benchmarks/serve_smoke.py check kinds --responses OUT
    python benchmarks/serve_smoke.py check load --report CAPACITY.json

``serve`` is 50 mixed-deadline PRQs: every request answered with one of
the five typed statuses, none failed, at least one micro-batch coalesced.
``monitor`` is a subscription storm — subscribe, random-walk ticks, one
deadline-squeezed jump tick (far enough that border objects need
re-integration, with zero budget to do it), notify, unsubscribe: every
line answered in order, outcome counters adding up, every degraded
update's certain ids and (lo, hi) intervals sound against the exact
integrator, and staleness flagged on notify.  ``kinds`` is one workload
cycling through the four query kinds, written twice: as a ``repro query
--batch`` file and as the same specs in serve request lines; every line
comes back ``ok`` and every kind qualifies at least one object.
``shard-batch`` is the 12-query ``repro query --batch`` file the shard job
runs at one and at four shards; ``load`` reads a ``repro load --sweep``
capacity report: five statuses per step summing to the injected count,
none failed, a saturated knee, shedding somewhere on the ladder.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

STATUSES = {"ok", "degraded", "overloaded", "deadline_exceeded", "failed"}
KINDS = ("prq", "uncertain", "mixture", "knn")
N_KINDS_SPECS = 12


def serve_requests(n: int = 50) -> list[dict]:
    """``n`` PRQ lines; every third has a deadline, every seventh priority."""
    rng = random.Random(7)
    rows = []
    for i in range(n):
        row = {
            "center": [rng.uniform(100, 900), rng.uniform(100, 900)],
            "sigma_scale": rng.choice([2.0, 5.0, 20.0]),
            "delta": rng.choice([5.0, 10.0]),
            "theta": rng.choice([0.1, 0.3]),
            "id": i,
        }
        if i % 3 == 0:
            row["deadline_ms"] = rng.choice([20.0, 200.0])
        if i % 7 == 0:
            row["priority"] = 1
        rows.append(row)
    return rows


def monitor_storm(n_subs: int = 30, n_ticks: int = 4) -> list[dict]:
    """Subscribe, ``n_ticks`` walk ticks, a zero-deadline jump, notify, bye."""
    rng = random.Random(13)
    centers = {
        s: [rng.uniform(100, 900), rng.uniform(100, 900)] for s in range(n_subs)
    }
    lines: list[dict] = [
        {"type": "subscribe", "sub": s, "center": centers[s], "sigma_scale": 0.5,
         "delta": 15.0, "theta": 0.4, "id": f"sub-{s}"}
        for s in range(n_subs)
    ]  # fmt: skip
    for tick in range(n_ticks):
        for s in range(n_subs):
            centers[s] = [c + rng.gauss(0.0, 0.1) for c in centers[s]]
            lines.append({"type": "update", "sub": s, "center": centers[s],
                          "id": f"upd-{tick}-{s}"})  # fmt: skip
    for s in range(n_subs):
        centers[s] = [centers[s][0] + 1.5, centers[s][1]]
        lines.append({"type": "update", "sub": s, "center": centers[s],
                      "deadline_ms": 0.0, "id": f"deg-{s}"})  # fmt: skip
    for kind, tag in (("notify", "note"), ("unsubscribe", "bye")):
        lines.extend(
            {"type": kind, "sub": s, "id": f"{tag}-{s}"} for s in range(n_subs)
        )
    return lines


def kinds_specs() -> list[dict]:
    """Query specs cycling through :data:`KINDS`, at the paper's data scale."""
    rng = random.Random(23)
    specs = []
    for i in range(N_KINDS_SPECS):
        kind = KINDS[i % 4]
        spec = {"kind": kind, "sigma_scale": 900.0, "theta": 0.05}
        if kind == "mixture":
            spec["components"] = [
                [rng.uniform(300, 700), rng.uniform(300, 700)] for _ in range(2)
            ]
            spec["weights"] = [0.6, 0.4]
        else:
            spec["center"] = [rng.uniform(300, 700), rng.uniform(300, 700)]
        if kind == "knn":
            # Tight query spread: with 20k dense points a sigma of 900
            # smears the NN probability below any theta.
            spec.update(k=2, n_samples=400, theta=0.05, seed=i, sigma_scale=25.0)
        else:
            spec["delta"] = 60.0
        specs.append(spec)
    return specs


def shard_batch_specs(n: int = 12) -> list[dict]:
    """``n`` PRQ specs for the one-shard vs four-shard CLI parity run."""
    rng = random.Random(17)
    return [
        {
            "center": [rng.uniform(100, 900), rng.uniform(100, 900)],
            "sigma_scale": rng.choice([5.0, 20.0]),
            "delta": rng.choice([10.0, 25.0]),
            "theta": rng.choice([0.05, 0.2]),
        }
        for _ in range(n)
    ]


def _stderr_json(stderr: str, prefix: str) -> dict:
    for line in stderr.splitlines():
        if line.startswith(prefix):
            return json.loads(line.split(prefix, 1)[1])
    return {}


def check_serve(
    requests: list[dict], rows: list[dict], stderr: str, metrics: str
) -> list[str]:
    """What is wrong with one ``repro serve`` run over ``serve_requests``."""
    found = []
    if len(rows) != len(requests):
        found.append(f"expected {len(requests)} responses, got {len(rows)}")
    statuses = {r.get("status") for r in rows}
    if not statuses <= STATUSES:
        found.append(f"untyped status among {sorted(map(str, statuses))}")
    if "failed" in statuses:
        found.append("unhandled failure")
    summary = _stderr_json(stderr, "summary:")
    if not summary.get("coalesced_batches", 0) >= 1:
        found.append("no micro-batch coalesced")
    if summary.get("submitted") != len(requests):
        found.append(f"submitted = {summary.get('submitted')!r}")
    for family in ("repro_serve_batch_size", "repro_serve_requests_total"):
        if family not in metrics:
            found.append(f"{family} missing from the metrics export")
    return found


def check_monitor(
    requests: list[dict], rows: list[dict], stderr: str, metrics: str, database
) -> list[str]:
    """What is wrong with one ``repro serve`` run over ``monitor_storm``.

    ``database`` is the loaded :class:`repro.SpatialDatabase` the storm
    ran against; degraded answers are re-verified on it.
    """
    import numpy as np

    from repro import ExactIntegrator, Gaussian

    found = []
    if len(rows) != len(requests):
        return [f"expected {len(requests)} responses, got {len(rows)}"]
    if any(r.get("status") == "failed" for r in rows):
        found.append("a monitor line failed")
    subscribes = {r["sub"]: r for r in requests if r["type"] == "subscribe"}
    n_updates = sum(r["type"] == "update" for r in requests)
    stats = _stderr_json(stderr, "monitor:")
    expected = {
        "subscribed": len(subscribes),
        "unsubscribed": len(subscribes),
        "updates": n_updates,
        "failed": 0,
        "active_subscriptions": 0,
    }
    for key, value in expected.items():
        if stats.get(key) != value:
            found.append(f"monitor {key} = {stats.get(key)!r}, expected {value}")
    if not stats.get("survived", 0) > 0:
        found.append("no update survived")
    outcomes = sum(
        stats.get(k, 0) for k in ("survived", "reintegrated", "replanned", "degraded")
    )
    if outcomes != n_updates:
        found.append(f"outcomes sum to {outcomes}, not {n_updates} updates")
    degraded = [r for r in rows if r.get("outcome") == "degraded"]
    if not degraded:
        found.append("deadline-squeezed tick produced no degraded update")
    if stats.get("degraded") != len(degraded):
        found.append(f"{len(degraded)} degraded rows vs counter {stats.get('degraded')!r}")

    # Degraded answers are sound partial information: every certain id
    # truly qualifies, every undecided interval encloses the exact
    # qualification probability.
    exact = ExactIntegrator()
    request_by_id = {r["id"]: r for r in requests}
    row_by_id = {r["id"]: r for r in rows}
    for row in degraded:
        sub = subscribes[row["subscription_id"]]
        delta, theta = sub["delta"], sub["theta"]
        center = request_by_id[row["id"]]["center"]
        gaussian = Gaussian(center, sub["sigma_scale"] * np.eye(len(center)))

        def prob(obj):
            return exact.qualification_probabilities(
                gaussian, database.point(obj).reshape(1, -1), delta
            )[0].estimate

        for obj in row["ids"]:
            if not prob(obj) >= theta - 1e-9:
                found.append(f"{row['id']}: certain id {obj} does not qualify")
        for obj, lo, hi in row.get("bounds", []):
            if not (lo < theta <= hi and lo - 1e-9 <= prob(obj) <= hi + 1e-9):
                found.append(f"{row['id']}: unsound interval {(obj, lo, hi)}")
        # A degraded update commits nothing; notify must flag the
        # committed answer stale until an unconstrained retry.
        if row_by_id[f"note-{row['subscription_id']}"].get("stale") is not True:
            found.append(f"{row['id']}: notify did not flag the answer stale")
    for family in ("repro_monitor_updates_total", "repro_monitor_subscriptions"):
        if family not in metrics:
            found.append(f"{family} missing from the metrics export")
    return found


def check_kinds(rows: list[dict]) -> list[str]:
    """What is wrong with one ``repro serve`` run over ``kinds_specs``."""
    found = []
    if len(rows) != N_KINDS_SPECS:
        found.append(f"expected {N_KINDS_SPECS} responses, got {len(rows)}")
    statuses = [r.get("status") for r in rows]
    if "failed" in statuses:
        found.append("unhandled failure")
    if statuses.count("ok") != N_KINDS_SPECS:
        found.append(f"not every request answered ok: {statuses}")
    for offset, kind in enumerate(KINDS):
        if not any(r.get("ids") for r in rows[offset::4]):
            found.append(f"every {kind} response empty")
    return found


def check_load(report: dict) -> list[str]:
    """What is wrong with one ``repro load --sweep`` capacity report."""
    found = []
    for i, step in enumerate(report["steps"]):
        statuses = step["statuses"]
        if set(statuses) != STATUSES:
            found.append(f"step {i}: statuses are {sorted(statuses)}")
        elif sum(statuses.values()) != step["injected"]:
            found.append(f"step {i}: statuses do not sum to {step['injected']}")
        elif statuses["failed"] != 0:
            found.append(f"step {i}: {statuses['failed']} failed")
    knee = report["knee"]
    if not knee["saturated"]:
        found.append(f"knee not saturated: {knee}")
    if knee["knee_qps"] is None:
        found.append("no knee_qps")
    if not any(s["statuses"].get("overloaded", 0) > 0 for s in report["steps"]):
        found.append("sweep never shed")
    return found


def _read_jsonl(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def _check_responses(parser, args, responses: list[dict]) -> list[str]:
    """Run the serve / monitor / kinds checker over one response file."""
    if args.smoke == "kinds":
        return check_kinds(responses)
    if not (args.requests and args.summary and args.metrics):
        parser.error("check needs --requests, --summary and --metrics")
    if args.smoke == "monitor" and not args.database:
        parser.error("check monitor needs --database")
    observed = (
        _read_jsonl(args.requests),
        responses,
        Path(args.summary).read_text(),
        Path(args.metrics).read_text(),
    )
    if args.smoke == "serve":
        return check_serve(*observed)
    from repro import SpatialDatabase

    return check_monitor(*observed, SpatialDatabase.load(args.database))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    generate = commands.add_parser("generate")
    generate.add_argument(
        "smoke", choices=("serve", "monitor", "kinds", "shard-batch")
    )
    generate.add_argument(
        "paths", nargs="+", metavar="FILE", help="REQUESTS (kinds: BATCH REQUESTS)"
    )
    check = commands.add_parser("check")
    check.add_argument("smoke", choices=("serve", "monitor", "kinds", "load"))
    check.add_argument("--responses", help="all but load")
    check.add_argument("--report", help="the capacity report (load only)")
    for flag in ("--requests", "--summary", "--metrics"):
        check.add_argument(flag, help="serve and monitor only")
    check.add_argument("--database", help="the store served (monitor only)")
    args = parser.parse_args(argv)
    if args.command == "generate":
        if len(args.paths) != (2 if args.smoke == "kinds" else 1):
            parser.error(f"generate {args.smoke}: wrong number of files")
        if args.smoke == "shard-batch":
            Path(args.paths[0]).write_text(json.dumps(shard_batch_specs()))
            return 0
        if args.smoke == "kinds":
            specs = kinds_specs()
            Path(args.paths[0]).write_text(json.dumps(specs))
            rows = [dict(spec, id=i) for i, spec in enumerate(specs)]
        else:
            rows = serve_requests() if args.smoke == "serve" else monitor_storm()
        Path(args.paths[-1]).write_text("".join(json.dumps(r) + "\n" for r in rows))
        return 0
    if args.smoke == "load":
        if not args.report:
            parser.error("check load needs --report")
        report = json.loads(Path(args.report).read_text())
        found, passed = check_load(report), f"OK: {report['knee']}"
    else:
        if not args.responses:
            parser.error(f"check {args.smoke} needs --responses")
        responses = _read_jsonl(args.responses)
        found = _check_responses(parser, args, responses)
        passed = f"OK: {len(responses)} responses checked"
    for problem in found:
        print(f"{args.smoke} smoke: {problem}")
    if not found:
        print(f"{args.smoke} smoke {passed}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
