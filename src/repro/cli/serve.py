"""``serve``, ``monitor`` and ``load``: the embedded service, the
safe-region monitor and the open-loop load harness."""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.cli.common import (
    DATABASE,
    INTEGRATORS,
    OBS,
    SERVICE,
    UsageError,
    arg,
    export_obs,
    make_integrator,
    make_obs,
    positive_int,
    service_knobs,
    verb,
)
from repro.cli.query import gaussian_from_spec, query_from_spec, with_targets


def _deadline(spec: dict) -> float | None:
    """A request line's ``deadline_ms`` in seconds (None: no deadline)."""
    deadline = spec.get("deadline_ms")
    return None if deadline is None else float(deadline) / 1e3


def _monitor_row(monitor, spec: dict, dim: int, line_no: int) -> dict:
    """Run one monitor line's verb and return its response row.

    Monitor lines carry ``"type"`` (subscribe/update/unsubscribe/notify)
    and address their subscription through ``"sub"``; subscribe lines
    additionally take the usual query fields (center/sigma/sigma_scale/
    delta/theta).  A malformed line raises before any verb runs; a
    ``ReproError`` raised by the verb itself (a duplicate ``sub``, a
    wrong dimension) becomes a ``failed`` row addressed like the line.
    """
    from functools import partial

    from repro.core.query import ProbabilisticRangeQuery
    from repro.errors import ReproError
    from repro.serve import (
        REQUEST_SUBSCRIBE,
        REQUEST_TYPES,
        REQUEST_UNSUBSCRIBE,
        REQUEST_UPDATE,
        STATUS_FAILED,
        MonitorResponse,
    )
    from repro.serve.request import check_deadline

    request_type = spec["type"]
    if request_type not in REQUEST_TYPES:
        raise ValueError(
            f"unknown request type {request_type!r}; "
            f"expected one of {REQUEST_TYPES}"
        )
    request_id = spec.get("id", line_no)
    sub = spec.get("sub")
    deadline = _deadline(spec)
    if request_type == REQUEST_SUBSCRIBE:
        query = ProbabilisticRangeQuery(
            gaussian_from_spec(spec, dim),
            float(spec["delta"]),
            float(spec["theta"]),
        )
        verb = partial(
            monitor.subscribe, query.gaussian, query.delta, query.theta,
            subscription_id=sub,
        )
    elif sub is None:
        raise ValueError(f'"{request_type}" line needs "sub"')
    elif request_type == REQUEST_UPDATE:
        mean = np.asarray(spec["center"], dtype=float)
        sigma = spec.get("sigma")
        sigma = None if sigma is None else np.asarray(sigma, dtype=float)
        check_deadline(deadline)
        verb = partial(monitor.update, sub, mean, sigma, deadline=deadline)
    elif request_type == REQUEST_UNSUBSCRIBE:
        verb = partial(monitor.unsubscribe, sub)
    else:
        verb = partial(monitor.notify, sub)
    try:
        return verb(request_id=request_id).to_dict()
    except ReproError as exc:
        return MonitorResponse(
            request_id=request_id,
            type=request_type,
            status=STATUS_FAILED,
            subscription_id=sub,
            error=exc,
        ).to_dict()


@verb(
    "serve", "run the embedded query service over JSON-lines requests",
    arg("--requests", default="-", metavar="FILE",
        help="JSON-lines request file ('-' = stdin, default); query lines "
        'are described in docs/serving.md, lines with a "type" key in '
        "docs/monitoring.md"),
    arg("--strategies", default="all",
        help="strategy spec or 'auto': the paper's ALL for range-shaped "
        "legs, the kind plan for k-NN"),
    arg("--target-sigma-scale", type=float, default=None, metavar="SCALE",
        help="give every database object a Gaussian location N(point, "
        'SCALE*I) so requests with "kind": "uncertain" can be served'),
    arg("--integrator", default="cascade", choices=INTEGRATORS,
        help="Phase-3 evaluator (default: the deterministic cascade — "
        "responses are then bit-identical to direct run_batch execution)"),
    arg("--no-degrade", action="store_true",
        help="never degrade deadline-pressed requests; they run fully and "
        "may miss their deadlines"),
    arg("--seed", type=int, default=0,
        help="seed for sampling integrators (per-request streams are still "
        "fingerprint-derived)"),
    parents=(DATABASE, SERVICE, OBS),
)
def serve(args) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.serve import STATUS_FAILED, PRQRequest

    db = with_targets(args.db, args.target_sigma_scale)
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            lines = Path(args.requests).read_text().splitlines()
        except OSError as exc:
            raise UsageError(
                f"cannot read requests from {args.requests}: {exc}"
            ) from exc
    obs = make_obs(args)
    service = db.serve(
        **service_knobs(args),
        strategies=args.strategies,
        integrator=make_integrator(args.integrator, args.seed),
        degrade=not args.no_degrade,
        obs=obs,
    )
    # Each handle is either a response future or, for a malformed line,
    # the ready-made failure row — output stays one line per request, in
    # submission order, and a bad line never kills the service.  Monitor
    # lines (a "type" of subscribe/update/unsubscribe/notify) execute
    # synchronously at submission, so a later update always sees the
    # effect of every earlier line on its subscription.
    handles = []
    with service:
        for line_no, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
                if "type" in spec:
                    handles.append(
                        _monitor_row(service.monitor, spec, db.dim, line_no)
                    )
                    continue
                request = PRQRequest.from_query(
                    query_from_spec(spec, db.dim, seed=args.seed),
                    deadline=_deadline(spec),
                    priority=int(spec.get("priority", 0)),
                    request_id=spec.get("id", line_no),
                )
            except (KeyError, TypeError, ValueError, ReproError) as exc:
                handles.append({"id": line_no, "status": STATUS_FAILED,
                                "error": f"bad request: {exc}"})
                continue
            handles.append(service.submit(request))
        for handle in handles:
            row = handle if isinstance(handle, dict) else (
                handle.result().to_dict()
            )
            print(json.dumps(row), flush=True)
    print("summary:", json.dumps(service.snapshot().to_dict()), file=sys.stderr)
    monitor_stats = service.monitor.snapshot()
    if monitor_stats.subscribed or monitor_stats.updates:
        print("monitor:", json.dumps(monitor_stats.to_dict()), file=sys.stderr)
    export_obs(obs, args, sys.stderr)
    return 0


@verb(
    "monitor",
    "demo safe-region monitoring: a moving fleet of standing queries "
    "(docs/monitoring.md)",
    arg("--subscriptions", type=positive_int, default=200,
        help="standing queries to register"),
    arg("--steps", type=positive_int, default=20,
        help="location-update rounds over the whole fleet"),
    arg("--step-sd", type=float, default=None, metavar="SD",
        help="per-step movement std-dev per axis (default: 0.1%% of the "
        "data extent)"),
    arg("--delta", type=float, default=None,
        help="range threshold (default: 2%% of the extent)"),
    arg("--theta", type=float, default=0.5, help="probability threshold"),
    arg("--sigma-scale", type=float, default=None, metavar="SCALE",
        help="isotropic query covariance SCALE*I (default: (delta/8)^2)"),
    arg("--deadline-ms", type=float, default=None,
        help="per-update deadline; pressed updates degrade to sound "
        "probability intervals"),
    arg("--seed", type=int, default=0, help="fleet placement/trajectory seed"),
    parents=(DATABASE, OBS),
)
def monitor(args) -> int:
    """A self-contained fleet-monitoring demonstration.

    Registers a fleet of standing subscriptions, drives them along
    random-walk trajectories, and reports the survive/re-integrate/
    re-plan outcome mix plus update throughput — the working model for
    the safe-region machinery behind ``docs/monitoring.md``.
    """
    import time

    from repro import Gaussian
    from repro.integrate import CascadeIntegrator
    from repro.serve import SubscriptionManager

    db = args.db
    points = np.asarray(db.points)
    lows, highs = points.min(axis=0), points.max(axis=0)
    extent = float(np.max(highs - lows))
    delta = args.delta if args.delta is not None else 0.02 * extent
    step_sd = args.step_sd if args.step_sd is not None else 0.001 * extent
    sigma_scale = (
        args.sigma_scale if args.sigma_scale is not None else (delta / 8.0) ** 2
    )
    deadline = None if args.deadline_ms is None else args.deadline_ms / 1e3
    obs = make_obs(args)
    engine = db.engine(integrator=CascadeIntegrator(), obs=obs)
    monitor = SubscriptionManager(db, engine, obs=obs)
    rng = np.random.default_rng(args.seed)
    sigma = sigma_scale * np.eye(db.dim)
    positions = rng.uniform(lows, highs, size=(args.subscriptions, db.dim))
    print(f"database: {len(db)} points, extent {extent:g}")
    print(f"fleet: {args.subscriptions} subscriptions, delta={delta:g}, "
          f"theta={args.theta:g}, sigma={sigma_scale:g}*I, "
          f"step sd={step_sd:g}")
    started = time.perf_counter()
    for key in range(args.subscriptions):
        response = monitor.subscribe(
            Gaussian(positions[key], sigma), delta, args.theta,
            subscription_id=key,
        )
        if response.status != "ok":
            raise UsageError(f"subscribe {key} failed: {response.error}")
    subscribe_seconds = time.perf_counter() - started
    started = time.perf_counter()
    updates = 0
    for _step in range(args.steps):
        positions += rng.normal(0.0, step_sd, size=positions.shape)
        np.clip(positions, lows, highs, out=positions)
        for key in range(args.subscriptions):
            monitor.update(key, positions[key], deadline=deadline)
            updates += 1
    update_seconds = time.perf_counter() - started
    stats = monitor.snapshot().to_dict()
    print(f"\nsubscribed {args.subscriptions} queries in "
          f"{subscribe_seconds:.2f}s; "
          f"ran {updates} updates in {update_seconds:.2f}s "
          f"({updates / update_seconds:,.0f} updates/s)")
    print(f"{'outcome':>14} {'count':>8} {'share':>7}")
    for outcome in ("survived", "reintegrated", "replanned", "degraded"):
        count = stats[outcome]
        print(f"{outcome:>14} {count:>8} {count / updates:>6.1%}")
    print(f"\nrechecked candidates: {stats['rechecked_candidates']} "
          f"({stats['rechecked_candidates'] / updates:.1f}/update)")
    export_obs(obs, args, sys.stderr)
    return 0


def _scenario(name: str):
    """A built-in scenario, or a JSON ``ScenarioSpec`` file."""
    from pathlib import Path

    from repro.load import SCENARIOS, ScenarioSpec

    if name in SCENARIOS:
        return SCENARIOS[name]
    path = Path(name)
    if not path.exists():
        raise UsageError(
            f"--scenario {name!r} is neither a built-in "
            f"({', '.join(sorted(SCENARIOS))}) nor a JSON spec file"
        )
    try:
        return ScenarioSpec.from_dict(json.loads(path.read_text()))
    except (json.JSONDecodeError, TypeError) as exc:
        raise UsageError(f"bad scenario file {path}: {exc}") from exc


def rates(text: str) -> list[float]:
    """A ``--rates R1,R2,...`` list."""
    return [float(token) for token in text.split(",")]


#: The default ``--sweep`` ladder, req/s: one doubling ladder wide enough
#: to cross the knee of a small database on a fast machine and still
#: start below the knee of a large one.
SWEEP_RATES = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)


@verb(
    "load",
    "open-loop load harness: scenario runs and capacity sweeps against the "
    "embedded service (docs/load.md)",
    arg("--scenario", default="hotkey", metavar="NAME|FILE",
        help="built-in scenario (uniform, hotkey, mixed, storm) or a JSON "
        "ScenarioSpec file (default: hotkey)"),
    arg("--rate", type=float, default=None,
        help="offered rate in requests/second for a single run (ignored "
        "with --sweep)"),
    arg("--sweep", action="store_true",
        help="step offered load up a rate ladder, locate the shedding knee "
        "and write the capacity report"),
    arg("--rates", type=rates, default=SWEEP_RATES, metavar="R1,R2,...",
        help="ascending offered rates for --sweep (default: "
        "250,500,...,8000)"),
    arg("--duration", type=float, default=2.0,
        help="seconds of offered traffic per step"),
    arg("--seed", type=int, default=None, help="override the scenario's seed"),
    arg("--out", default=None, metavar="FILE",
        help="write the report JSON here (default for --sweep: "
        "BENCH_capacity.json)"),
    parents=(DATABASE, SERVICE),
)
def load(args) -> int:
    from dataclasses import replace

    from repro.load import SaturationSweep

    spec = _scenario(args.scenario)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if not args.sweep and args.rate is None:
        raise UsageError("pass --rate R for a single run or --sweep for "
                         "a saturation sweep")
    sweep = SaturationSweep(
        args.db, spec, rates=args.rates if args.sweep else [args.rate],
        duration=args.duration, service_knobs=service_knobs(args),
    )
    if not args.sweep:
        payload = json.dumps(sweep.run_step(args.rate).to_dict(), indent=2,
                             sort_keys=True)
        print(payload)
        if args.out is not None:
            from pathlib import Path

            Path(args.out).write_text(payload + "\n")
            print(f"wrote run report to {args.out}", file=sys.stderr)
        return 0
    report = sweep.run()
    print(f"scenario {spec.name!r} ({args.duration:g}s per step)")
    print(f"{'offered':>9} {'goodput':>9} {'shed':>7} {'degr':>7} "
          f"{'expired':>7} {'p50ms':>9} {'p99ms':>9}")
    for step in report.steps:
        print(f"{step['offered_qps']:>9.1f} {step['goodput_qps']:>9.1f} "
              f"{step['shed_rate']:>7.3f} {step['degraded_rate']:>7.3f} "
              f"{step['deadline_exceeded_rate']:>7.3f} "
              f"{step['latency_ms']['p50']:>9.2f} "
              f"{step['latency_ms']['p99']:>9.2f}")
    knee = report.knee
    if knee["saturated"]:
        print(f"knee at ~{knee['knee_qps']:.1f} req/s "
              f"(shed > {knee['shed_threshold']:g}); "
              f"capacity {knee['capacity_qps']:.1f} req/s")
    else:
        print(f"no knee found up to {report.steps[-1]['offered_qps']:g} "
              f"req/s; max goodput {knee['capacity_qps']:.1f} req/s")
    out = args.out if args.out is not None else "BENCH_capacity.json"
    report.write(out)
    print(f"wrote capacity report to {out}")
    return 0
