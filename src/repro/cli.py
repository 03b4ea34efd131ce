"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``demo``
    Generate a small dataset, run one probabilistic range query with every
    strategy combination, and print the comparison.
``query``
    Run one query against a saved database (a ``.soa`` store from
    :meth:`SpatialDatabase.save`, or a legacy ``.npz`` archive).  ``--kind``
    selects the query kind — exact-target PRQ (default), uncertain-target PRQ
    (``--target-sigma-scale``), Gaussian-mixture query object (repeated
    ``--component`` plus ``--weights``), or probabilistic k-NN (``--k``,
    ``--knn-samples``); every kind runs through the same unified stage
    pipeline (``docs/query_types.md``).
``explain``
    Print the query plan — strategy regions, BF radii, predicted phase-3
    candidates and (with ``--strategies auto``) the cost-based planner's
    full plan comparison — without running Phase 3.
``catalog``
    Build an r_θ or BF U-catalog and write it to JSON.
``dataset``
    Generate one of the synthetic datasets and save it as a
    memory-mapped ``.soa`` store.
``kernels``
    Show which kernel backend (compiled C or NumPy fallback) this
    process selected, per kernel, and the compile cache location.
``experiment``
    Run one of the paper's experiments and print its table (``all`` runs
    the complete report).
``figures``
    Render Figs. 13-17 and the road-network overview as SVG files.
``trace``
    Render a JSON-lines trace (written by ``query --trace-out``) as an
    indented span tree plus a per-span-name summary table.
``serve``
    Run the embedded query service (:mod:`repro.serve`) over a JSON-lines
    request stream (file or stdin): requests are admitted, micro-batched
    and answered one JSON response per line on stdout, with the service
    counters summarised on stderr.  See ``docs/serving.md``.
``load``
    Drive the embedded service with an open-loop scenario workload —
    a single run at one offered rate, or a ``--sweep`` saturation ladder
    that locates the shedding knee and writes the machine-readable
    capacity report (``BENCH_capacity.json``), optionally trend-gated
    against a committed baseline (``--check-against``).  See
    ``docs/load.md``.

Observability: ``query`` accepts ``--trace-out FILE`` (JSON-lines spans,
viewable with ``repro trace FILE``) and ``--metrics-out FILE``
(Prometheus-style text exposition).  Both are off by default and never
change query results; the full telemetry contract lives in
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__

__all__ = ["main", "build_parser"]


def _add_kind_arguments(command) -> None:
    """The query-kind options shared by ``query`` and ``explain``."""
    command.add_argument("--kind", default="prq",
                         choices=["prq", "uncertain", "mixture", "knn"],
                         help="query kind: exact-target PRQ (default), "
                         "uncertain-target PRQ, Gaussian-mixture query "
                         "object, or probabilistic k-NN — all run through "
                         "the unified stage pipeline (docs/query_types.md)")
    command.add_argument("--target-sigma-scale", type=float, default=None,
                         metavar="SCALE",
                         help="give every database object a Gaussian "
                         "location N(point, SCALE*I); implied (1.0) by "
                         "--kind uncertain")
    command.add_argument("--component", type=float, nargs="+",
                         action="append", default=None, metavar="COORD",
                         help="one mixture component mean per flag "
                         "(--kind mixture); components share --sigma-scale")
    command.add_argument("--weights", type=float, nargs="+", default=None,
                         help="mixture component weights (default: uniform)")
    command.add_argument("--k", type=int, default=1,
                         help="neighbour count for --kind knn")
    command.add_argument("--knn-samples", type=int, default=2_000,
                         help="Monte Carlo sample budget for --kind knn")


def _add_obs_arguments(command) -> None:
    """The ``--trace-out`` / ``--metrics-out`` pair :func:`_export_obs` writes."""
    command.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write the command's trace as JSON-lines spans "
                         "(render with 'repro trace FILE')")
    command.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="write the metrics registry as Prometheus-style "
                         "text exposition")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic spatial range queries for Gaussian-based "
        "imprecise query objects (ICDE 2009 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run a demonstration query")
    demo.add_argument("--points", type=int, default=10_000)
    demo.add_argument("--delta", type=float, default=25.0)
    demo.add_argument("--theta", type=float, default=0.01)
    demo.add_argument("--gamma", type=float, default=10.0)
    demo.add_argument("--seed", type=int, default=0)

    query = commands.add_parser("query", help="query a saved database")
    query.add_argument("database", help="database file from SpatialDatabase.save (.soa store or legacy .npz)")
    query.add_argument("--center", type=float, nargs="+", default=None)
    query.add_argument("--sigma-scale", type=float, default=1.0,
                       help="isotropic covariance scale (variance)")
    query.add_argument("--delta", type=float, default=None)
    query.add_argument("--theta", type=float, default=None)
    _add_kind_arguments(query)
    query.add_argument("--strategies", default="all",
                       help="strategy spec (rr, bf, rr+bf, rr+or, bf+or, "
                       "all, em, em+bf) or 'auto' for cost-based planning")
    query.add_argument("--integrator", default=None,
                       choices=["importance", "exact", "cascade"],
                       help="Phase-3 evaluator: the paper's importance "
                       "sampler (sandwich bounds first, then a staged "
                       "budget), the exact quadratic-form CDF, or the "
                       "deterministic sandwich/Ruben/Imhof cascade "
                       "(default: engine default, i.e. importance sampling)")
    query.add_argument("--exact", action="store_true",
                       help="shorthand for --integrator exact")
    query.add_argument("--batch", default=None, metavar="FILE",
                       help="JSON file with a list of query specs "
                       '[{"center": [...], "delta": d, "theta": t, '
                       '"sigma_scale": s?, "kind": k?}, ...]; runs them '
                       "all through QueryEngine.run_batch (kinds may be "
                       "mixed within one batch; --kind sets the default)")
    query.add_argument("--workers", type=int, default=1,
                       help="worker threads for --batch execution "
                       "(results are identical for any worker count)")
    query.add_argument("--shards", type=int, default=1,
                       help="partition the database into N spatial shards "
                       "and scatter-gather across worker processes "
                       "(docs/sharding.md); 1 = single-process execution")
    query.add_argument("--seed", type=int, default=0,
                       help="base seed for the per-query RNG streams of "
                       "--batch execution")
    _add_obs_arguments(query)

    explain = commands.add_parser(
        "explain", help="show the query plan without integrating"
    )
    explain.add_argument("database", help="database file from SpatialDatabase.save (.soa store or legacy .npz)")
    explain.add_argument("--center", type=float, nargs="+", default=None)
    explain.add_argument("--sigma-scale", type=float, default=1.0,
                         help="isotropic covariance scale (variance)")
    explain.add_argument("--delta", type=float, default=None)
    explain.add_argument("--theta", type=float, required=True)
    _add_kind_arguments(explain)
    explain.add_argument("--strategies", default="auto",
                         help="strategy spec or 'auto' for the cost-based "
                         "planner (default: auto)")
    explain.add_argument("--integrator", default=None,
                         choices=["importance", "exact", "cascade"],
                         help="Phase-3 evaluator assumed by the cost model")
    explain.add_argument("--seed", type=int, default=0)

    catalog = commands.add_parser("catalog", help="build a U-catalog")
    catalog.add_argument("kind", choices=["rtheta", "bf"])
    catalog.add_argument("output", help="JSON file to write")
    catalog.add_argument("--dim", type=int, required=True)
    catalog.add_argument("--resolution", type=int, default=33)
    catalog.add_argument("--deltas", type=float, nargs="+", default=None,
                         help="delta grid for BF catalogs")
    catalog.add_argument("--monte-carlo", action="store_true",
                         help="build by sampling (paper-faithful) instead of "
                         "the closed form")
    catalog.add_argument("--seed", type=int, default=0)

    dataset = commands.add_parser("dataset", help="generate a dataset")
    dataset.add_argument("kind", choices=["road", "corel", "uniform"])
    dataset.add_argument("output", help=".soa store file to write")
    dataset.add_argument("--size", type=int, default=None)
    dataset.add_argument("--dim", type=int, default=2)
    dataset.add_argument("--seed", type=int, default=0)

    commands.add_parser(
        "kernels",
        help="show the compiled-kernel backend selected for this process",
    )

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument(
        "name",
        choices=["table1", "table2", "table3", "regions", "fig17",
                 "sensitivity-delta", "sensitivity-theta", "sensitivity-shape",
                 "ablation-em", "ablation-sequential", "extension-3d", "all"],
    )
    experiment.add_argument("--trials", type=int, default=3)
    experiment.add_argument("--samples", type=int, default=20_000)
    experiment.add_argument("--output", default=None,
                            help="for 'all': also write the report to a file")

    figures = commands.add_parser(
        "figures", help="render the paper's figures as SVG"
    )
    figures.add_argument("output_dir", help="directory to write SVG files into")

    serve = commands.add_parser(
        "serve", help="run the embedded query service over JSON-lines requests"
    )
    serve.add_argument("database", help="database file from SpatialDatabase.save (.soa store or legacy .npz)")
    serve.add_argument("--requests", default="-", metavar="FILE",
                       help="JSON-lines request file ('-' = stdin, default); "
                       'each line: {"center": [...], "delta": d, "theta": t, '
                       '"sigma_scale": s?, "deadline_ms": ms?, "priority": p?, '
                       '"id": any?, "kind": "prq"|"uncertain"|"mixture"|"knn"?'
                       "} (kinded specs take the fields described in "
                       "docs/query_types.md).  Lines carrying a \"type\" of "
                       "subscribe/update/unsubscribe/notify are standing-"
                       "query requests (docs/monitoring.md): subscribe takes "
                       'the query fields plus "sub": key?; update takes '
                       '{"type": "update", "sub": key, "center": [...], '
                       '"sigma": [[...]]?, "deadline_ms": ms?}')
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest coalesced micro-batch per drain")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="batch window: how long a drain waits after the "
                       "first request for more to coalesce")
    serve.add_argument("--queue-size", type=int, default=256,
                       help="admission-queue bound; requests beyond it are "
                       "answered 'overloaded' immediately")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads per coalesced run_batch call")
    serve.add_argument("--strategies", default="all",
                       help="strategy spec or 'auto' for cost-based planning")
    serve.add_argument("--target-sigma-scale", type=float, default=None,
                       metavar="SCALE",
                       help="give every database object a Gaussian location "
                       "N(point, SCALE*I) so requests with "
                       '"kind": "uncertain" can be served')
    serve.add_argument("--integrator", default="cascade",
                       choices=["importance", "exact", "cascade"],
                       help="Phase-3 evaluator (default: the deterministic "
                       "cascade — responses are then bit-identical to direct "
                       "run_batch execution)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache capacity (0 disables caching)")
    serve.add_argument("--no-degrade", action="store_true",
                       help="never degrade deadline-pressed requests; they "
                       "run fully and may miss their deadlines")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for sampling integrators (per-request "
                       "streams are still fingerprint-derived)")
    _add_obs_arguments(serve)

    monitor = commands.add_parser(
        "monitor",
        help="demo safe-region monitoring: a moving fleet of standing "
        "queries (docs/monitoring.md)",
    )
    monitor.add_argument("database", help="database file from "
                         "SpatialDatabase.save (.soa store or legacy .npz)")
    monitor.add_argument("--subscriptions", type=int, default=200,
                         help="standing queries to register")
    monitor.add_argument("--steps", type=int, default=20,
                         help="location-update rounds over the whole fleet")
    monitor.add_argument("--step-sd", type=float, default=None, metavar="SD",
                         help="per-step movement std-dev per axis (default: "
                         "0.1%% of the data extent)")
    monitor.add_argument("--delta", type=float, default=None,
                         help="range threshold (default: 2%% of the extent)")
    monitor.add_argument("--theta", type=float, default=0.5,
                         help="probability threshold")
    monitor.add_argument("--sigma-scale", type=float, default=None,
                         metavar="SCALE",
                         help="isotropic query covariance SCALE*I (default: "
                         "(delta/8)^2)")
    monitor.add_argument("--deadline-ms", type=float, default=None,
                         help="per-update deadline; pressed updates degrade "
                         "to sound probability intervals")
    monitor.add_argument("--seed", type=int, default=0,
                         help="fleet placement/trajectory seed")
    _add_obs_arguments(monitor)

    load = commands.add_parser(
        "load",
        help="open-loop load harness: scenario runs and capacity sweeps "
        "against the embedded service (docs/load.md)",
    )
    load.add_argument("database", help="database file from "
                      "SpatialDatabase.save (.soa store or legacy .npz)")
    load.add_argument("--scenario", default="hotkey", metavar="NAME|FILE",
                      help="built-in scenario (uniform, hotkey, mixed, "
                      "storm) or a JSON ScenarioSpec file (default: hotkey)")
    load.add_argument("--rate", type=float, default=None,
                      help="offered rate in requests/second for a single "
                      "run (ignored with --sweep)")
    load.add_argument("--sweep", action="store_true",
                      help="step offered load up a rate ladder, locate the "
                      "shedding knee and write the capacity report")
    load.add_argument("--rates", default=None, metavar="R1,R2,...",
                      help="ascending offered rates for --sweep (default: "
                      "a geometric ladder around the modelled capacity)")
    load.add_argument("--duration", type=float, default=2.0,
                      help="seconds of offered traffic per step")
    load.add_argument("--real", action="store_true",
                      help="drive a real threaded service on the wall clock "
                      "(default: deterministic virtual time on a modelled "
                      "cost; see docs/load.md)")
    load.add_argument("--cost-ms", type=float, default=4.0,
                      help="virtual mode: modelled full-fidelity cost per "
                      "query in milliseconds")
    load.add_argument("--parallelism", type=float, default=4.0,
                      help="virtual mode: modelled worker parallelism "
                      "inside one coalesced batch")
    load.add_argument("--batch-overhead-ms", type=float, default=0.5,
                      help="virtual mode: modelled fixed cost per batch")
    load.add_argument("--max-batch", type=int, default=32,
                      help="largest coalesced micro-batch per drain")
    load.add_argument("--window-ms", type=float, default=2.0,
                      help="batch window in milliseconds")
    load.add_argument("--queue-size", type=int, default=256,
                      help="admission-queue bound")
    load.add_argument("--workers", type=int, default=4,
                      help="worker threads per coalesced batch (real mode)")
    load.add_argument("--cache-size", type=int, default=1024,
                      help="result-cache capacity (0 disables caching)")
    load.add_argument("--shed-threshold", type=float, default=0.01,
                      help="shed rate at which the knee is declared")
    load.add_argument("--seed", type=int, default=None,
                      help="override the scenario's seed")
    load.add_argument("--out", default=None, metavar="FILE",
                      help="write the report JSON here (default for "
                      "--sweep: BENCH_capacity.json)")
    load.add_argument("--check-against", default=None, metavar="FILE",
                      help="trend-gate the sweep against a baseline "
                      "capacity report; exits 1 on regression")
    load.add_argument("--tolerance", type=float, default=0.2,
                      help="relative tolerance band for --check-against")

    trace = commands.add_parser(
        "trace", help="render a JSON-lines trace from 'query --trace-out'"
    )
    trace.add_argument("file", help="JSON-lines trace file")
    trace.add_argument("--min-ms", type=float, default=0.0,
                       help="hide spans (and their subtrees) faster than "
                       "this many milliseconds")
    trace.add_argument("--max-spans", type=int, default=None,
                       help="truncate the tree after this many lines")
    trace.add_argument("--summary-only", action="store_true",
                       help="print only the per-span-name aggregate table")

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------


def _cmd_demo(args) -> int:
    from repro import ExactIntegrator, Gaussian, SpatialDatabase
    from repro.bench.harness import paper_sigma
    from repro.core.strategies import STRATEGY_COMBINATIONS

    rng = np.random.default_rng(args.seed)
    points = rng.random((args.points, 2)) * 1000.0
    db = SpatialDatabase(points)
    gaussian = Gaussian([500.0, 500.0], paper_sigma(args.gamma))
    print(f"database: {args.points} uniform points in [0, 1000]^2")
    print(f"query: delta={args.delta}, theta={args.theta}, gamma={args.gamma}\n")
    print(f"{'strategies':>10} {'retrieved':>9} {'integrated':>10} "
          f"{'answers':>7} {'ms':>8}")
    for spec in STRATEGY_COMBINATIONS:
        result = db.probabilistic_range_query(
            gaussian, args.delta, args.theta,
            strategies=spec, integrator=ExactIntegrator(),
        )
        print(f"{spec:>10} {result.stats.retrieved:>9} "
              f"{result.stats.integrations:>10} {len(result):>7} "
              f"{result.stats.total_seconds * 1e3:>8.1f}")
    return 0


def _integrator_choice(args) -> str | None:
    """The selected Phase-3 evaluator name, folding in the --exact shorthand."""
    return args.integrator or ("exact" if args.exact else None)


def _make_integrator(choice: str | None, seed: int):
    """Build the Phase-3 evaluator (None = engine default)."""
    from repro.integrate import (
        CascadeIntegrator,
        ExactIntegrator,
        ImportanceSamplingIntegrator,
    )

    if choice is None:
        return None
    if choice == "importance":
        return ImportanceSamplingIntegrator(seed=seed)
    if choice == "exact":
        return ExactIntegrator()
    return CascadeIntegrator()


def _make_obs(args):
    """An Observability sink when --trace-out/--metrics-out asked for one."""
    if args.trace_out is None and args.metrics_out is None:
        return None
    from repro.obs import Observability

    return Observability(
        trace=args.trace_out is not None,
        metrics=args.metrics_out is not None,
    )


def _export_obs(obs, args, stream) -> None:
    """Write the requested trace/metrics files, noting each on ``stream``.

    Query commands report on stdout; ``serve`` and ``monitor`` keep
    stdout for their response stream / table and report on stderr.
    """
    if obs is None:
        return
    from pathlib import Path

    if args.trace_out is not None:
        count = obs.export_trace(args.trace_out)
        print(f"wrote {count} spans to {args.trace_out}", file=stream)
    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(obs.render_metrics())
        print(f"wrote metrics to {args.metrics_out}", file=stream)


def _load_database(path):
    """Load a database, mapping failures onto ``error: ...`` + exit 2.

    Missing, truncated, corrupt, or future-version store files raise
    :class:`~repro.errors.DatabaseLoadError` naming the path; a CLI user
    should see that one-line diagnostic, not a traceback.
    """
    from repro import SpatialDatabase
    from repro.errors import DatabaseLoadError

    try:
        return SpatialDatabase.load(path)
    except DatabaseLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _with_target_table(db, scale):
    """Rebuild a loaded database with a shared isotropic target covariance.

    Saved stores carry only exact points, so the CLI models uncertain
    targets by giving every object the location law N(point, scale * I).
    """
    from repro import SpatialDatabase, TargetCovarianceTable

    value = 1.0 if scale is None else float(scale)
    ids = np.asarray(db.ids)
    table = TargetCovarianceTable.shared(value * np.eye(db.dim), ids)
    return SpatialDatabase(np.asarray(db.points), ids=ids, target_table=table)


def _build_cli_query(dim, args):
    """The kinded query object for one CLI invocation.

    Checks what only the command line can get wrong (a missing flag, a
    coordinate count), then hands the flags to :func:`_query_from_spec`
    as one spec.  Returns ``(query, None)`` or ``(None, error_message)``
    so the caller can print the one-line diagnostic and exit 2.
    """
    from repro.errors import ReproError

    if args.theta is None:
        return None, "--theta is required (or pass --batch FILE)"
    spec = {"kind": args.kind, "theta": args.theta, "delta": args.delta}
    if args.kind == "mixture":
        if not args.component:
            return None, "--kind mixture needs at least one --component"
        if any(len(c) != dim for c in args.component):
            return None, (f"database is {dim}-dimensional; every "
                          f"--component needs {dim} coordinates")
        if args.delta is None:
            return None, "--delta is required"
        spec.update(components=args.component, weights=args.weights)
    else:
        if args.center is None:
            return None, "--center is required (or pass --batch FILE)"
        if len(args.center) != dim:
            return None, (f"database is {dim}-dimensional, got "
                          f"{len(args.center)} center coordinates")
        if args.kind != "knn" and args.delta is None:
            return None, "--delta is required (or pass --batch FILE)"
        spec.update(center=args.center, k=args.k, n_samples=args.knn_samples)
    try:
        return _query_from_spec(
            spec, dim, sigma_scale=args.sigma_scale, seed=args.seed
        ), None
    except ReproError as exc:
        return None, str(exc)


def _gaussian_from_spec(spec, dim, sigma_scale=1.0):
    """N(center, sigma) of a JSON spec; sigma defaults to sigma_scale·I."""
    from repro import Gaussian

    center = np.asarray(spec["center"], dtype=float)
    if "sigma" in spec:
        sigma = np.asarray(spec["sigma"], dtype=float)
    else:
        sigma = float(spec.get("sigma_scale", sigma_scale)) * np.eye(dim)
    return Gaussian(center, sigma)


def _query_from_spec(spec, dim, *, sigma_scale=1.0, seed=0,
                     default_kind="prq"):
    """One kinded query from a spec (CLI flags, batch line, serve request).

    Raises ``KeyError``/``TypeError``/``ValueError`` or a ``ReproError``
    subclass on a malformed spec; callers map those onto per-line errors.
    """
    from repro import (
        Gaussian,
        GaussianMixture,
        KNNQuery,
        MixtureRangeQuery,
        UncertainTargetQuery,
    )
    from repro.core.query import ProbabilisticRangeQuery

    kind = spec.get("kind", default_kind)
    theta = float(spec["theta"])
    if kind == "mixture":
        scale = float(spec.get("sigma_scale", sigma_scale))
        components = [
            Gaussian(np.asarray(c, dtype=float), scale * np.eye(dim))
            for c in spec["components"]
        ]
        mixture = GaussianMixture(components, spec.get("weights"))
        return MixtureRangeQuery.create(mixture, float(spec["delta"]), theta)
    gaussian = _gaussian_from_spec(spec, dim, sigma_scale)
    if kind == "knn":
        return KNNQuery.create(
            gaussian,
            k=int(spec.get("k", 1)),
            theta=theta,
            n_samples=int(spec.get("n_samples", 2_000)),
            seed=int(spec.get("seed", seed)),
        )
    if kind == "uncertain":
        return UncertainTargetQuery(gaussian, float(spec["delta"]), theta)
    if kind != "prq":
        raise ValueError(f"unknown query kind {kind!r}")
    return ProbabilisticRangeQuery(gaussian, float(spec["delta"]), theta)


def _cmd_query(args) -> int:
    db = _load_database(args.database)
    if args.kind == "uncertain" or args.target_sigma_scale is not None:
        db = _with_target_table(db, args.target_sigma_scale)
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    sharded = None
    if args.shards > 1:
        sharded = db.shard(args.shards)
    try:
        return _dispatch_query(sharded if sharded is not None else db, args)
    finally:
        if sharded is not None:
            sharded.close()


def _dispatch_query(db, args) -> int:
    if args.batch is not None:
        return _run_query_batch(db, args)
    query, problem = _build_cli_query(db.dim, args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    integrator = _make_integrator(_integrator_choice(args), args.seed)
    obs = _make_obs(args)
    engine = db.engine(
        strategies=args.strategies, integrator=integrator, obs=obs
    )
    result = engine.execute(query)
    print(f"{len(result)} objects qualify")
    print("ids:", " ".join(str(i) for i in result.ids))
    print("stats:", result.stats.summary())
    if result.stats.tier_decisions:
        print("phase-3 decisions:", " ".join(
            f"{name}={count}"
            for name, count in sorted(result.stats.tier_decisions.items())
        ))
    _export_obs(obs, args, sys.stdout)
    return 0


def _run_query_batch(db, args) -> int:
    """Execute a JSON batch file through ``QueryEngine.run_batch``."""
    import json
    from pathlib import Path

    from repro.errors import ReproError

    try:
        specs = json.loads(Path(args.batch).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read batch file {args.batch}: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(specs, list) or not specs:
        print("error: batch file must hold a non-empty JSON list",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    queries = []
    for i, spec in enumerate(specs):
        try:
            queries.append(_query_from_spec(
                spec, db.dim, sigma_scale=args.sigma_scale,
                seed=args.seed, default_kind=args.kind,
            ))
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            print(f"error: bad query spec #{i}: {exc}", file=sys.stderr)
            return 2
    obs = _make_obs(args)
    engine = db.engine(
        strategies=args.strategies,
        integrator=_make_integrator(_integrator_choice(args), args.seed),
        obs=obs,
    )
    batch = engine.run_batch(queries, workers=args.workers, base_seed=args.seed)
    for i, result in enumerate(batch):
        print(f"query {i}: {len(result)} objects "
              f"[{' '.join(str(j) for j in result.ids)}]")
    print("batch:", batch.stats.summary())
    if batch.stats.tier_decisions:
        print("phase-3 decisions:", " ".join(
            f"{name}={count}"
            for name, count in sorted(batch.stats.tier_decisions.items())
        ))
    _export_obs(obs, args, sys.stdout)
    return 0


def _cmd_explain(args) -> int:
    db = _load_database(args.database)
    if args.kind == "uncertain" or args.target_sigma_scale is not None:
        db = _with_target_table(db, args.target_sigma_scale)
    query, problem = _build_cli_query(db.dim, args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    integrator = _make_integrator(args.integrator, args.seed)
    engine = db.engine(strategies=args.strategies, integrator=integrator)
    estimator = None
    if db.dim <= 3:
        from repro.core.selectivity import SelectivityEstimator

        estimator = SelectivityEstimator(np.asarray(db.points))
    print(engine.explain(query, estimator=estimator).render())
    return 0


def _cmd_catalog(args) -> int:
    from repro.catalog import BFCatalog, RThetaCatalog, save_catalog

    if args.kind == "rtheta":
        thetas = np.linspace(0.0, 0.5, args.resolution + 2)[1:-1]
        if args.monte_carlo:
            catalog = RThetaCatalog.build_monte_carlo(
                args.dim, thetas, seed=args.seed
            )
        else:
            catalog = RThetaCatalog.build_analytic(args.dim, thetas)
    else:
        deltas = args.deltas or np.geomspace(0.1, 10.0, args.resolution)
        thetas = np.geomspace(1e-4, 0.9, args.resolution)
        if args.monte_carlo:
            catalog = BFCatalog.build_monte_carlo(
                args.dim, deltas, thetas, seed=args.seed
            )
        else:
            catalog = BFCatalog.build_analytic(args.dim, deltas, thetas)
    save_catalog(catalog, args.output)
    print(f"wrote {args.kind} catalog ({len(catalog)} entries, "
          f"dim={args.dim}) to {args.output}")
    return 0


def _cmd_dataset(args) -> int:
    from repro.datasets import color_moments_like, long_beach_like, uniform_points

    if args.kind == "road":
        size = args.size or 50_747
        points = long_beach_like(size, seed=args.seed).midpoints
    elif args.kind == "corel":
        size = args.size or 68_040
        points = color_moments_like(size, seed=args.seed)
    else:
        size = args.size or 10_000
        points = uniform_points(size, args.dim, seed=args.seed)
    from repro.core.storage import write_soa

    write_soa(args.output, np.arange(points.shape[0]), points)
    print(f"wrote {points.shape[0]} x {points.shape[1]} {args.kind} points "
          f"to {args.output}")
    return 0


def _cmd_kernels(args) -> int:
    from repro import kernels
    from repro.kernels.build import cache_dir

    print(f"backend: {kernels.backend()}")
    print(f"cache:   {cache_dir()}")
    for row in kernels.kernel_table():
        print(f"  {row['kernel']:36s} {row['backend']}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.bench import experiments

    if args.name == "all":
        from repro.bench.report import run_full_report

        report = run_full_report(n_trials=args.trials, n_samples=args.samples)
        print(report)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(report + "\n")
            print(f"\nwrote {args.output}")
        return 0
    if args.name == "table1":
        result = experiments.run_strategy_grid(
            n_trials=args.trials, n_samples=args.samples
        )
        print(result.table_time().render())
    elif args.name == "table2":
        result = experiments.run_candidate_grid(n_trials=args.trials)
        print(result.table_candidates().render())
    elif args.name == "table3":
        print(experiments.run_table3(n_trials=args.trials).render())
    elif args.name == "regions":
        print(experiments.run_region_tables().render())
    elif args.name == "fig17":
        table, _ = experiments.run_fig17()
        print(table.render())
    elif args.name == "sensitivity-delta":
        print(experiments.run_sensitivity_delta(n_trials=args.trials).render())
    elif args.name == "sensitivity-theta":
        print(experiments.run_sensitivity_theta(n_trials=args.trials).render())
    elif args.name == "sensitivity-shape":
        print(experiments.run_sensitivity_shape(n_trials=args.trials).render())
    elif args.name == "ablation-em":
        print(experiments.run_ablation_em_strategy(n_trials=args.trials).render())
    elif args.name == "ablation-sequential":
        print(experiments.run_ablation_sequential(n_trials=args.trials).render())
    else:
        print(experiments.run_3d_fringe_extension(n_trials=args.trials).render())
    return 0


def _cmd_figures(args) -> int:
    from pathlib import Path

    from repro.datasets.roadnet import long_beach_like
    from repro.viz import (
        render_radial_figure,
        render_regions_figure,
        render_road_network,
    )

    target = Path(args.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for gamma, name in ((10.0, "fig13_14"), (1.0, "fig15"), (100.0, "fig16")):
        written.append(render_regions_figure(gamma).save(target / f"{name}.svg"))
    written.append(render_radial_figure().save(target / "fig17.svg"))
    network = long_beach_like(15_000, seed=0)
    written.append(
        render_road_network(network.midpoints).save(target / "road_network.svg")
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_serve_request(spec: dict, dim: int, line_no: int, seed: int = 0):
    """Build one PRQRequest from a JSON-lines spec (raises ValueError)."""
    from repro.serve import PRQRequest

    query = _query_from_spec(spec, dim, seed=seed)
    deadline = spec.get("deadline_ms")
    deadline = None if deadline is None else float(deadline) / 1e3
    return PRQRequest.from_query(
        query, deadline=deadline, priority=int(spec.get("priority", 0)),
        request_id=spec.get("id", line_no),
    )


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
    deadline = spec.get("deadline_ms")
    deadline = None if deadline is None else float(deadline) / 1e3
    if request_type == REQUEST_SUBSCRIBE:
        query = ProbabilisticRangeQuery(
            _gaussian_from_spec(spec, dim),
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


def _cmd_serve(args) -> int:
    import json
    from pathlib import Path

    from repro.errors import ReproError, ServiceError
    from repro.serve import STATUS_FAILED

    db = _load_database(args.database)
    if args.target_sigma_scale is not None:
        db = _with_target_table(db, args.target_sigma_scale)
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            lines = Path(args.requests).read_text().splitlines()
        except OSError as exc:
            print(f"error: cannot read requests from {args.requests}: {exc}",
                  file=sys.stderr)
            return 2
    obs = _make_obs(args)
    integrator = _make_integrator(args.integrator, args.seed)
    try:
        service = db.serve(
            max_queue=args.queue_size,
            max_batch=args.max_batch,
            batch_window=args.window_ms / 1e3,
            workers=args.workers,
            strategies=args.strategies,
            integrator=integrator,
            cache_size=args.cache_size,
            degrade=not args.no_degrade,
            obs=obs,
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
                request = _parse_serve_request(spec, db.dim, line_no, args.seed)
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
    _export_obs(obs, args, sys.stderr)
    return 0


def _cmd_monitor(args) -> int:
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

    db = _load_database(args.database)
    points = np.asarray(db.points)
    lows, highs = points.min(axis=0), points.max(axis=0)
    extent = float(np.max(highs - lows))
    delta = args.delta if args.delta is not None else 0.02 * extent
    step_sd = args.step_sd if args.step_sd is not None else 0.001 * extent
    sigma_scale = (
        args.sigma_scale if args.sigma_scale is not None else (delta / 8.0) ** 2
    )
    deadline = None if args.deadline_ms is None else args.deadline_ms / 1e3
    obs = _make_obs(args)
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
            print(f"error: subscribe {key} failed: {response.error}",
                  file=sys.stderr)
            return 2
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
        print(f"{outcome:>14} {count:>8} {count / max(updates, 1):>6.1%}")
    print(f"\nrechecked candidates: {stats['rechecked_candidates']} "
          f"({stats['rechecked_candidates'] / max(updates, 1):.1f}/update)")
    _export_obs(obs, args, sys.stderr)
    return 0


def _cmd_load(args) -> int:
    import json
    from dataclasses import replace
    from pathlib import Path

    from repro.errors import LoadError, ServiceError
    from repro.load import (
        SCENARIOS,
        CapacityReport,
        SaturationSweep,
        ScenarioSpec,
        VirtualCostModel,
    )

    db = _load_database(args.database)
    if args.scenario in SCENARIOS:
        spec = SCENARIOS[args.scenario]
    else:
        path = Path(args.scenario)
        if not path.exists():
            print(
                f"error: --scenario {args.scenario!r} is neither a built-in "
                f"({', '.join(sorted(SCENARIOS))}) nor a JSON spec file",
                file=sys.stderr,
            )
            return 2
        try:
            spec = ScenarioSpec.from_dict(json.loads(path.read_text()))
        except (LoadError, json.JSONDecodeError, TypeError) as exc:
            print(f"error: bad scenario file {path}: {exc}", file=sys.stderr)
            return 2
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    virtual = not args.real
    cost_model = None
    if virtual:
        try:
            cost_model = VirtualCostModel(
                seconds_per_query=args.cost_ms / 1e3,
                batch_overhead=args.batch_overhead_ms / 1e3,
                parallelism=args.parallelism,
            )
        except LoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    service_knobs = {
        "max_batch": args.max_batch,
        "batch_window": args.window_ms / 1e3,
        "max_queue": args.queue_size,
        "workers": args.workers,
        "cache_size": args.cache_size,
    }
    if args.sweep:
        if args.rates is not None:
            try:
                rates = [float(token) for token in args.rates.split(",")]
            except ValueError:
                print(f"error: bad --rates {args.rates!r}", file=sys.stderr)
                return 2
        else:
            # A geometric ladder around the modelled (or guessed)
            # single-instance capacity, crossing the knee on both sides.
            base = (
                cost_model.parallelism / cost_model.seconds_per_query
                if cost_model is not None
                else 500.0
            )
            rates = [base * factor for factor in
                     (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
        try:
            sweep = SaturationSweep(
                db, spec, rates=rates, duration=args.duration,
                virtual=virtual, cost_model=cost_model,
                service_knobs=service_knobs,
                shed_threshold=args.shed_threshold,
            )
            report = sweep.run()
        except (LoadError, ServiceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"scenario {spec.name!r} "
              f"({'virtual' if virtual else 'real'} mode, "
              f"{args.duration:g}s per step)")
        header = (f"{'offered':>9} {'goodput':>9} {'shed':>7} {'degr':>7} "
                  f"{'expired':>7} {'p50ms':>9} {'p99ms':>9}")
        print(header)
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
        if args.check_against is not None:
            try:
                baseline = CapacityReport.load(args.check_against)
                gate = report.compare(baseline, tolerance=args.tolerance)
            except LoadError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(gate.summary())
            if not gate.passed:
                return 1
        return 0
    if args.rate is None:
        print("error: pass --rate R for a single run or --sweep for a "
              "saturation sweep", file=sys.stderr)
        return 2
    try:
        sweep = SaturationSweep(
            db, spec, rates=[args.rate], duration=args.duration,
            virtual=virtual, cost_model=cost_model,
            service_knobs=service_knobs,
            shed_threshold=args.shed_threshold,
        )
        run = sweep.run_step(args.rate)
    except (LoadError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(run.to_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out is not None:
        Path(args.out).write_text(payload + "\n")
        print(f"wrote run report to {args.out}", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.render import render_trace, summarize_trace
    from repro.obs.tracer import Tracer

    try:
        spans = Tracer.load_jsonl(args.file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read trace {args.file}: {exc}", file=sys.stderr)
        return 2
    if not args.summary_only:
        print(render_trace(spans, min_ms=args.min_ms, max_spans=args.max_spans))
        print()
    print(summarize_trace(spans))
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "catalog": _cmd_catalog,
    "dataset": _cmd_dataset,
    "kernels": _cmd_kernels,
    "experiment": _cmd_experiment,
    "figures": _cmd_figures,
    "serve": _cmd_serve,
    "monitor": _cmd_monitor,
    "load": _cmd_load,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
