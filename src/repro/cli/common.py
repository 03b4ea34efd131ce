"""What every verb module shares: the verb registry, the option groups
more than one verb takes, the flag types, and the one error path."""

from __future__ import annotations

import argparse
import sys

from repro.errors import DatabaseLoadError, ReproError


class UsageError(Exception):
    """A command line that parsed but that the verb cannot run."""


def arg(*names, **options):
    """One ``add_argument`` call, written down where its verb is."""
    return names, options


def _add(parser, flags):
    for names, options in flags:
        parser.add_argument(*names, **options)
    return parser


def group(*flags) -> argparse.ArgumentParser:
    """An option group several verbs take, as an argparse ``parents=`` entry."""
    return _add(argparse.ArgumentParser(add_help=False), flags)


#: ``(name, help, parents, flags, run)`` per verb, in registration order.
VERBS: list[tuple] = []


def verb(name: str, help: str, *flags, parents=()):
    """Register the decorated ``run(args) -> int`` as verb ``name``."""

    def register(run):
        VERBS.append((name, help, parents, flags, run))
        return run

    return register


def add_verbs(commands) -> None:
    for name, help, parents, flags, run in VERBS:
        command = commands.add_parser(name, help=help, parents=list(parents))
        _add(command, flags).set_defaults(run=run)


def run(args) -> int:
    """Run the parsed verb; every bad input ends as one ``error:`` line.

    A verb's :class:`~repro.errors.ReproError` or :class:`UsageError`
    returns 2.  A ``database`` that cannot be opened is a bad positional
    argument, so it exits 2 the way argparse does.
    """
    try:
        if "database" in args:
            from repro import SpatialDatabase

            args.db = SpatialDatabase.load(args.database)
        return args.run(args)
    except (ReproError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DatabaseLoadError):
            raise SystemExit(2) from None
        return 2


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


INTEGRATORS = ["importance", "exact", "cascade"]


def make_integrator(choice: str | None, seed: int):
    """The Phase-3 evaluator named ``choice`` (None = engine default)."""
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


def make_obs(args):
    """An Observability sink when --trace-out/--metrics-out asked for one."""
    if args.trace_out is None and args.metrics_out is None:
        return None
    from repro.obs import Observability

    return Observability(
        trace=args.trace_out is not None,
        metrics=args.metrics_out is not None,
    )


def export_obs(obs, args, stream) -> None:
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


DATABASE = group(
    arg("database", help="database file from SpatialDatabase.save "
        "(.soa store or legacy .npz)"),
)

OBS = group(
    arg("--trace-out", default=None, metavar="FILE",
        help="write the command's trace as JSON-lines spans "
        "(render with 'repro trace FILE')"),
    arg("--metrics-out", default=None, metavar="FILE",
        help="write the metrics registry as Prometheus-style text exposition"),
)

#: What ``query`` and ``explain`` both take: the query, its Phase-3
#: evaluator and its seed.
SHAPE = group(
    arg("--center", type=float, nargs="+", default=None),
    arg("--sigma-scale", type=float, default=1.0,
        help="isotropic covariance scale (variance)"),
    arg("--delta", type=float, default=None),
    arg("--theta", type=float, default=None),
    arg("--kind", default="prq", choices=["prq", "uncertain", "mixture", "knn"],
        help="query kind: exact-target PRQ (default), uncertain-target PRQ, "
        "Gaussian-mixture query object, or probabilistic k-NN — all run "
        "through the unified stage pipeline (docs/query_types.md)"),
    arg("--target-sigma-scale", type=float, default=None, metavar="SCALE",
        help="give every database object a Gaussian location "
        "N(point, SCALE*I); implied (1.0) by --kind uncertain"),
    arg("--component", type=float, nargs="+", action="append", default=None,
        metavar="COORD",
        help="one mixture component mean per flag (--kind mixture); "
        "components share --sigma-scale"),
    arg("--weights", type=float, nargs="+", default=None,
        help="mixture component weights (default: uniform)"),
    arg("--k", type=int, default=1, help="neighbour count for --kind knn"),
    arg("--knn-samples", type=int, default=2_000,
        help="Monte Carlo sample budget for --kind knn"),
    arg("--integrator", default=None, choices=INTEGRATORS,
        help="Phase-3 evaluator: the paper's importance sampler (sandwich "
        "bounds first, then a staged budget), the exact quadratic-form CDF, "
        "or the deterministic sandwich/Ruben/Imhof cascade (default: engine "
        "default, i.e. importance sampling)"),
    arg("--seed", type=int, default=0,
        help="seed of the query's RNG streams (the base seed of --batch)"),
)

#: The service knobs ``serve`` and ``load`` both take.
SERVICE = group(
    arg("--max-batch", type=int, default=32,
        help="largest coalesced micro-batch per drain"),
    arg("--window-ms", type=float, default=2.0,
        help="batch window: how long a drain waits after the first request "
        "for more to coalesce"),
    arg("--queue-size", type=int, default=256,
        help="admission-queue bound; requests beyond it are answered "
        "'overloaded' immediately"),
    arg("--workers", type=int, default=4,
        help="worker threads per coalesced run_batch call"),
    arg("--cache-size", type=int, default=1024,
        help="result-cache capacity (0 disables caching)"),
)


def service_knobs(args) -> dict:
    """The :data:`SERVICE` flags as ``QueryService`` keywords."""
    return {
        "max_batch": args.max_batch,
        "batch_window": args.window_ms / 1e3,
        "max_queue": args.queue_size,
        "workers": args.workers,
        "cache_size": args.cache_size,
    }
