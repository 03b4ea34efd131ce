"""``demo``, ``query`` and ``explain``: the paper's three-phase PRQ, plus
the JSON query-spec decoder that ``serve`` shares."""

from __future__ import annotations

import sys

import numpy as np

from repro.cli.common import (
    DATABASE,
    OBS,
    SHAPE,
    UsageError,
    arg,
    export_obs,
    make_integrator,
    make_obs,
    positive_int,
    verb,
)


@verb(
    "demo", "run a demonstration query",
    arg("--points", type=int, default=10_000),
    arg("--delta", type=float, default=25.0),
    arg("--theta", type=float, default=0.01),
    arg("--gamma", type=float, default=10.0),
    arg("--seed", type=int, default=0),
)
def demo(args) -> int:
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


def with_targets(db, scale, uncertain=False):
    """``db`` with a shared isotropic target covariance, if one is asked for.

    Saved stores carry only exact points, so the CLI models uncertain
    targets (``--target-sigma-scale``, implied at 1.0 by ``--kind
    uncertain``) by giving every object the location law N(point, scale·I).
    """
    from repro import SpatialDatabase, TargetCovarianceTable

    if scale is None and not uncertain:
        return db
    value = 1.0 if scale is None else float(scale)
    ids = np.asarray(db.ids)
    table = TargetCovarianceTable.shared(value * np.eye(db.dim), ids)
    return SpatialDatabase(np.asarray(db.points), ids=ids, target_table=table)


def gaussian_from_spec(spec, dim, sigma_scale=1.0):
    """N(center, sigma) of a JSON spec; sigma defaults to sigma_scale·I."""
    from repro import Gaussian

    center = np.asarray(spec["center"], dtype=float)
    if "sigma" in spec:
        sigma = np.asarray(spec["sigma"], dtype=float)
    else:
        sigma = float(spec.get("sigma_scale", sigma_scale)) * np.eye(dim)
    return Gaussian(center, sigma)


def query_from_spec(spec, dim, *, sigma_scale=1.0, seed=0, default_kind="prq"):
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
    gaussian = gaussian_from_spec(spec, dim, sigma_scale)
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


def _shape_query(db, args):
    """The kinded query of the :data:`SHAPE` flags, checked for what only
    a command line can get wrong (a missing flag, a coordinate count)."""
    if args.theta is None:
        raise UsageError("--theta is required")
    spec = {"kind": args.kind, "theta": args.theta, "delta": args.delta}
    if args.kind == "mixture":
        if not args.component:
            raise UsageError("--kind mixture needs at least one --component")
        if any(len(c) != db.dim for c in args.component):
            raise UsageError(f"database is {db.dim}-dimensional; every "
                             f"--component needs {db.dim} coordinates")
        spec.update(components=args.component, weights=args.weights)
    else:
        if args.center is None:
            raise UsageError("--center is required")
        if len(args.center) != db.dim:
            raise UsageError(f"database is {db.dim}-dimensional, got "
                             f"{len(args.center)} center coordinates")
        spec.update(center=args.center, k=args.k, n_samples=args.knn_samples)
    if args.kind != "knn" and args.delta is None:
        raise UsageError("--delta is required")
    return query_from_spec(spec, db.dim, sigma_scale=args.sigma_scale,
                           seed=args.seed)


def _batch_queries(db, args):
    """The queries of the ``--batch`` JSON file."""
    import json
    from pathlib import Path

    from repro.errors import ReproError

    try:
        specs = json.loads(Path(args.batch).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read batch file {args.batch}: {exc}") from exc
    if not isinstance(specs, list) or not specs:
        raise UsageError("batch file must hold a non-empty JSON list")
    queries = []
    for i, spec in enumerate(specs):
        try:
            queries.append(query_from_spec(
                spec, db.dim, sigma_scale=args.sigma_scale,
                seed=args.seed, default_kind=args.kind,
            ))
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise UsageError(f"bad query spec #{i}: {exc}") from exc
    return queries


@verb(
    "query", "query a saved database",
    arg("--strategies", default="all",
        help="strategy spec (rr, bf, rr+bf, rr+or, bf+or, all, em, em+bf) "
        "or 'auto': the paper's ALL for range-shaped legs, the kind plan "
        "for k-NN"),
    arg("--exact", action="store_true", help="shorthand for --integrator exact"),
    arg("--batch", default=None, metavar="FILE",
        help='JSON file with a list of query specs [{"center": [...], '
        '"delta": d, "theta": t, "sigma_scale": s?, "kind": k?}, ...]; runs '
        "them all through QueryEngine.run_batch (kinds may be mixed within "
        "one batch; --kind sets the default)"),
    arg("--workers", type=int, default=1,
        help="worker threads for --batch execution (results are identical "
        "for any worker count)"),
    arg("--shards", type=positive_int, default=1,
        help="partition the database into N spatial shards and "
        "scatter-gather across worker processes (docs/sharding.md); "
        "1 = single-process execution"),
    parents=(DATABASE, SHAPE, OBS),
)
def query(args) -> int:
    db = with_targets(args.db, args.target_sigma_scale, args.kind == "uncertain")
    if args.shards == 1:
        return _run_query(db, args)
    with db.shard(args.shards) as sharded:
        return _run_query(sharded, args)


def _run_query(db, args) -> int:
    obs = make_obs(args)
    engine = db.engine(
        strategies=args.strategies,
        integrator=make_integrator(
            args.integrator or ("exact" if args.exact else None), args.seed
        ),
        obs=obs,
    )
    if args.batch is None:
        result = engine.execute(_shape_query(db, args))
        print(f"{len(result)} objects qualify")
        print("ids:", " ".join(str(i) for i in result.ids))
        label, stats = "stats:", result.stats
    else:
        batch = engine.run_batch(
            _batch_queries(db, args), workers=args.workers, base_seed=args.seed
        )
        for i, result in enumerate(batch):
            print(f"query {i}: {len(result)} objects "
                  f"[{' '.join(str(j) for j in result.ids)}]")
        label, stats = "batch:", batch.stats
    print(label, stats.summary())
    if stats.tier_decisions:
        print("phase-3 decisions:", " ".join(
            f"{name}={count}" for name, count in sorted(stats.tier_decisions.items())
        ))
    export_obs(obs, args, sys.stdout)
    return 0


@verb(
    "explain", "show the query plan without integrating",
    arg("--strategies", default="auto",
        help="strategy spec or 'auto': the paper's ALL for range-shaped "
        "legs, the kind plan for k-NN (default: auto)"),
    parents=(DATABASE, SHAPE),
)
def explain(args) -> int:
    db = with_targets(args.db, args.target_sigma_scale, args.kind == "uncertain")
    query = _shape_query(db, args)
    engine = db.engine(
        strategies=args.strategies,
        integrator=make_integrator(args.integrator, args.seed),
    )
    estimator = None
    if db.dim <= 3:
        from repro.core.selectivity import SelectivityEstimator

        estimator = SelectivityEstimator(np.asarray(db.points))
    print(engine.explain(query, estimator=estimator).render())
    return 0
