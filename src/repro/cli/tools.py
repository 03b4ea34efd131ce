"""``dataset``, ``catalog``, ``kernels``, ``experiment``, ``figures`` and
``trace``: making inputs, regenerating the paper's tables and figures,
and reading traces."""

from __future__ import annotations

import numpy as np

from repro.cli.common import UsageError, arg, positive_int, verb

#: Points per synthetic dataset when ``--size`` is not given.
DATASET_SIZES = {"road": 50_747, "corel": 68_040, "uniform": 10_000}


@verb(
    "dataset", "generate a dataset",
    arg("kind", choices=list(DATASET_SIZES)),
    arg("output", help=".soa store file to write"),
    arg("--size", type=positive_int, default=None,
        help="points to generate (default: road 50747, corel 68040, "
        "uniform 10000)"),
    arg("--dim", type=positive_int, default=2, help="dimension of uniform data"),
    arg("--seed", type=int, default=0),
)
def dataset(args) -> int:
    from repro.core.storage import write_soa
    from repro.datasets import color_moments_like, long_beach_like, uniform_points

    size = DATASET_SIZES[args.kind] if args.size is None else args.size
    if args.kind == "road":
        points = long_beach_like(size, seed=args.seed).midpoints
    elif args.kind == "corel":
        points = color_moments_like(size, seed=args.seed)
    else:
        points = uniform_points(size, args.dim, seed=args.seed)
    write_soa(args.output, np.arange(points.shape[0]), points)
    print(f"wrote {points.shape[0]} x {points.shape[1]} {args.kind} points "
          f"to {args.output}")
    return 0


@verb(
    "catalog", "build a U-catalog",
    arg("kind", choices=["rtheta", "bf"]),
    arg("output", help="JSON file to write"),
    arg("--dim", type=positive_int, required=True),
    arg("--resolution", type=positive_int, default=33),
    arg("--deltas", type=float, nargs="+", default=None,
        help="delta grid for BF catalogs"),
    arg("--monte-carlo", action="store_true",
        help="build by sampling (paper-faithful) instead of the closed form"),
    arg("--seed", type=int, default=0),
)
def catalog(args) -> int:
    from repro.catalog import BFCatalog, RThetaCatalog, save_catalog

    if args.kind == "rtheta":
        thetas = np.linspace(0.0, 0.5, args.resolution + 2)[1:-1]
        if args.monte_carlo:
            built = RThetaCatalog.build_monte_carlo(args.dim, thetas, seed=args.seed)
        else:
            built = RThetaCatalog.build_analytic(args.dim, thetas)
    else:
        deltas = args.deltas or np.geomspace(0.1, 10.0, args.resolution)
        thetas = np.geomspace(1e-4, 0.9, args.resolution)
        if args.monte_carlo:
            built = BFCatalog.build_monte_carlo(
                args.dim, deltas, thetas, seed=args.seed
            )
        else:
            built = BFCatalog.build_analytic(args.dim, deltas, thetas)
    save_catalog(built, args.output)
    print(f"wrote {args.kind} catalog ({len(built)} entries, "
          f"dim={args.dim}) to {args.output}")
    return 0


@verb("kernels", "show the compiled-kernel backend selected for this process")
def kernels(args) -> int:
    from repro import kernels
    from repro.kernels.build import cache_dir

    print(f"backend: {kernels.backend()}")
    print(f"cache:   {cache_dir()}")
    for row in kernels.kernel_table():
        print(f"  {row['kernel']:36s} {row['backend']}")
    return 0


#: ``experiment NAME`` → its table, from (:mod:`repro.bench.experiments`, args).
EXPERIMENTS = {
    "table1": lambda ex, a: ex.run_strategy_grid(
        n_trials=a.trials, n_samples=a.samples
    ).table_time(),
    "table2": lambda ex, a: ex.run_candidate_grid(n_trials=a.trials).table_candidates(),
    "table3": lambda ex, a: ex.run_table3(n_trials=a.trials),
    "regions": lambda ex, a: ex.run_region_tables(),
    "fig17": lambda ex, a: ex.run_fig17()[0],
    "sensitivity-delta": lambda ex, a: ex.run_sensitivity_delta(n_trials=a.trials),
    "sensitivity-theta": lambda ex, a: ex.run_sensitivity_theta(n_trials=a.trials),
    "sensitivity-shape": lambda ex, a: ex.run_sensitivity_shape(n_trials=a.trials),
    "ablation-em": lambda ex, a: ex.run_ablation_em_strategy(n_trials=a.trials),
    "ablation-sequential": lambda ex, a: ex.run_ablation_sequential(n_trials=a.trials),
    "extension-3d": lambda ex, a: ex.run_3d_fringe_extension(n_trials=a.trials),
}


@verb(
    "experiment", "run one of the paper's experiments",
    arg("name", choices=[*EXPERIMENTS, "all"]),
    arg("--trials", type=positive_int, default=3),
    arg("--samples", type=int, default=20_000),
    arg("--output", default=None,
        help="for 'all': also write the report to a file"),
)
def experiment(args) -> int:
    if args.name != "all":
        from repro.bench import experiments

        print(EXPERIMENTS[args.name](experiments, args).render())
        return 0
    from repro.bench.report import run_full_report

    report = run_full_report(n_trials=args.trials, n_samples=args.samples)
    print(report)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report + "\n")
        print(f"\nwrote {args.output}")
    return 0


@verb(
    "figures", "render the paper's figures as SVG",
    arg("output_dir", help="directory to write SVG files into"),
)
def figures(args) -> int:
    from pathlib import Path

    from repro.datasets.roadnet import long_beach_like
    from repro.viz import (
        render_radial_figure,
        render_regions_figure,
        render_road_network,
    )

    target = Path(args.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    written = [
        render_regions_figure(gamma).save(target / f"{name}.svg")
        for gamma, name in ((10.0, "fig13_14"), (1.0, "fig15"), (100.0, "fig16"))
    ]
    written.append(render_radial_figure().save(target / "fig17.svg"))
    network = long_beach_like(15_000, seed=0)
    written.append(
        render_road_network(network.midpoints).save(target / "road_network.svg")
    )
    for path in written:
        print(f"wrote {path}")
    return 0


@verb(
    "trace", "render a JSON-lines trace from '--trace-out'",
    arg("file", help="JSON-lines trace file"),
    arg("--min-ms", type=float, default=0.0,
        help="hide spans (and their subtrees) faster than this many "
        "milliseconds"),
    arg("--max-spans", type=int, default=None,
        help="truncate the tree after this many lines"),
    arg("--summary-only", action="store_true",
        help="print only the per-span-name aggregate table"),
)
def trace(args) -> int:
    from repro.obs.render import render_trace, summarize_trace
    from repro.obs.tracer import Tracer

    try:
        spans = Tracer.load_jsonl(args.file)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read trace {args.file}: {exc}") from exc
    if not args.summary_only:
        print(render_trace(spans, min_ms=args.min_ms, max_spans=args.max_spans))
        print()
    print(summarize_trace(spans))
    return 0
