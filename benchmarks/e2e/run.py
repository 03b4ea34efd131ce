"""The end-to-end benchmark's one command.

Two ways in:

- ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of
  standard output, one JSON object ``{"correct", "attempted", "failed",
  "metrics"}`` — the end-to-end metrics untraced, the per-layer metrics
  traced.  This is the form ``BENCHMARK.json`` names.
- ``python -m benchmarks.e2e.run --seed 0`` (no ``--trace``) runs every
  workload that way in its own subprocess, untraced (``--repeat N``
  times) and then once traced (unless ``--no-trace``), prints every
  metric by name with its unit, writes the same as JSON, and exits
  non-zero on a wrong answer or a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script the package root is not importable yet; the program
# under test lives in src/ (no install step).
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: Set-ups per run: ``setup_s`` is their median and the last one serves
#: the timed window.  Always two; a third only when the first two took
#: less than ``SETUP_BUDGET`` seconds together, so that the sharded
#: workload (≈10 s a set-up) does not spend half a minute setting up.
SETUP_REPEATS = 3
SETUP_BUDGET = 6.0


def _benchmark_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_single(args) -> int:
    # The compiled kernels are part of the program: build them inside
    # the checkout, not in the user's cache directory.
    os.environ.setdefault("REPRO_KERNEL_CACHE", str(HERE / ".build"))
    import numpy as np

    import repro.kernels
    from benchmarks.e2e import datasets, layers
    from benchmarks.e2e.measure import machine_fingerprint, samples_beyond
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    points, store_path, dataset_facts = datasets.materialise(workload.dataset)
    inputs = workload.build_inputs(points, args.seed, args.seconds)

    tracer = Tracer()
    if traced:
        tracer.install()
    state = None
    setup_walls: list[float] = []
    setup_parts: list[dict] = []
    while len(setup_walls) < SETUP_REPEATS:
        if len(setup_walls) == 2 and sum(setup_walls) > SETUP_BUDGET:
            break
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state, parts = workload.setup(store_path, inputs)
        setup_walls.append(time.perf_counter() - start)
        setup_parts.append(parts)
    setup_timings = {
        key: statistics.median(p[key] for p in setup_parts)
        for key in setup_parts[0]
    }
    try:
        tracer.enabled = traced
        measured = workload.measure(state, inputs, args.seconds, tracer)
        tracer.enabled = False
        rng = np.random.default_rng([args.seed, 7])
        checked, mismatched = workload.verify(
            state, inputs, points, measured, rng
        )
    finally:
        tracer.enabled = False
        workload.teardown(state)
        tracer.uninstall()

    failed = measured.failed + mismatched
    if traced:
        metrics = layers.per_layer_metrics(
            measured, setup_timings, tracer, repro.kernels.BACKEND
        )
        units = layers.PER_LAYER
    else:
        metrics = layers.end_to_end_metrics(
            measured, statistics.median(setup_walls)
        )
        units = layers.END_TO_END
    if args.trace_out:
        tracer.write_jsonl(args.trace_out, measured.trace_rows)
    n_lat = len(measured.latencies)
    detail = {
        "workload": workload.name,
        "loop": workload.loop,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "correct": mismatched == 0,
        "attempted": measured.attempted,
        "failed": failed,
        "failed_share": failed / max(measured.attempted, 1),
        "verified_ops": checked,
        "mismatched_ops": mismatched,
        "ops": measured.ops,
        "throughput_ops_s": measured.throughput,
        "latency_samples": n_lat,
        "latency_samples_beyond_p50": samples_beyond(n_lat, 0.50),
        "latency_samples_beyond_p95": samples_beyond(n_lat, 0.95),
        "setup_repeats": len(setup_walls),
        "metrics": metrics,
        "dataset": {workload.dataset: dataset_facts},
        "fingerprint": {
            **machine_fingerprint(ROOT),
            "kernels_backend": repro.kernels.BACKEND,
            "unresolved_targets": tracer.unresolved,
        },
    }
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    line = {
        "correct": detail["correct"],
        "attempted": measured.attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": 0.0 if metrics[name] is None else metrics[name],
                "unit": units[name][0],
            }
            for name in units
        },
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------


def _child(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: Path
) -> dict:
    """Run one workload in a subprocess; return its detail dict."""
    trace_out = (
        out_dir / f"trace_{workload}_seed{seed}.jsonl" if traced else None
    )
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        detail_path = Path(scratch) / "detail.json"
        cmd = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1" if traced else "0",
            "--detail", str(detail_path),
        ]
        if trace_out:
            cmd += ["--trace-out", str(trace_out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if not detail_path.is_file():
            raise SystemExit(
                f"{workload}: run failed with exit code {proc.returncode}"
            )
        detail = json.loads(detail_path.read_text())
    detail["trace_file"] = str(trace_out) if trace_out else None
    return detail


def _summary(values: list[float]) -> dict:
    """Median and quartiles of the repeats (one value: just itself)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def run_all(args) -> int:
    from benchmarks.e2e import layers
    from benchmarks.e2e.workloads import WORKLOADS

    spec = _benchmark_file()
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = Path(args.out).parent if args.out else HERE / ".results"
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"fingerprint": {}, "workloads": {}}
    bad = 0
    for name in names:
        runs = [
            _child(name, args.seed, seconds, False, out_dir)
            for _ in range(args.repeat)
        ]
        entry: dict = {
            "gated": WORKLOADS[name].gated,
            "runs": [r["metrics"] for r in runs],
            "end_to_end": {
                metric: _summary([r["metrics"][metric] for r in runs])
                for metric in layers.END_TO_END
            },
            "failed_share": max(r["failed_share"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "counts": {
                key: [r[key] for r in runs]
                for key in (
                    "ops",
                    "attempted",
                    "failed",
                    "verified_ops",
                    "latency_samples",
                    "latency_samples_beyond_p50",
                    "latency_samples_beyond_p95",
                )
            },
            "dataset": runs[0]["dataset"],
        }
        report["fingerprint"] = {
            **runs[0]["fingerprint"],
            "seed": args.seed,
            "seconds": seconds,
            "repeat": args.repeat,
        }
        if not args.no_trace:
            traced = _child(name, args.seed, seconds, True, out_dir)
            entry["per_layer"] = traced["metrics"]
            entry["trace_file"] = traced["trace_file"]
            entry["traced_throughput_ops_s"] = traced["throughput_ops_s"]
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["failed_share"] = max(
                entry["failed_share"], traced["failed_share"]
            )
        report["workloads"][name] = entry
        bad += (not entry["correct"]) or entry["failed_share"] > 0
        _print_workload(name, entry, layers)
    out_path = (
        Path(args.out)
        if args.out
        else out_dir / f"e2e_seed{args.seed}_{int(time.time())}.json"
    )
    out_path.write_text(json.dumps(report, indent=1))
    print(f"\nresults written to {out_path}")
    return 1 if bad else 0


def _print_workload(name: str, entry: dict, layers) -> None:
    gated = "" if entry["gated"] else "  (reported, not gated)"
    print(f"\n== {name} =={gated}")
    counts = entry["counts"]
    for metric, (unit, _) in layers.END_TO_END.items():
        s = entry["end_to_end"][metric]
        spread = (
            f"  [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}]"
            if len(entry["runs"]) > 1
            else ""
        )
        print(f"  {metric:<44}{s['median']:>14.6g} {unit}{spread}")
    print(
        f"  {'failed_share':<44}{entry['failed_share']:>14.6g} ratio"
        f"  (attempted {counts['attempted'][0]}, verified "
        f"{counts['verified_ops'][0]}, correct={entry['correct']})"
    )
    if "per_layer" in entry:
        print(
            f"  {'throughput_ops_s (traced pass)':<44}"
            f"{entry['traced_throughput_ops_s']:>14.6g} ops/s"
        )
    for metric, value in (entry.get("per_layer") or {}).items():
        unit = layers.PER_LAYER[metric][0]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<44}{shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="result JSON path (all-workload mode)")
    parser.add_argument("--detail", help="per-run detail JSON (single mode)")
    parser.add_argument("--trace-out", help="span JSON-lines (single mode)")
    parser.add_argument("--record-datasets", action="store_true")
    args = parser.parse_args(argv)
    if args.record_datasets:
        from benchmarks.e2e import datasets

        print(json.dumps(datasets.record(), indent=2))
        return 0
    if args.trace is not None:
        if not args.workload or not args.seconds:
            parser.error("--trace needs --workload and --seconds")
        from benchmarks.e2e.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
