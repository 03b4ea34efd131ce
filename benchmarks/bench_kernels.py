"""Compiled-kernel speedups and O(1) store loading.

The acceptance bar for ``repro.kernels`` (see docs/architecture.md):
with the compiled backend active, every compiled kernel must run at
least as fast as its NumPy twin on a realistic candidate block (a fast
path that is not faster has no place here), at least two of them >= 3x
faster, and answers must stay within the documented parity contract
(classify kernels bit-identical, bound kernels sound).  The χ² sandwich
has no compiled twin and no row here.  The storage bar: loading a
1,000,000-point structure-of-arrays store must be O(1) — under 50 ms
wall, independent of n.

Results land in ``BENCH_kernels.json`` at the repo root: per kernel,
ns/candidate before (fallback) and after (dispatch) and whether the
jit (compiled) backend was on.  When the suite runs
under ``REPRO_NO_JIT=1`` the speedup gate is vacuous (before == after)
and only recorded, never asserted.

Environment knobs:

- ``REPRO_BENCH_KERNEL_CANDIDATES`` — candidate block size (default 20,000);
- ``REPRO_BENCH_KERNEL_REPEATS`` — best-of repeats per measurement (default 5).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import report, report_json

from repro import kernels
from repro.bench.harness import ExperimentTable
from repro.core.database import SpatialDatabase
from repro.gaussian.distribution import Gaussian
from repro.kernels import fallback

SPEEDUP_GATE = 3.0
MIN_FAST_KERNELS = 2
#: Every compiled kernel must at least match its NumPy twin.
MIN_SPEEDUP = 1.0
LOAD_BUDGET_SECONDS = 0.050


def kernel_candidates(default: int = 20_000) -> int:
    return int(os.environ.get("REPRO_BENCH_KERNEL_CANDIDATES", default))


def kernel_repeats(default: int = 5) -> int:
    return int(os.environ.get("REPRO_BENCH_KERNEL_REPEATS", default))


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_workload(m: int, d: int = 2, seed: int = 7):
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.0, 1000.0, d)
    a = rng.standard_normal((d, d))
    sigma = a @ a.T + d * np.eye(d)
    gaussian = Gaussian(center, sigma)
    points = center + 40.0 * rng.standard_normal((m, d))
    return gaussian, points


def test_kernel_speedups(benchmark):
    m = kernel_candidates()
    repeats = kernel_repeats()
    gaussian, points = make_workload(m)
    d = gaussian.dim
    mean = np.asarray(gaussian.mean)
    basis = np.asarray(gaussian.basis)
    eigvals = np.asarray(gaussian.eigenvalues)
    delta = 30.0
    x = delta * delta

    ncs_axis = np.array(
        fallback.squared_distance_noncentralities(mean, basis, eigvals, points)
    )
    lam = eigvals
    dofs = np.ones(d)
    # The Ruben block is the tier-2 shape: a smaller survivor set at full
    # tolerance, each candidate carrying per-eigendirection noncentralities.
    m_ruben = min(m, 2_000)
    ncs_ruben = ncs_axis[:m_ruben]

    lows = np.quantile(points, 0.2, axis=0)
    highs = np.quantile(points, 0.8, axis=0)
    half_widths = (highs - lows) / 2.0
    alpha_upper = np.quantile(np.linalg.norm(points - mean, axis=1), 0.7)
    alpha_lower = alpha_upper / 3.0

    cases = {
        "squared_distance_noncentralities": (
            lambda: fallback.squared_distance_noncentralities(
                mean, basis, eigvals, points
            ),
            lambda: kernels.squared_distance_noncentralities(
                mean, basis, eigvals, points
            ),
            m,
        ),
        "ruben_block": (
            lambda: fallback.ruben_block(lam, dofs, ncs_ruben, x, tol=1e-10),
            lambda: kernels.ruben_block(lam, dofs, ncs_ruben, x, tol=1e-10),
            m_ruben,
        ),
        "minkowski_contains": (
            lambda: fallback.minkowski_contains(points, lows, highs, delta),
            lambda: kernels.minkowski_contains(points, lows, highs, delta),
            m,
        ),
        "oblique_contains": (
            lambda: fallback.oblique_contains(points, mean, basis, half_widths),
            lambda: kernels.oblique_contains(points, mean, basis, half_widths),
            m,
        ),
        "bf_classify": (
            lambda: fallback.bf_classify(points, mean, alpha_upper, alpha_lower),
            lambda: kernels.bf_classify(points, mean, alpha_upper, alpha_lower),
            m,
        ),
    }

    def run():
        rows = {}
        for name, (before_fn, after_fn, count) in cases.items():
            before_fn(), after_fn()  # warm caches / scratch arenas
            before = best_of(before_fn, repeats)
            after = best_of(after_fn, repeats)
            rows[name] = {
                "ns_per_candidate_before": before / count * 1e9,
                "ns_per_candidate_after": after / count * 1e9,
                "speedup": before / after if after > 0 else float("inf"),
                "candidates": count,
                "jit": kernels.BACKEND == "c",
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    n_load = 1_000_000
    rng = np.random.default_rng(1)
    big = SpatialDatabase(rng.uniform(0.0, 1000.0, (n_load, 2)))
    store_path = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), "bench_kernels_1m.soa"
    )
    try:
        big.save(store_path)
        load_seconds = best_of(
            lambda: SpatialDatabase.load(store_path), repeats
        )
    finally:
        if os.path.exists(store_path):
            os.remove(store_path)

    table = ExperimentTable(
        f"Compiled kernels vs NumPy fallback (backend={kernels.BACKEND}, "
        f"m={kernel_candidates()})",
        ["kernel", "before ns/cand", "after ns/cand", "speedup"],
    )
    for name, row in rows.items():
        table.add_row(
            name,
            f"{row['ns_per_candidate_before']:.1f}",
            f"{row['ns_per_candidate_after']:.1f}",
            f"{row['speedup']:.2f}x",
        )
    text = table.render()
    text += (
        f"\n1M-point store load: {load_seconds * 1e3:.3f} ms "
        f"(budget {LOAD_BUDGET_SECONDS * 1e3:.0f} ms)\n"
    )
    report("kernel_speedups", text)
    report_json(
        "BENCH_kernels",
        {
            "backend": kernels.BACKEND,
            "kernels": rows,
            "load_1m_points_ms": load_seconds * 1e3,
            "load_budget_ms": LOAD_BUDGET_SECONDS * 1e3,
            "speedup_gate": SPEEDUP_GATE,
        },
    )

    assert load_seconds < LOAD_BUDGET_SECONDS, (
        f"1M-point load took {load_seconds * 1e3:.1f} ms "
        f"(O(1) budget {LOAD_BUDGET_SECONDS * 1e3:.0f} ms)"
    )
    if kernels.BACKEND == "c":
        slow = [k for k, row in rows.items() if row["speedup"] < MIN_SPEEDUP]
        assert not slow, (
            f"{slow} read below {MIN_SPEEDUP}x their NumPy twin: "
            + ", ".join(f"{k}={row['speedup']:.2f}x" for k, row in rows.items())
        )
        fast = [k for k, row in rows.items() if row["speedup"] >= SPEEDUP_GATE]
        assert len(fast) >= MIN_FAST_KERNELS, (
            f"only {fast} beat the {SPEEDUP_GATE}x gate "
            f"(need {MIN_FAST_KERNELS}): "
            + ", ".join(f"{k}={row['speedup']:.2f}x" for k, row in rows.items())
        )
