"""Runners for every experiment in the paper's evaluation.

Each ``run_*`` function reproduces one table or figure and returns an
:class:`~repro.bench.harness.ExperimentTable` (plus raw data where a
benchmark wants to assert on it).  Paper experiment ↔ runner mapping:

========================  =============================================
Paper artifact            Runner
========================  =============================================
Table I  (query time)     :func:`run_strategy_grid` (``seconds`` field)
Table II (candidates)     :func:`run_strategy_grid` (``candidates``)
Fig. 13–16 (regions)      :func:`region_geometry`
§V-B-3 (sensitivity)      :func:`run_sensitivity_delta` / ``_theta`` / ``_shape``
Table III (9-D)           :func:`run_table3`
Fig. 17 (radial mass)     :func:`run_fig17`
========================  =============================================
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.harness import (
    ExperimentTable,
    load_corel_points,
    load_road_database,
    paper_sigma,
    random_query_centers,
)
from repro.catalog.rtheta import ExactRThetaLookup
from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.core.strategies import (
    BoundingFunctionStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
    make_strategies,
)
from repro.gaussian.distribution import Gaussian
from repro.gaussian.radial import radial_cdf, r_theta
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.exact import ExactIntegrator
from repro.integrate.importance import ImportanceSamplingIntegrator
from repro.integrate.result import IntegrationResult

__all__ = [
    "StrategyGridResult",
    "run_strategy_grid",
    "run_candidate_grid",
    "region_geometry",
    "run_region_tables",
    "run_fig17",
    "run_table3",
    "run_sensitivity_delta",
    "run_sensitivity_theta",
    "run_sensitivity_shape",
    "run_ablation_integrators",
    "run_ablation_catalog_resolution",
    "run_ablation_index_backends",
]

#: Paper's configuration order for Tables I/II/III.
SPEC_ORDER = ("rr", "bf", "rr+bf", "rr+or", "bf+or", "all")


class _CountOnlyIntegrator(ProbabilityIntegrator):
    """Phase-3 stub that answers 0 instantly — used when an experiment only
    needs candidate *counts* (Tables II, III and the sensitivity sweeps)."""

    name = "count-only"

    def qualification_probability(self, gaussian, point, delta):
        return IntegrationResult(0.0, 0.0, 0, self.name)


class _FixedBudgetSampler(ImportanceSamplingIntegrator):
    """The paper's Phase 3 as Table I times it: every candidate gets the
    full ``n_samples`` budget — no sandwich bounds, no early looks — so a
    strategy's time follows its candidate count alone."""

    decide = ProbabilityIntegrator.decide


# ----------------------------------------------------------------------
# Tables I and II
# ----------------------------------------------------------------------


@dataclass
class StrategyGridResult:
    """Raw per-(γ, spec) aggregates behind Tables I and II."""

    seconds: dict[tuple[float, str], float]
    candidates: dict[tuple[float, str], float]
    answers: dict[float, float]

    def table_time(self) -> ExperimentTable:
        table = ExperimentTable(
            "Table I — query processing time (seconds)",
            ["gamma"] + [s.upper() for s in SPEC_ORDER],
        )
        for gamma in sorted({g for g, _ in self.seconds}):
            table.add_row(
                gamma, *[self.seconds[(gamma, spec)] for spec in SPEC_ORDER]
            )
        return table

    def table_candidates(self) -> ExperimentTable:
        table = ExperimentTable(
            "Table II — number of candidates needing integration",
            ["gamma"] + [s.upper() for s in SPEC_ORDER] + ["ANS"],
        )
        for gamma in sorted({g for g, _ in self.candidates}):
            table.add_row(
                gamma,
                *[self.candidates[(gamma, spec)] for spec in SPEC_ORDER],
                self.answers[gamma],
            )
        return table


def run_strategy_grid(
    gammas=(1.0, 10.0, 100.0),
    *,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 5,
    n_samples: int = 100_000,
    seed: int = 0,
    database: SpatialDatabase | None = None,
) -> StrategyGridResult:
    """Run the paper's default 2-D experiment grid (Tables I and II).

    For every γ and every strategy combination, ``n_trials`` queries are
    issued from random data points; per-query wall time, Phase-3 candidate
    count and answer size are averaged.  ``n_samples`` is the importance
    sampling budget per candidate (the paper's 100,000; lower it for quick
    runs — candidate counts are unaffected).
    """
    db = database if database is not None else load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    seconds: dict[tuple[float, str], float] = {}
    candidates: dict[tuple[float, str], float] = {}
    answers: dict[float, float] = {}
    for gamma in gammas:
        sigma = paper_sigma(gamma)
        per_spec_time = {spec: 0.0 for spec in SPEC_ORDER}
        per_spec_cand = {spec: 0.0 for spec in SPEC_ORDER}
        answer_total = 0.0
        for trial, center in enumerate(centers):
            gaussian = Gaussian(center, sigma)
            for spec in SPEC_ORDER:
                engine = db.engine(
                    strategies=spec,
                    integrator=_FixedBudgetSampler(n_samples, seed=seed + trial),
                )
                start = time.perf_counter()
                result = engine.execute(
                    ProbabilisticRangeQuery(gaussian, delta, theta)
                )
                per_spec_time[spec] += time.perf_counter() - start
                per_spec_cand[spec] += result.stats.integrations
                if spec == "all":
                    answer_total += len(result)
        for spec in SPEC_ORDER:
            seconds[(gamma, spec)] = per_spec_time[spec] / n_trials
            candidates[(gamma, spec)] = per_spec_cand[spec] / n_trials
        answers[gamma] = answer_total / n_trials
    return StrategyGridResult(seconds, candidates, answers)


def run_candidate_grid(
    gammas=(1.0, 10.0, 100.0),
    *,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 5,
    seed: int = 0,
    database: SpatialDatabase | None = None,
    answer_samples: int = 100_000,
) -> StrategyGridResult:
    """Table II without timing cost: candidate counts via a counting stub,
    answer sizes via one shared importance-sampling pass per query."""
    db = database if database is not None else load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    counting = _CountOnlyIntegrator()
    candidates: dict[tuple[float, str], float] = {}
    answers: dict[float, float] = {}
    for gamma in gammas:
        sigma = paper_sigma(gamma)
        per_spec = {spec: 0.0 for spec in SPEC_ORDER}
        answer_total = 0.0
        for trial, center in enumerate(centers):
            gaussian = Gaussian(center, sigma)
            query = ProbabilisticRangeQuery(gaussian, delta, theta)
            for spec in SPEC_ORDER:
                engine = db.engine(strategies=spec, integrator=counting)
                per_spec[spec] += engine.execute(query).stats.integrations
            shared = ImportanceSamplingIntegrator(
                answer_samples, seed=seed + trial, share_samples=True
            )
            engine = db.engine(strategies="all", integrator=shared)
            answer_total += len(engine.execute(query))
        for spec in SPEC_ORDER:
            candidates[(gamma, spec)] = per_spec[spec] / n_trials
        answers[gamma] = answer_total / n_trials
    return StrategyGridResult({}, candidates, answers)


# ----------------------------------------------------------------------
# Figures 13–16: integration-region geometry
# ----------------------------------------------------------------------


def region_geometry(
    gamma: float,
    *,
    delta: float = 25.0,
    theta: float = 0.01,
    center=(500.0, 500.0),
    mc_points: int = 200_000,
    seed: int = 0,
) -> dict[str, float]:
    """The region measurements drawn in Figs. 13–16.

    Returns the RR box half-widths (the 23.4 / 15.3 labels of Fig. 13),
    the OR box half-widths along the ellipse axes, the BF radii α∥ / α⊥
    (Fig. 13's 46.9 / 15.6), and the areas of each strategy's integration
    region plus their intersection (the ALL region of Fig. 14, estimated
    by Monte Carlo over the joint bounding box).
    """
    sigma = paper_sigma(gamma)
    gaussian = Gaussian(np.asarray(center, dtype=float), sigma)
    query = ProbabilisticRangeQuery(gaussian, delta, theta)

    rr = RectilinearStrategy()
    oblique = ObliqueStrategy()
    bf = BoundingFunctionStrategy()
    for strategy in (rr, oblique, bf):
        strategy.prepare(query)

    w = np.sqrt(np.diag(sigma)) * ExactRThetaLookup(2).r_theta(theta)
    or_half = oblique.box.half_widths
    alpha_upper = bf.alpha_upper if bf.alpha_upper is not None else math.nan
    alpha_lower = bf.alpha_lower if bf.alpha_lower is not None else 0.0

    rr_area = rr.region.volume_2d()
    or_area = float(np.prod(2.0 * or_half))
    bf_area = math.pi * (alpha_upper**2 - alpha_lower**2)

    # The ALL region is the intersection minus BF's accept hole; measure it
    # by Monte Carlo over the intersection of the bounding boxes.
    rng = np.random.default_rng(seed)
    box = rr.search_rect().intersection(bf.search_rect())
    if box is None:
        all_area = 0.0
    else:
        samples = box.lows + rng.random((mc_points, 2)) * box.extents
        inside = (
            rr.region.contains_points(samples)
            & oblique.box.contains_points(samples)
        )
        gaps = samples - gaussian.mean
        distances = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
        inside &= distances <= alpha_upper
        inside &= distances > alpha_lower
        all_area = float(np.count_nonzero(inside)) / mc_points * box.volume()

    return {
        "rr_half_width_x": float(w[0]),
        "rr_half_width_y": float(w[1]),
        "or_half_width_major": float(or_half[0]),
        "or_half_width_minor": float(or_half[1]),
        "bf_alpha_upper": float(alpha_upper),
        "bf_alpha_lower": float(alpha_lower),
        "rr_area": rr_area,
        "or_area": or_area,
        "bf_area": bf_area,
        "all_area": all_area,
        "delta": delta,
    }


def run_region_tables(
    gammas=(1.0, 10.0, 100.0), *, delta: float = 25.0, theta: float = 0.01
) -> ExperimentTable:
    """Figs. 13–16 as one table: geometry per γ."""
    table = ExperimentTable(
        "Figs. 13-16 — integration region geometry (delta=%g, theta=%g)"
        % (delta, theta),
        [
            "gamma",
            "RR wx",
            "RR wy",
            "OR major",
            "OR minor",
            "BF a_par",
            "BF a_perp",
            "RR area",
            "OR area",
            "BF area",
            "ALL area",
        ],
    )
    for gamma in gammas:
        g = region_geometry(gamma, delta=delta, theta=theta)
        table.add_row(
            gamma,
            g["rr_half_width_x"],
            g["rr_half_width_y"],
            g["or_half_width_major"],
            g["or_half_width_minor"],
            g["bf_alpha_upper"],
            g["bf_alpha_lower"],
            g["rr_area"],
            g["or_area"],
            g["bf_area"],
            g["all_area"],
        )
    table.note("paper Fig. 13 (gamma=10): RR 23.4/15.3, BF radii 46.9/15.6, delta 25")
    table.note("paper Fig. 15 (gamma=1): labels 10.7, 4.8, 7.4, 32.0")
    table.note("paper Fig. 16 (gamma=100): labels 92.8, 48.5, 74.1, 30.9")
    return table


# ----------------------------------------------------------------------
# Figure 17: probability of existence vs radius
# ----------------------------------------------------------------------


def run_fig17(
    dims=(2, 3, 5, 9, 15), radii=None
) -> tuple[ExperimentTable, dict[int, np.ndarray]]:
    """The radial mass curves of Fig. 17 (one per dimensionality)."""
    r = np.linspace(0.0, 6.0, 25) if radii is None else np.asarray(radii, float)
    curves = {d: radial_cdf(d, r) for d in dims}
    table = ExperimentTable(
        "Fig. 17 — probability of existence within a radius",
        ["radius"] + [f"{d}D" for d in dims],
    )
    for i, radius in enumerate(r):
        table.add_row(float(radius), *[float(curves[d][i]) for d in dims])
    table.note("paper anchors: 2D mass(1)=0.39; 9D mass(2)=0.09")
    return table, curves


# ----------------------------------------------------------------------
# Table III: the 9-D pseudo-feedback experiment
# ----------------------------------------------------------------------


def pseudo_feedback_gaussian(
    points: np.ndarray, database: SpatialDatabase, query_index: int, k: int = 20
) -> Gaussian:
    """Σ = Σ̃(k-NN) + κI with κ = |Σ̃|^{1/9} (Section VI-A, Eq. 35)."""
    center = points[query_index]
    neighbor_ids = [obj_id for obj_id, _ in database.knn(center, k)]
    samples = points[np.asarray(neighbor_ids)]
    mean = samples.mean(axis=0)
    centred = samples - mean
    sigma_tilde = centred.T @ centred / samples.shape[0]
    det = float(np.linalg.det(sigma_tilde))
    dim = points.shape[1]
    kappa = det ** (1.0 / dim) if det > 0 else float(np.trace(sigma_tilde) / dim)
    return Gaussian(center, sigma_tilde + kappa * np.eye(dim))


def run_table3(
    *,
    n_trials: int = 10,
    k: int = 20,
    delta: float = 0.7,
    theta: float = 0.4,
    seed: int = 0,
    points: np.ndarray | None = None,
) -> ExperimentTable:
    """The 9-D candidate-count experiment (Table III + §VI text anchors)."""
    data = points if points is not None else load_corel_points()
    database = SpatialDatabase(data)
    rng = np.random.default_rng(seed)
    picks = rng.choice(data.shape[0], size=n_trials, replace=False)

    counting = _CountOnlyIntegrator()
    per_spec = {spec: 0.0 for spec in SPEC_ORDER}
    or_region_total = 0.0
    answers_total = 0.0
    center_prob_total = 0.0
    exact = ExactIntegrator()

    for pick in picks:
        gaussian = pseudo_feedback_gaussian(data, database, int(pick), k)
        query = ProbabilisticRangeQuery(gaussian, delta, theta)
        for spec in SPEC_ORDER:
            engine = database.engine(strategies=spec, integrator=counting)
            result = engine.execute(query)
            per_spec[spec] += result.stats.integrations

        # Candidates inside the OR filter region alone (paper: 2,620).
        oblique = ObliqueStrategy()
        oblique.prepare(query)
        box_ids = database.index.range_search_rect(oblique.box.bounding_rect())
        if box_ids:
            box_points = np.vstack([database.point(i) for i in box_ids])
            or_region_total += float(
                np.count_nonzero(oblique.box.contains_points(box_points))
            )

        # Answer count (paper: 3.9 on average) via the tightest combo with
        # one shared 100k-sample importance-sampling pass (exact Imhof on
        # every 9-D candidate would dominate the bench's runtime).
        shared = ImportanceSamplingIntegrator(
            100_000, seed=seed + int(pick), share_samples=True
        )
        engine = database.engine(strategies="all", integrator=shared)
        answers_total += len(engine.execute(query))

        # Qualification probability of the query centre (paper: ~70 %).
        center_prob_total += exact.qualification_probability(
            gaussian, gaussian.mean, delta
        ).estimate

    table = ExperimentTable(
        "Table III — 9-D candidates (delta=%g, theta=%g, %d trials)"
        % (delta, theta, n_trials),
        [s.upper() for s in SPEC_ORDER] + ["ANS"],
    )
    table.add_row(
        *[per_spec[spec] / n_trials for spec in SPEC_ORDER],
        answers_total / n_trials,
    )
    table.note(f"OR-region candidate count: {or_region_total / n_trials:.0f} "
               "(paper: 2,620)")
    table.note(
        f"avg centre qualification probability: "
        f"{100 * center_prob_total / n_trials:.1f}% (paper: 70.0%)"
    )
    table.note(f"r_theta(9, {theta}) = {r_theta(9, theta):.2f} (paper: 2.32)")
    table.note("paper row: RR 3713, BF 3216, RR+BF 2468, RR+OR 1905, "
               "BF+OR 1998, ALL 1699, ANS 3.9")
    return table


# ----------------------------------------------------------------------
# §V-B-3: sensitivity sweeps (reported as text in the paper)
# ----------------------------------------------------------------------


def _sensitivity_table(
    title, label, values, make_query, n_trials, seed, note
) -> ExperimentTable:
    """Mean candidate counts per strategy spec along one swept axis.

    ``make_query(value)`` returns the ``(sigma, delta, theta)`` of the
    sweep point; every point runs at the same ``n_trials`` road centres.
    """
    db = load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    counting = _CountOnlyIntegrator()
    table = ExperimentTable(title, [label] + [s.upper() for s in SPEC_ORDER])
    for value in values:
        sigma, delta, theta = make_query(value)
        totals = {spec: 0.0 for spec in SPEC_ORDER}
        for center in centers:
            query = ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
            for spec in SPEC_ORDER:
                engine = db.engine(strategies=spec, integrator=counting)
                totals[spec] += engine.execute(query).stats.integrations
        table.add_row(value, *[totals[s] / n_trials for s in SPEC_ORDER])
    table.note(note)
    return table


def run_sensitivity_delta(
    deltas=(5.0, 10.0, 25.0, 50.0, 100.0),
    *,
    gamma: float = 10.0,
    theta: float = 0.01,
    n_trials: int = 5,
    seed: int = 0,
) -> ExperimentTable:
    """Candidate counts vs δ (§V-B-3 bullet 1)."""
    sigma = paper_sigma(gamma)
    return _sensitivity_table(
        "Sensitivity — candidates vs delta (gamma=%g, theta=%g)" % (gamma, theta),
        "delta", deltas, lambda delta: (sigma, delta, theta), n_trials, seed,
        "paper: combination more effective for small delta; RR ~ BF for "
        "large delta",
    )


def run_sensitivity_theta(
    thetas=(0.001, 0.01, 0.05, 0.1, 0.3),
    *,
    gamma: float = 10.0,
    delta: float = 25.0,
    n_trials: int = 5,
    seed: int = 0,
) -> ExperimentTable:
    """Candidate counts vs θ (§V-B-3 bullet 2)."""
    sigma = paper_sigma(gamma)
    return _sensitivity_table(
        "Sensitivity — candidates vs theta (gamma=%g, delta=%g)" % (gamma, delta),
        "theta", thetas, lambda theta: (sigma, delta, theta), n_trials, seed,
        "paper: costs barely move between theta=0.1 and theta=0.01 "
        "(exponential tails)",
    )


def run_sensitivity_shape(
    axis_ratios=(1.0, 2.0, 3.0, 6.0, 10.0),
    *,
    gamma_area: float = 210.0,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 5,
    seed: int = 0,
) -> ExperimentTable:
    """Candidate counts vs covariance shape (§V-B-3 bullet 3).

    The covariance is diagonal with eigenvalues (ratio·s, s) rotated 30°,
    scaled so its determinant (ellipse area) matches the default setting —
    isolating the *shape* effect from the *size* effect.
    """
    angle = math.radians(30.0)
    rotation = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )

    def equal_area(ratio: float):
        scale = gamma_area / math.sqrt(ratio)
        eigenvalues = np.array([ratio * scale, scale])
        return rotation @ np.diag(eigenvalues) @ rotation.T, delta, theta

    return _sensitivity_table(
        "Sensitivity — candidates vs axis ratio (equal-area covariances)",
        "ratio", axis_ratios, equal_area, n_trials, seed,
        "paper: near-spherical covariances equalize the strategies; "
        "thin ellipses favour the combination",
    )


# ----------------------------------------------------------------------
# Library ablations (beyond the paper): integrators, catalogs, indexes
# ----------------------------------------------------------------------


def run_ablation_integrators(
    budgets=(1_000, 10_000, 100_000),
    *,
    gamma: float = 10.0,
    delta: float = 25.0,
    seed: int = 0,
) -> ExperimentTable:
    """Accuracy/time of each stochastic integrator against the exact CDF.

    Evaluates one representative near-boundary candidate; reports absolute
    error and wall time per estimate.  Quantifies the paper's choice of
    importance sampling over plain Monte Carlo and our QMC extension.
    """
    from repro.integrate.antithetic import AntitheticImportanceSampler
    from repro.integrate.montecarlo import MonteCarloIntegrator
    from repro.integrate.qmc import QuasiMonteCarloIntegrator

    gaussian = Gaussian(np.array([500.0, 500.0]), paper_sigma(gamma))
    point = gaussian.mean + np.array([30.0, -15.0])
    truth = ExactIntegrator().qualification_probability(
        gaussian, point, delta
    ).estimate
    table = ExperimentTable(
        f"Ablation — integrator error vs budget (truth={truth:.6f})",
        ["n", "IS err", "IS ms", "MC err", "MC ms", "QMC err", "QMC ms",
         "AT err", "AT ms"],
    )
    for n in budgets:
        row: list[object] = [n]
        for factory in (
            lambda: ImportanceSamplingIntegrator(n, seed=seed),
            lambda: MonteCarloIntegrator(n, seed=seed),
            lambda: QuasiMonteCarloIntegrator(n, seed=seed),
            lambda: AntitheticImportanceSampler(n, seed=seed),
        ):
            integrator = factory()
            start = time.perf_counter()
            estimate = integrator.qualification_probability(
                gaussian, point, delta
            ).estimate
            elapsed = (time.perf_counter() - start) * 1e3
            row.extend([abs(estimate - truth), elapsed])
        table.add_row(*row)
    table.note("IS = the paper's importance sampling; QMC = randomized Halton; AT = antithetic pairs")
    return table


def run_ablation_catalog_resolution(
    resolutions=(3, 9, 33, 99),
    *,
    gamma: float = 10.0,
    delta: float = 25.0,
    theta: float = 0.0123,
    n_trials: int = 3,
    seed: int = 0,
) -> ExperimentTable:
    """RR candidate counts: exact r_θ lookup vs coarse U-catalogs.

    θ is deliberately chosen off every grid so the conservative fallback
    (Algorithm 1 line 4) engages; coarser catalogs retrieve strictly more.
    """
    from repro.catalog.rtheta import RThetaCatalog

    db = load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    counting = _CountOnlyIntegrator()
    sigma = paper_sigma(gamma)
    table = ExperimentTable(
        "Ablation — RR candidates vs r_theta catalog resolution",
        ["lookup", "candidates", "r_theta used"],
    )

    def run_with(lookup) -> float:
        total = 0.0
        for center in centers:
            query = ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
            strategy = RectilinearStrategy(lookup)
            engine = db.engine(strategies=[strategy], integrator=counting)
            total += engine.execute(query).stats.integrations
        return total / n_trials

    exact_lookup = ExactRThetaLookup(2)
    table.add_row("exact", run_with(exact_lookup), exact_lookup.r_theta(theta))
    for resolution in resolutions:
        # Geometric theta grid so even the coarsest catalog reaches below
        # the query theta (uniform grids would have no conservative entry).
        catalog = RThetaCatalog.build_analytic(
            2, np.geomspace(1e-4, 0.4999, resolution)
        )
        table.add_row(
            f"catalog/{resolution}", run_with(catalog), catalog.r_theta(theta)
        )
    table.note("coarser catalogs choose smaller theta* => larger boxes => "
               "more candidates; results stay exact")
    return table


def run_ablation_index_backends(
    *,
    gamma: float = 10.0,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 3,
    n_samples: int = 20_000,
    seed: int = 0,
) -> ExperimentTable:
    """Phase timing per index backend, verifying the paper's claim that
    Phase 3 dominates (>= 97 % of time) regardless of the index."""
    from repro.geometry.mbr import Rect
    from repro.index.grid import GridIndex
    from repro.index.linear import LinearScanIndex
    from repro.index.rtree import RStarTree

    road = load_road_database()
    points = np.vstack([road.point(i) for i in range(len(road))])
    centers = random_query_centers(road, n_trials, seed)
    table = ExperimentTable(
        "Ablation — phase time (ms) per index backend",
        ["index", "search", "filter", "integrate", "phase3 %"],
    )
    backends = {
        "rstar": RStarTree(2),
        "grid": GridIndex(Rect([0.0, 0.0], [1000.0, 1000.0]), 64),
        "linear": LinearScanIndex(2),
    }
    for name, index in backends.items():
        db = SpatialDatabase(points, index=index)
        phase_totals = {"search": 0.0, "filter": 0.0, "integrate": 0.0}
        for trial, center in enumerate(centers):
            gaussian = Gaussian(center, paper_sigma(gamma))
            engine = db.engine(
                strategies="all",
                integrator=_FixedBudgetSampler(n_samples, seed=seed + trial),
            )
            stats = engine.execute(
                ProbabilisticRangeQuery(gaussian, delta, theta)
            ).stats
            for phase in phase_totals:
                phase_totals[phase] += stats.phase_seconds.get(phase, 0.0)
        total = sum(phase_totals.values())
        table.add_row(
            name,
            phase_totals["search"] * 1e3 / n_trials,
            phase_totals["filter"] * 1e3 / n_trials,
            phase_totals["integrate"] * 1e3 / n_trials,
            100.0 * phase_totals["integrate"] / total if total else 0.0,
        )
    table.note("paper: 'at least 97% of the total processing time was taken "
               "up with numerical integration'")
    return table


def run_ablation_sequential(
    *,
    gamma: float = 10.0,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 3,
    max_samples: int = 100_000,
    seed: int = 0,
) -> ExperimentTable:
    """The sampler's decision-aware ``decide`` vs the paper's fixed budget.

    Both evaluate the same candidates; ``ImportanceSamplingIntegrator``
    settles rows by sandwich bounds first and stops each sampled row as
    soon as the θ-decision is statistically clear, spending the full
    budget only near the boundary.
    """
    db = load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    table = ExperimentTable(
        "Ablation — sequential vs fixed Phase-3 sampling budgets",
        ["mode", "candidates", "samples (M)", "answers", "seconds"],
    )
    sigma = paper_sigma(gamma)
    for mode in ("fixed", "sequential"):
        total_candidates = total_samples = total_answers = 0.0
        total_seconds = 0.0
        sampler = (
            _FixedBudgetSampler if mode == "fixed" else ImportanceSamplingIntegrator
        )
        for trial, center in enumerate(centers):
            integrator = sampler(max_samples, seed=seed + trial)
            engine = db.engine(strategies="all", integrator=integrator)
            start = time.perf_counter()
            result = engine.execute(
                ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
            )
            total_seconds += time.perf_counter() - start
            total_candidates += result.stats.integrations
            total_samples += result.stats.integration_samples
            total_answers += len(result)
        table.add_row(
            mode,
            total_candidates / n_trials,
            total_samples / n_trials / 1e6,
            total_answers / n_trials,
            total_seconds / n_trials,
        )
    table.note("identical candidates; sequential settles rows by sandwich "
               "bounds, then stops early once the theta-decision is clear")
    return table


def run_ablation_lookup_fidelity(
    *,
    gamma: float = 10.0,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 3,
    seed: int = 0,
) -> ExperimentTable:
    """Exact closed-form lookups vs the paper's Monte Carlo U-catalogs.

    Quantifies the deviation documented in EXPERIMENTS.md: the paper built
    its r_θ and α tables by sampling, and conservative lookup semantics
    make a coarse catalog retrieve and integrate more.  The BF inner
    acceptance radius suffers most (it shrinks under conservative lookup),
    which is exactly why the paper's BF looks weaker than ours.
    """
    from repro.catalog.bf import BFCatalog
    from repro.catalog.rtheta import RThetaCatalog
    from repro.core.strategies import make_strategies

    db = load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    counting = _CountOnlyIntegrator()
    sigma = paper_sigma(gamma)

    mc_rtheta = RThetaCatalog.build_monte_carlo(
        2, np.geomspace(1e-3, 0.4999, 24), n_samples=100_000, seed=seed
    )
    mc_bf = BFCatalog.build_monte_carlo(
        2,
        deltas=np.geomspace(0.2, 12.0, 14),
        thetas=np.geomspace(1e-5, 0.9, 14),
        n_samples=100_000,
        seed=seed,
    )
    table = ExperimentTable(
        "Ablation — exact lookups vs MC-built U-catalogs (paper-faithful)",
        ["lookups", "RR+BF+OR candidates", "accepted free"],
    )
    for label, rtheta_lookup, bf_lookup in (
        ("exact", None, None),
        ("mc-catalogs", mc_rtheta, mc_bf),
    ):
        total_candidates = total_free = 0.0
        for center in centers:
            strategies = make_strategies(
                "all", rtheta_lookup=rtheta_lookup, bf_lookup=bf_lookup
            )
            engine = db.engine(strategies=strategies, integrator=counting)
            stats = engine.execute(
                ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
            ).stats
            total_candidates += stats.integrations
            total_free += stats.accepted_without_integration
        table.add_row(label, total_candidates / n_trials, total_free / n_trials)
    table.note("conservative catalog lookups inflate the integration load — "
               "the regime the paper operated in")
    return table


def run_3d_fringe_extension(
    *,
    n_points: int = 30_000,
    delta: float = 20.0,
    theta: float = 0.01,
    n_trials: int = 3,
    seed: int = 0,
) -> ExperimentTable:
    """Our d >= 3 extension of the RR fringe filter, quantified in 3-D.

    The paper disables the Minkowski fringe test beyond d = 2
    ("computation of fringe part is not easy for d >= 3"); with the
    distance-to-box formulation it is exact in any dimension.  This
    experiment compares candidate counts with the filter in paper mode
    (off for d = 3) and exact mode on clustered 3-D data.
    """
    from repro.datasets.synthetic import clustered_points

    points = clustered_points(
        n_points, 3, n_clusters=25, spread=40.0, seed=seed
    )
    db = SpatialDatabase(points)
    rng = np.random.default_rng(seed + 1)
    centers = points[rng.choice(n_points, size=n_trials, replace=False)]
    counting = _CountOnlyIntegrator()
    # An anisotropic, tilted 3-D covariance (axis ratio ~ 5:2:1).
    base = np.diag([250.0, 100.0, 50.0])
    rotation, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    sigma = rotation @ base @ rotation.T

    table = ExperimentTable(
        "Extension — RR fringe filter in 3-D (paper mode vs exact mode)",
        ["fringe", "RR candidates", "ALL candidates"],
    )
    for mode in ("paper", "exact"):
        rr_total = all_total = 0.0
        for center in centers:
            query = ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
            for spec, bucket in (("rr", "rr"), ("all", "all")):
                strategies = make_strategies(spec, fringe_filter=mode)
                engine = db.engine(strategies=strategies, integrator=counting)
                count = engine.execute(query).stats.integrations
                if bucket == "rr":
                    rr_total += count
                else:
                    all_total += count
        table.add_row(mode, rr_total / n_trials, all_total / n_trials)
    table.note("'paper' disables the fringe test beyond d=2; 'exact' uses "
               "dist(point, box) <= delta, valid in any dimension")
    return table


def run_ablation_em_strategy(
    gammas=(1.0, 10.0, 100.0),
    *,
    delta: float = 25.0,
    theta: float = 0.01,
    n_trials: int = 3,
    seed: int = 0,
) -> ExperimentTable:
    """Our EM (ellipsoid-Minkowski) filter against the paper's combinations.

    EM tests candidates against the θ-region ⊕ δ-ball directly (sound by
    the same point-symmetry argument as Fig. 3), a region contained in
    both the RR and OR regions — the geometric limit of that filter
    family.  EM+BF should therefore never integrate more than ALL.
    """
    db = load_road_database()
    centers = random_query_centers(db, n_trials, seed)
    counting = _CountOnlyIntegrator()
    specs = ("rr+or", "all", "em", "em+bf")
    table = ExperimentTable(
        "Ablation — EM (theta-region + delta ball) filter vs paper combos",
        ["gamma"] + [s.upper() for s in specs],
    )
    for gamma in gammas:
        sigma = paper_sigma(gamma)
        totals = {spec: 0.0 for spec in specs}
        for center in centers:
            query = ProbabilisticRangeQuery(Gaussian(center, sigma), delta, theta)
            for spec in specs:
                engine = db.engine(strategies=spec, integrator=counting)
                totals[spec] += engine.execute(query).stats.integrations
        table.add_row(gamma, *[totals[s] / n_trials for s in specs])
    table.note("EM region ⊆ RR ∩ OR regions; EM+BF is the tightest "
               "configuration this library offers")
    return table
