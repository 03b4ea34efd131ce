"""Mixed-workload throughput measurement.

The paper evaluates one query configuration at a time; a deployed system
sees a *mix* — different uncertainties, ranges and thresholds arriving
together.  :class:`WorkloadGenerator` draws query specs from configurable
distributions and :func:`run_workload` executes them through one engine,
reporting latency percentiles and the per-phase breakdown — the numbers a
capacity planner actually needs.

``run_workload(..., workers=k)`` routes the batch through
:meth:`QueryEngine.run_batch` instead of the per-query loop: one engine,
per-query forked RNG streams, and the vectorised shared-batch Phase-3
sampler.  ``WorkloadGenerator(quantize=n)`` snaps δ and θ onto n-level
log grids — the realistic production shape (applications expose a fixed
menu of ranges/confidences), and what lets the preparation LRU caches
(eigendecompositions, r_θ, BF α root-finds) hit across queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import ExperimentTable, paper_sigma
from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.errors import ReproError
from repro.gaussian.distribution import Gaussian
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.importance import ImportanceSamplingIntegrator

__all__ = ["WorkloadGenerator", "WorkloadReport", "run_workload"]


class WorkloadGenerator:
    """Draws random PRQ specs against a database.

    Parameters
    ----------
    database:
        Query centres are sampled from the stored objects (the paper's
        protocol).
    gamma_choices, delta_range, theta_range:
        Distributions of the query parameters: γ uniform over the given
        choices, δ log-uniform over its range, θ log-uniform over its
        range.
    quantize:
        When set, δ and θ are snapped to log-spaced grids of this many
        levels inside their ranges.  Production systems expose a fixed
        menu of ranges and confidence levels rather than a continuum;
        quantized workloads also exercise the preparation LRU caches.
    seed:
        Generator seed.
    """

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        gamma_choices=(1.0, 10.0, 100.0),
        delta_range=(10.0, 50.0),
        theta_range=(0.005, 0.3),
        quantize: int | None = None,
        seed: int = 0,
    ):
        if database.dim != 2:
            raise ReproError(
                "WorkloadGenerator uses the paper's 2-D covariance family; "
                f"got a {database.dim}-D database"
            )
        if not delta_range[0] < delta_range[1] or delta_range[0] <= 0:
            raise ReproError(f"bad delta_range {delta_range}")
        if not 0 < theta_range[0] < theta_range[1] < 1:
            raise ReproError(f"bad theta_range {theta_range}")
        if quantize is not None and quantize < 2:
            raise ReproError(f"quantize needs >= 2 levels, got {quantize}")
        self._database = database
        self._gammas = tuple(gamma_choices)
        self._delta_range = delta_range
        self._theta_range = theta_range
        self._delta_grid = (
            np.geomspace(*delta_range, quantize) if quantize else None
        )
        self._theta_grid = (
            np.geomspace(*theta_range, quantize) if quantize else None
        )
        self._rng = np.random.default_rng(seed)

    @staticmethod
    def _snap(value: float, grid: np.ndarray | None) -> float:
        if grid is None:
            return value
        return float(grid[np.argmin(np.abs(np.log(grid) - np.log(value)))])

    def next_query(self) -> ProbabilisticRangeQuery:
        center = self._database.point(
            int(self._rng.integers(len(self._database)))
        )
        gamma = float(self._rng.choice(self._gammas))
        delta = self._snap(
            float(np.exp(self._rng.uniform(*np.log(self._delta_range)))),
            self._delta_grid,
        )
        theta = self._snap(
            float(np.exp(self._rng.uniform(*np.log(self._theta_range)))),
            self._theta_grid,
        )
        return ProbabilisticRangeQuery(
            Gaussian(center, paper_sigma(gamma)), delta, theta
        )

    def batch(self, count: int) -> list[ProbabilisticRangeQuery]:
        if count < 1:
            raise ReproError(f"count must be >= 1, got {count}")
        return [self.next_query() for _ in range(count)]


@dataclass
class WorkloadReport:
    """Latency and workload aggregates over a batch of queries."""

    latencies: list[float] = field(default_factory=list)
    integrations: list[int] = field(default_factory=list)
    answers: list[int] = field(default_factory=list)
    #: Per-query result id tuples, input order — for cross-integrator
    #: result-set identity checks.
    result_ids: list[tuple[int, ...]] = field(default_factory=list)
    #: Phase-3 decision counts keyed by evaluator method (the cascade's
    #: per-tier breakdown), summed over the batch.
    tier_decisions: dict[str, int] = field(default_factory=dict)
    phase_totals: dict[str, float] = field(default_factory=dict)
    #: Per-query planner decisions (input order): strategy combo chosen
    #: and actual Phase-3 candidate count.  Empty when the engine has no
    #: planner attached.
    plans: list[dict] = field(default_factory=list)
    #: End-to-end batch wall time; None on the legacy per-query path,
    #: where per-query latencies are the only timing available.
    wall_seconds: float | None = None
    workers: int = 1

    def percentile(self, q: float) -> float:
        if not self.latencies:
            raise ReproError("empty report")
        return float(np.percentile(self.latencies, q))

    @property
    def total_seconds(self) -> float:
        """Batch wall time: measured end-to-end when available, else the
        sum of per-query latencies (the sequential path's wall time)."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        return sum(self.latencies)

    @property
    def queries_per_second(self) -> float:
        total = self.total_seconds
        return len(self.latencies) / total if total > 0 else float("inf")

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            f"Workload — {len(self.latencies)} mixed queries",
            ["metric", "value"],
        )
        table.add_row("p50 latency (ms)", self.percentile(50) * 1e3)
        table.add_row("p95 latency (ms)", self.percentile(95) * 1e3)
        table.add_row("p99 latency (ms)", self.percentile(99) * 1e3)
        table.add_row("throughput (qps)", self.queries_per_second)
        if self.wall_seconds is not None:
            table.add_row("workers", self.workers)
            table.add_row("batch wall (s)", self.wall_seconds)
        table.add_row("mean integrations", float(np.mean(self.integrations)))
        table.add_row("mean answers", float(np.mean(self.answers)))
        total_phase = sum(self.phase_totals.values())
        for phase, seconds in sorted(self.phase_totals.items()):
            share = 100.0 * seconds / total_phase if total_phase else 0.0
            table.add_row(f"phase {phase} share (%)", share)
        return table


def _record_plan(report: WorkloadReport, stats) -> None:
    """Append one query's planner decision to the report, if planned."""
    if stats.plan_strategies is None:
        return
    report.plans.append(
        {
            "strategies": "+".join(stats.plan_strategies),
            "actual_phase3": stats.integrations,
        }
    )


def run_workload(
    database: SpatialDatabase,
    queries,
    *,
    strategies: str = "all",
    integrator: ProbabilityIntegrator | None = None,
    workers: int | None = None,
    base_seed: int = 0,
    obs=None,
) -> WorkloadReport:
    """Execute a query batch through one engine and aggregate statistics.

    The default Phase-3 evaluator is the importance sampler with a
    50,000-draw budget, which settles rows by sandwich bounds first and
    samples the rest on a staged budget.

    With ``workers=None`` (default) queries run through the legacy
    per-query loop.  Any integer routes the batch through
    :meth:`QueryEngine.run_batch` with that many worker threads and the
    *vectorised* shared-samples mode of that sampler (or per-query forks
    of ``integrator`` when one is supplied); per-query results are
    bit-identical for every worker count.

    ``obs`` attaches a :class:`repro.obs.Observability` sink to the
    engine(s): the whole workload lands in one trace/registry, and the
    report is unchanged (observability never affects results).
    """
    report = WorkloadReport()
    if workers is not None:
        engine = database.engine(
            strategies=strategies,
            integrator=integrator
            or ImportanceSamplingIntegrator(50_000, share_samples=True),
            obs=obs,
        )
        batch = engine.run_batch(
            list(queries), workers=workers, base_seed=base_seed
        )
        report.workers = workers
        report.wall_seconds = batch.stats.wall_seconds
        for result in batch:
            report.latencies.append(result.stats.total_seconds)
            report.integrations.append(result.stats.integrations)
            report.answers.append(len(result))
            report.result_ids.append(result.ids)
            _record_plan(report, result.stats)
        report.phase_totals = dict(batch.stats.phase_seconds)
        report.tier_decisions = dict(batch.stats.tier_decisions)
        return report
    for query in queries:
        engine = database.engine(
            strategies=strategies,
            integrator=integrator or ImportanceSamplingIntegrator(50_000),
            obs=obs,
        )
        result = engine.execute(query)
        report.latencies.append(result.stats.total_seconds)
        report.integrations.append(result.stats.integrations)
        report.answers.append(len(result))
        report.result_ids.append(result.ids)
        _record_plan(report, result.stats)
        for method, count in result.stats.tier_decisions.items():
            report.tier_decisions[method] = (
                report.tier_decisions.get(method, 0) + count
            )
        for phase, seconds in result.stats.phase_seconds.items():
            report.phase_totals[phase] = (
                report.phase_totals.get(phase, 0.0) + seconds
            )
    return report
