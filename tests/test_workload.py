"""Tests for the mixed-workload generator and runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workload import WorkloadGenerator, run_workload
from repro.core.database import SpatialDatabase
from repro.datasets.synthetic import clustered_points
from repro.errors import ReproError
from repro.integrate.exact import ExactIntegrator


@pytest.fixture(scope="module")
def db():
    return SpatialDatabase(clustered_points(8_000, 2, seed=19))


class TestWorkloadGenerator:
    def test_queries_within_configured_ranges(self, db):
        generator = WorkloadGenerator(
            db, delta_range=(5.0, 20.0), theta_range=(0.01, 0.2), seed=1
        )
        for query in generator.batch(50):
            assert 5.0 <= query.delta <= 20.0
            assert 0.01 <= query.theta <= 0.2
            assert query.dim == 2

    def test_deterministic(self, db):
        a = WorkloadGenerator(db, seed=5).batch(10)
        b = WorkloadGenerator(db, seed=5).batch(10)
        for qa, qb in zip(a, b):
            np.testing.assert_array_equal(qa.center, qb.center)
            assert qa.delta == qb.delta and qa.theta == qb.theta

    def test_centers_are_data_points(self, db):
        generator = WorkloadGenerator(db, seed=2)
        all_points = {tuple(db.point(i)) for i in range(len(db))}
        for query in generator.batch(20):
            assert tuple(query.center) in all_points

    def test_validation(self, db):
        with pytest.raises(ReproError):
            WorkloadGenerator(db, delta_range=(5.0, 5.0))
        with pytest.raises(ReproError):
            WorkloadGenerator(db, theta_range=(0.0, 0.5))
        with pytest.raises(ReproError):
            WorkloadGenerator(db).batch(0)
        db9 = SpatialDatabase(np.random.default_rng(0).random((100, 9)))
        with pytest.raises(ReproError):
            WorkloadGenerator(db9)


class TestRunWorkload:
    def test_report_aggregates(self, db):
        generator = WorkloadGenerator(db, seed=3)
        report = run_workload(
            db, generator.batch(12), integrator=ExactIntegrator()
        )
        assert len(report.latencies) == 12
        assert report.percentile(50) <= report.percentile(95) <= report.percentile(99)
        assert report.queries_per_second > 0
        text = report.table().render()
        assert "p95 latency" in text
        assert "throughput" in text

    def test_phase_shares_sum_to_100(self, db):
        generator = WorkloadGenerator(db, seed=4)
        report = run_workload(db, generator.batch(6), integrator=ExactIntegrator())
        table = report.table()
        shares = [
            row[1] for row in table.rows if str(row[0]).startswith("phase")
        ]
        assert sum(shares) == pytest.approx(100.0)

    def test_default_sequential_integrator(self, db):
        generator = WorkloadGenerator(
            db, theta_range=(0.05, 0.2), delta_range=(10.0, 20.0), seed=6
        )
        report = run_workload(db, generator.batch(5))
        assert all(latency > 0 for latency in report.latencies)
        # The default is the importance sampler: sandwich-settled rows and
        # sampled rows, nothing else.
        assert set(report.tier_decisions) <= {"importance-sandwich", "importance"}
        assert sum(report.tier_decisions.values()) == sum(report.integrations)

    def test_empty_report_rejected(self):
        from repro.bench.workload import WorkloadReport

        with pytest.raises(ReproError):
            WorkloadReport().percentile(50)
