"""Seeded reproducibility of the Monte-Carlo estimates.

The batch path memoizes per-shape radius inversions (r_theta and alpha
lookups) behind LRU caches.  Those caches are pure
value caches: whether a call hits or misses must never change which
random numbers a query's integrator consumes.  These tests pin that down
by comparing fresh-engine runs against each other and against runs with
deliberately cleared caches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workload import WorkloadGenerator
from repro.core.database import SpatialDatabase
from repro.core.engine import BatchResult
from repro.gaussian import radial
from repro.integrate.importance import ImportanceSamplingIntegrator


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    rng = np.random.default_rng(42)
    return SpatialDatabase(rng.random((3000, 2)) * 800.0)


@pytest.fixture(scope="module")
def workload(database):
    # quantize= gives repeated (delta, theta) shapes, so the LRU caches
    # actually get hits within the batch.
    return WorkloadGenerator(database, seed=13, quantize=4).batch(10)


def adaptive_factory(query, seed):
    return ImportanceSamplingIntegrator(30_000, seed=seed, share_samples=True)


def run_fresh(database, workload, *, workers: int = 1) -> BatchResult:
    """A brand-new engine over the same workload."""
    return database.engine().run_batch(
        workload, workers=workers, base_seed=77, integrator_factory=adaptive_factory
    )


def fingerprint(batch: BatchResult):
    return (
        batch.ids,
        batch.stats.integration_samples,
        batch.stats.integrations,
        tuple(sorted(batch.stats.rejected_by_filter.items())),
    )


def clear_prep_caches() -> None:
    radial.r_theta.cache_clear()
    radial.alpha_for_mass.cache_clear()


def test_same_seed_two_fresh_engines(database, workload):
    assert fingerprint(run_fresh(database, workload)) == fingerprint(
        run_fresh(database, workload)
    )


def test_cold_and_warm_caches_agree(database, workload):
    """A cache hit must not perturb the RNG streams.

    First run starts from cleared caches (all misses), second run reuses
    the now-warm caches (all hits).  Any cache that consumed or reseeded
    randomness on miss would break this equality.
    """
    clear_prep_caches()
    cold = run_fresh(database, workload)
    assert radial.r_theta.cache_info().currsize > 0
    warm = run_fresh(database, workload)
    assert fingerprint(cold) == fingerprint(warm)


def test_cache_hits_actually_happen(database, workload):
    """The quantized workload reuses shapes, so the LRUs must hit."""
    clear_prep_caches()
    run_fresh(database, workload)
    assert radial.r_theta.cache_info().hits > 0


def test_worker_count_does_not_change_estimates(database, workload):
    baseline = fingerprint(run_fresh(database, workload, workers=1))
    for workers in (2, 3):
        assert fingerprint(run_fresh(database, workload, workers=workers)) == (
            baseline
        )


def test_different_seed_changes_sampling(database, workload):
    """Sanity: the seed actually reaches the integrators (the staged
    budget stops rows at different looks under a different base seed)."""
    a = database.engine().run_batch(
        workload, base_seed=1, integrator_factory=adaptive_factory
    )
    b = database.engine().run_batch(
        workload, base_seed=2, integrator_factory=adaptive_factory
    )
    assert a.stats.integration_samples != b.stats.integration_samples
