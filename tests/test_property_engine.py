"""Property-based end-to-end tests: the engine against the exact oracle.

Hypothesis generates random small databases, covariances and thresholds;
for every generated world and every strategy combination the engine (with
the exact integrator) must return exactly the set of objects whose true
qualification probability reaches θ.  A second property holds the
cascade's Ruben tier to the same oracle on both kernel backends.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.database import SpatialDatabase
from repro.core.strategies import STRATEGY_COMBINATIONS
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import (
    GaussianQuadraticForm,
    qualification_probability_exact,
)
from repro.integrate import CascadeIntegrator
from repro.integrate.cascade import MAX_TERMS, THETA_TOL, TOL
from repro.integrate.exact import ExactIntegrator

_VERIFY = importlib.util.spec_from_file_location(
    "verify", Path(__file__).parent.parent / "benchmarks" / "e2e" / "verify.py"
)
verify = importlib.util.module_from_spec(_VERIFY)
_VERIFY.loader.exec_module(verify)


@st.composite
def worlds(draw):
    """A random (points, gaussian, delta, theta) tuple in 2-D or 3-D."""
    dim = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n_points = draw(st.integers(20, 120))
    spread = draw(st.floats(5.0, 50.0))
    points = rng.standard_normal((n_points, dim)) * spread

    a = rng.standard_normal((dim, dim))
    sigma = a @ a.T + 0.5 * np.eye(dim)
    scale = draw(st.floats(0.5, 30.0))
    gaussian = Gaussian(rng.standard_normal(dim) * 5.0, scale * sigma)

    delta = draw(st.floats(1.0, 40.0))
    theta = draw(st.floats(0.005, 0.95))
    return points, gaussian, delta, theta


def oracle_ids(points, gaussian, delta, theta):
    probs = np.array(
        [
            qualification_probability_exact(gaussian, p, delta, method="ruben")
            for p in points
        ]
    )
    # Guard against decision-boundary ties: exact CDF and engine should
    # agree bit-for-bit since both call the same function, so no epsilon.
    return tuple(sorted(int(i) for i in np.nonzero(probs >= theta)[0]))


class TestEngineMatchesOracle:
    @given(worlds(), st.sampled_from(sorted(STRATEGY_COMBINATIONS)))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exact_engine_equals_oracle(self, world, spec):
        points, gaussian, delta, theta = world
        db = SpatialDatabase(points)
        result = db.probabilistic_range_query(
            gaussian, delta, theta, strategies=spec, integrator=ExactIntegrator()
        )
        assert result.ids == oracle_ids(points, gaussian, delta, theta)

    @given(worlds())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_monotone_in_theta(self, world):
        points, gaussian, delta, _ = world
        db = SpatialDatabase(points)
        previous: set[int] | None = None
        for theta in (0.6, 0.3, 0.1, 0.02):
            ids = set(
                db.probabilistic_range_query(
                    gaussian, delta, theta, strategies="all",
                    integrator=ExactIntegrator(),
                ).ids
            )
            if previous is not None:
                assert previous <= ids  # smaller theta can only add objects
            previous = ids

    @given(worlds())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_monotone_in_delta(self, world):
        points, gaussian, _, theta = world
        db = SpatialDatabase(points)
        previous: set[int] | None = None
        for delta in (2.0, 8.0, 20.0, 50.0):
            ids = set(
                db.probabilistic_range_query(
                    gaussian, delta, theta, strategies="all",
                    integrator=ExactIntegrator(),
                ).ids
            )
            if previous is not None:
                assert previous <= ids  # larger delta can only add objects
            previous = ids


class TestOneDimensionalCrossValidation:
    """The full d-dimensional engine at d = 1 must agree with the
    closed-form 1-D solver (repro.core.oned)."""

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_engine_matches_closed_form(self, seed):
        from repro.core.oned import OneDimensionalDatabase

        rng = np.random.default_rng(seed)
        values = rng.random(300) * 100
        q = float(rng.uniform(0, 100))
        sigma = float(rng.uniform(0.5, 15.0))
        delta = float(rng.uniform(1.0, 25.0))
        theta = float(rng.uniform(0.02, 0.9))

        closed_form = OneDimensionalDatabase(values).probabilistic_range_query(
            q, sigma, delta, theta
        )
        db = SpatialDatabase(values[:, None])
        engine_result = db.probabilistic_range_query(
            Gaussian([q], [[sigma**2]]), delta, theta,
            strategies="all", integrator=ExactIntegrator(),
        )
        assert list(engine_result.ids) == closed_form


@st.composite
def ruben_blocks(draw):
    """A Gaussian with cond(Σ) up to 1e8, a δ, a θ down to 5e-324, and
    candidate rows whose total noncentrality Σnc reaches 5000, past the
    1400 where Ruben's leading weight exp(-Σnc/2) underflows unscaled."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spectrum = np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 8.0)), dim)
    spectrum *= draw(st.floats(0.01, 100.0))
    gaussian = Gaussian(np.zeros(dim), (basis * spectrum) @ basis.T)
    n_rows = draw(st.integers(1, 6))
    totals = np.array(
        [draw(st.floats(0.0, 5000.0)) for _ in range(n_rows)]
        + [draw(st.floats(1400.0, 5000.0))]
    )
    directions = rng.standard_normal((totals.size, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # Mahalanobis radius sqrt(Σnc) along each direction.
    points = (directions * np.sqrt(totals)[:, None]) @ (
        basis * np.sqrt(spectrum)
    ).T
    # δ near a far row's distance puts its probability anywhere in (0, 1).
    reach = float(np.linalg.norm(points[-1]))
    delta = draw(
        st.one_of(
            st.floats(0.8, 1.2).map(lambda f: f * reach),
            st.floats(0.1, 5.0).map(lambda f: f * float(np.sqrt(spectrum.max()))),
        )
    )
    theta = draw(
        st.one_of(
            st.sampled_from([5e-324, 1e-300, 1e-100, 1e-12]),
            st.floats(1e-9, 0.999),
        )
    )
    return gaussian, points, delta, theta


class TestCascadeMatchesOracle:
    """Every Ruben interval contains the oracle's probability, on both
    kernel backends, and ``CascadeIntegrator.decide`` takes the oracle's
    side of θ wherever the two are farther apart than the benchmark's
    verification tie band."""

    @given(ruben_blocks())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_ruben_intervals_contain_the_oracle(self, block):
        gaussian, points, delta, theta = block
        truth = np.array(
            [qualification_probability_exact(gaussian, p, delta) for p in points]
        )
        weights, ncs = GaussianQuadraticForm.squared_distance_spectrum(
            gaussian, points
        )
        clear = np.abs(truth - theta) > verify.TIE
        # Compiled (when built), then NumPy.
        for lib in dict.fromkeys((kernels._LIB, None)):
            with mock.patch.object(kernels, "_LIB", lib):
                lower, upper, _ = kernels.ruben_block(
                    weights,
                    np.ones_like(weights),
                    ncs,
                    delta * delta,
                    theta=theta,
                    tol=min(TOL, THETA_TOL * theta),
                    max_terms=MAX_TERMS,
                )
                accept, _, _ = CascadeIntegrator().decide(
                    gaussian, points, delta, theta
                )
            # The oracle resolves to 1e-10 (its Imhof path) at worst.
            assert np.all(lower <= truth + 1e-10)
            assert np.all(truth - 1e-10 <= upper)
            np.testing.assert_array_equal(accept[clear], (truth >= theta)[clear])
