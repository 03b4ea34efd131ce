"""The ``repro.kernels`` dispatch layer: backend selection, parity, soundness.

The contract (docs/architecture.md): classify kernels are bit-identical
across backends; the Ruben kernel returns [lower, upper] bounds that
always contain the fallback's, at most marginally wider on the compiled
backend (never tighter than sound); the χ² sandwich is SciPy's on both
backends, with the trivial bound where SciPy returns NaN.
``REPRO_NO_JIT=1`` must pin the NumPy fallback for a whole process
regardless of compiler availability.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from repro import kernels
from repro.errors import IntegrationError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import (
    GaussianQuadraticForm,
    chi2_sandwich_bounds,
    chi2_sandwich_bounds_block,
    qualification_probability_exact,
    ruben_cdf,
)
from repro.integrate.cascade import CascadeIntegrator
from repro.integrate.importance import ImportanceSamplingIntegrator
from repro.kernels import fallback

RNG = np.random.default_rng(20260808)


def random_spectrum(d: int, seed: int):
    rng = np.random.default_rng(seed)
    mean = rng.uniform(-50.0, 50.0, d)
    a = rng.standard_normal((d, d))
    eigvals, basis = np.linalg.eigh(a @ a.T + d * np.eye(d))
    return mean, basis, eigvals


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_backend_is_reported_consistently():
    assert kernels.backend() == kernels.BACKEND in ("c", "numpy")
    table = kernels.kernel_table()
    assert [row["kernel"] for row in table] == [
        "squared_distance_noncentralities",
        "chi2_sandwich_block",
        "chi2_sandwich_block_f32",
        "ruben_block",
        "minkowski_contains",
        "oblique_contains",
        "bf_classify",
    ]
    for row in table:
        if row["kernel"].startswith("chi2_sandwich_block"):
            assert row["backend"] == "scipy"
        elif row["kernel"] == "squared_distance_noncentralities":
            assert row["backend"] == "numpy"
        else:
            assert row["backend"] == kernels.BACKEND


def test_no_jit_env_pins_numpy_backend():
    """A fresh interpreter under REPRO_NO_JIT=1 must select the fallback."""
    env = dict(os.environ, REPRO_NO_JIT="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "from repro import kernels; print(kernels.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.stdout.strip() == "numpy"


# ----------------------------------------------------------------------
# Quadratic-form kernels: parity / soundness against SciPy
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_squared_distance_noncentralities_matches_fallback(d):
    mean, basis, eigvals = random_spectrum(d, d)
    points = mean + 30.0 * RNG.standard_normal((64, d))
    got = kernels.squared_distance_noncentralities(mean, basis, eigvals, points)
    ref = fallback.squared_distance_noncentralities(mean, basis, eigvals, points)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


#: Σ = diag(1e8, 1) centred at 0, and (point, δ) rows where SciPy's
#: ``chndtr`` returns NaN for the upper sandwich bound; the oracle reads
#: 0.2605 and 0.4725.
NAN_HOLE_GAUSSIAN = Gaussian(np.zeros(2), np.diag([1e8, 1.0]))
NAN_HOLE_ROWS = (((0.0, 3.16e5), 3.16e5), ((0.0, 1e6), 1e6))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_chi2_sandwich_block_sound_and_tight_vs_scipy():
    rng = np.random.default_rng(5)
    for _ in range(40):
        df = float(rng.integers(1, 10))
        x = float(rng.uniform(0.01, 3000.0))
        ncs = rng.uniform(0.0, 5000.0, 48)
        lam_min, lam_max = sorted(rng.uniform(0.1, 6.0, 2))
        out = kernels.chi2_sandwich_block(x, df, ncs, lam_min, lam_max)
        ref_lo = stats.ncx2.cdf(x / lam_max, df, ncs)
        ref_hi = stats.ncx2.cdf(x / lam_min, df, ncs)
        # Sound: never tighter than the SciPy truth...
        assert np.all(out[:, 0] <= ref_lo + 1e-15)
        assert np.all(out[:, 1] >= ref_hi - 1e-15)
        # ...and tight: within 1e-10 of it.
        assert np.all(ref_lo - out[:, 0] <= 1e-10)
        assert np.all(out[:, 1] - ref_hi <= 1e-10)
    # Where SciPy has no value the bounds stay finite and sound.
    g = NAN_HOLE_GAUSSIAN
    for point, delta in NAN_HOLE_ROWS:
        ncs = fallback.squared_distance_noncentralities(
            g.mean, g.basis, g.eigenvalues, np.array([point])
        )
        ((lower, upper),) = kernels.chi2_sandwich_block(
            delta * delta, 2.0, ncs.sum(axis=1), 1.0, 1e8
        )
        truth = qualification_probability_exact(g, np.array(point), delta)
        assert np.isfinite(lower) and np.isfinite(upper)
        assert lower <= truth <= upper


def test_chi2_sandwich_block_f32_sound_and_close():
    """The float32 fast path must stay conservative, not just close."""
    for d in (2, 3, 8):
        mean, basis, eigvals = random_spectrum(d, 17 + d)
        points = mean + 25.0 * RNG.standard_normal((256, d))
        delta = 18.0
        x, df = delta * delta, float(d)
        lam_min, lam_max = float(eigvals.min()), float(eigvals.max())
        ncs = fallback.squared_distance_noncentralities(
            mean, basis, eigvals, points
        )
        ref_lo = stats.ncx2.cdf(x / lam_max, df, ncs.sum(axis=1))
        ref_hi = stats.ncx2.cdf(x / lam_min, df, ncs.sum(axis=1))
        out = kernels.chi2_sandwich_block_f32(
            mean, basis, eigvals, points, x, df, lam_min, lam_max
        )
        assert np.all(out[:, 0] <= ref_lo + 1e-15)
        assert np.all(out[:, 1] >= ref_hi - 1e-15)
        # float32 rotation costs at most ~1e-4 of width here, not O(1).
        assert np.max(ref_lo - out[:, 0]) < 1e-3
        assert np.max(out[:, 1] - ref_hi) < 1e-3


def test_chi2_sandwich_block_f32_dispatch_via_quadform():
    """The float64 pipeline behind the f32 name is quadform's block, up to
    the rounding of the compiled noncentralities."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2))
    gaussian = Gaussian(rng.uniform(-5, 5, 2), a @ a.T + 2 * np.eye(2))
    points = np.asarray(gaussian.mean) + 12.0 * rng.standard_normal((128, 2))
    lam = gaussian.eigenvalues
    named = kernels.chi2_sandwich_block_f32(
        gaussian.mean, gaussian.basis, lam, points,
        81.0, 2.0, float(lam.min()), float(lam.max()),
    )
    np.testing.assert_allclose(
        named, chi2_sandwich_bounds_block(gaussian, points, 9.0),
        rtol=1e-12, atol=1e-15,
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_sandwich_nan_hole_does_not_reject_qualifying_objects():
    """Both sandwich-first integrators accept the rows SciPy cannot bound
    (their probabilities 0.26 and 0.47 clear θ = 0.01)."""
    for point, delta in NAN_HOLE_ROWS:
        pts = np.array([point])
        for integrator in (
            ImportanceSamplingIntegrator(n_samples=20_000),
            CascadeIntegrator(),
        ):
            accept, _, _ = integrator.decide(NAN_HOLE_GAUSSIAN, pts, delta, 0.01)
            assert accept.tolist() == [True], type(integrator).__name__


def test_ruben_block_interval_contains_fallback_interval():
    """Compiled Ruben bounds may be wider than the fallback's, never offset."""
    for d, seed in ((2, 1), (3, 2), (5, 3)):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.5, 4.0, d))
        h = np.ones(d)
        ncs = rng.uniform(0.0, 30.0, (32, d))
        x = float(rng.uniform(5.0, 200.0))
        lo_c, hi_c, ok_c = kernels.ruben_block(lam, h, ncs, x, tol=1e-12)
        lo_f, hi_f, ok_f = fallback.ruben_block(lam, h, ncs, x, tol=1e-12)
        np.testing.assert_array_equal(ok_c, ok_f)
        both = ok_c & ok_f
        assert np.all(lo_c[both] <= lo_f[both] + 1e-12)
        assert np.all(hi_c[both] >= hi_f[both] - 1e-12)
        assert np.max(np.abs(lo_c[both] - lo_f[both])) < 1e-9
        # Same decisions against a threshold inside the interval:
        theta = 0.5
        lo_t, hi_t, _ = kernels.ruben_block(lam, h, ncs, x, theta=theta)
        assert np.all((lo_t > theta) <= (hi_t > theta))


def test_ruben_block_monte_carlo_containment():
    rng = np.random.default_rng(13)
    lam = np.array([1.0, 2.5])
    h = np.ones(2)
    ncs = rng.uniform(0.0, 12.0, (8, 2))
    x = 14.0
    lo, hi, ok = kernels.ruben_block(lam, h, ncs, x, tol=1e-10)
    assert ok.all()
    z = rng.standard_normal((200_000, 2))
    for i, nc in enumerate(ncs):
        q = (lam * (z + np.sqrt(nc)) ** 2).sum(axis=1)
        p = float(np.mean(q <= x))
        margin = 4.0 * np.sqrt(p * (1 - p) / z.shape[0]) + 1e-3
        assert lo[i] - margin <= p <= hi[i] + margin


# ----------------------------------------------------------------------
# Ruben running sums against the scalar convolution (``ruben_cdf``)
# ----------------------------------------------------------------------

#: Both implementations of the recurrence; one and the same without a compiler.
RUBEN_BACKENDS = (kernels.ruben_block, fallback.ruben_block)


def ruben_spectrum(d: int, cond: float, mixed_dofs: bool):
    """Weights spanning ``cond`` with the smallest one repeated (gamma_j = 0
    twice) from three dimensions up; cond 1 makes every gamma_j zero."""
    lam = 0.7 * np.geomspace(1.0, cond, d)
    if d >= 3:
        lam[1] = lam[0]
    dofs = np.resize([2.0, 1.0, 3.0], d) if mixed_dofs else np.ones(d)
    return lam, dofs


def ruben_rows(rng, lam, dofs):
    """Rows with total noncentrality from 0 to just inside log a0 = -700."""
    edge = 1400.0 + float(np.sum(dofs * np.log(lam.min() / lam))) - 1.0
    totals = np.array([0.0, 0.5, 20.0, 300.0, edge])
    return rng.dirichlet(np.ones(lam.size), size=totals.size) * totals[:, None]


def ruben_truth(form, x):
    """(low, high, value) around P(Q <= x): the untouched scalar series where
    it converges within the blocks' 1000-term budget, else the chi-square
    sandwich (rigorous, but no value)."""
    try:
        value = ruben_cdf(form, x, tol=1e-13, max_terms=1000)
    except IntegrationError:
        return (*chi2_sandwich_bounds(form, x), None)
    return value - 1e-12, value + 1e-12, value


@pytest.mark.parametrize(
    "d, cond",
    [(1, 1.0)] + [(d, c) for d in (2, 3, 9) for c in (1.0, 9.0, 1e4, 1e8)],
)
def test_ruben_block_parity_with_scalar_series(d, cond):
    rng = np.random.default_rng([d, int(np.log10(cond))])
    tol, max_terms = 1e-12, 1000
    widen = 0.25 * tol  # what the dispatch layer passes the C kernel here
    converged = capped = decided = 0
    for mixed_dofs in (False, True):
        lam, dofs = ruben_spectrum(d, cond, mixed_dofs)
        ncs = ruben_rows(rng, lam, dofs)
        for row, nc in enumerate(ncs):
            form = GaussianQuadraticForm(lam, dofs, nc)
            sd = np.sqrt(form.variance())
            for z in (0.0, 1.0, -1.0, 3.0, -3.0, 6.0, -6.0):
                x = form.mean() + z * sd
                if x <= 0:
                    continue
                low, high, value = ruben_truth(form, x)
                for block in RUBEN_BACKENDS:
                    lo, hi, ok = block(
                        lam, dofs, ncs, x, tol=tol, max_terms=max_terms
                    )
                    assert lo[row] <= high and hi[row] >= low
                    if ok[row]:
                        converged += 1
                        assert hi[row] - lo[row] <= tol + 2 * widen
                    else:
                        # Forced to max_terms: flagged, and sound because
                        # more terms only ever shrink the interval.
                        capped += 1
                        assert hi[row] - lo[row] >= tol
                        lo4, hi4, ok4 = block(
                            lam, dofs, ncs, x, tol=tol, max_terms=max_terms // 4
                        )
                        assert not ok4[row]
                        assert lo4[row] <= lo[row] and hi[row] <= hi4[row]
                    if value is None or not 1e-5 < value < 1 - 1e-5:
                        continue
                    # theta on either side of the value: same decision.
                    for theta, accept in ((value - 1e-6, True), (value + 1e-6, False)):
                        lo, hi, ok = block(
                            lam, dofs, ncs, x,
                            theta=theta, tol=tol, max_terms=max_terms,
                        )
                        assert ok[row]
                        assert (lo[row] >= theta) == accept
                        assert (hi[row] < theta) == (not accept)
                        decided += 1
    if cond <= 9.0:
        assert converged and decided
    if cond >= 9.0:
        assert capped


def test_ruben_block_long_series_keeps_its_digits():
    """Over a thousand terms of running sums drift no further than 1e-10."""
    lam, dofs = np.array([1.0, 200.0]), np.ones(2)
    ncs = np.array([[3.0, 9.0], [0.0, 0.0]])
    x = GaussianQuadraticForm(lam, dofs, ncs[0]).mean()
    expected = [
        ruben_cdf(GaussianQuadraticForm(lam, dofs, nc), x, tol=1e-13, max_terms=40_000)
        for nc in ncs
    ]
    for block in RUBEN_BACKENDS:
        assert not block(lam, dofs, ncs, x, tol=1e-12, max_terms=999)[2].any()
        lo, hi, ok = block(lam, dofs, ncs, x, tol=1e-12)
        assert ok.all()
        np.testing.assert_allclose(lo, expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(hi, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 9])
def test_ruben_block_rows_do_not_see_their_block(d):
    """(lower, upper, ok) of a row depend on that row alone: permuted,
    subset and singled-out rows give the very same bits on both backends,
    also for a row on its own power-of-two scale (log a0 < -700) and at an
    x where that row's series runs long enough to rescale."""
    rng = np.random.default_rng(d)
    lam, dofs = ruben_spectrum(d, 9.0, mixed_dofs=False)
    totals = np.exp(rng.uniform(np.log(0.1), np.log(400.0), 40))
    ncs = rng.dirichlet(np.ones(d), size=totals.size) * totals[:, None]
    ncs[7] = 2000.0 / d  # log a0 < -700: a0 underflows unscaled
    near = GaussianQuadraticForm(lam, dofs, np.full(d, 20.0 / d)).mean()
    far = GaussianQuadraticForm(lam, dofs, ncs[7]).mean()
    for block in RUBEN_BACKENDS:
        # theta-decided with rows stopped at the cap, then all run to tol.
        for x, theta, max_terms in (
            (near, 0.3, 30), (near, None, 10_000), (far, None, 10_000)
        ):
            kwargs = dict(theta=theta, tol=1e-12, max_terms=max_terms)
            lower, upper, ok = block(lam, dofs, ncs, x, **kwargs)
            at_cap = ~ok & (upper - lower < 1.0)
            assert at_cap.any() == (theta is not None) and ok.any()
            assert ok[7] == (theta is None)
            if x == far:  # a value near 1/2, not an underflowed 0
                assert 0.1 < lower[7] <= upper[7] < 0.9

            def same(rows, got):
                return (
                    np.array_equal(got[0], lower[rows])
                    and np.array_equal(got[1], upper[rows])
                    and np.array_equal(got[2], ok[rows])
                )

            order = rng.permutation(len(ncs))
            assert same(order, block(lam, dofs, ncs[order], x, **kwargs))
            subset = np.sort(rng.choice(len(ncs), size=11, replace=False))
            assert same(subset, block(lam, dofs, ncs[subset], x, **kwargs))
            for row in range(len(ncs)):
                assert same(
                    [row], block(lam, dofs, ncs[row : row + 1], x, **kwargs)
                )


# ----------------------------------------------------------------------
# Classification kernels: bit parity with the fallback
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 4])
def test_minkowski_contains_parity(d):
    rng = np.random.default_rng(d)
    points = rng.uniform(-10.0, 10.0, (512, d))
    lows = rng.uniform(-6.0, -1.0, d)
    highs = rng.uniform(1.0, 6.0, d)
    for delta in (0.0, 1.5):
        got = kernels.minkowski_contains(points, lows, highs, delta)
        ref = fallback.minkowski_contains(points, lows, highs, delta)
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("d", [2, 3])
def test_oblique_contains_parity(d):
    mean, basis, eigvals = random_spectrum(d, 31 + d)
    rng = np.random.default_rng(d)
    points = mean + rng.uniform(-8.0, 8.0, (512, d))
    half_widths = rng.uniform(0.5, 5.0, d)
    got = kernels.oblique_contains(points, mean, basis, half_widths)
    ref = fallback.oblique_contains(points, mean, basis, half_widths)
    np.testing.assert_array_equal(got, ref)


def test_bf_classify_parity_with_and_without_lower():
    rng = np.random.default_rng(7)
    points = rng.uniform(-10.0, 10.0, (512, 2))
    center = np.array([0.5, -0.5])
    got = kernels.bf_classify(points, center, 6.0, 2.0)
    ref = fallback.bf_classify(points, center, 6.0, 2.0)
    np.testing.assert_array_equal(got, ref)
    assert set(np.unique(got)) <= {-1, 0, 1}
    got_u = kernels.bf_classify(points, center, 6.0, None)
    ref_u = fallback.bf_classify(points, center, 6.0, None)
    np.testing.assert_array_equal(got_u, ref_u)
    assert set(np.unique(got_u)) <= {-1, 0}


def test_empty_blocks_are_well_formed():
    empty = np.empty((0, 2))
    assert kernels.squared_distance_noncentralities(
        np.zeros(2), np.eye(2), np.ones(2), empty
    ).shape == (0, 2)
    assert kernels.chi2_sandwich_block(1.0, 2.0, np.empty(0), 1.0, 2.0).shape == (0, 2)
    lo, hi, ok = kernels.ruben_block(np.ones(2), np.ones(2), empty, 1.0)
    assert lo.shape == hi.shape == ok.shape == (0,)
    assert kernels.minkowski_contains(empty, np.zeros(2), np.ones(2), 0.0).shape == (0,)
    assert kernels.bf_classify(empty, np.zeros(2), 1.0, None).shape == (0,)


# ----------------------------------------------------------------------
# Fallback scratch arena
# ----------------------------------------------------------------------


def test_scratch_arena_reuses_and_grows():
    a = fallback.scratch("test_arena", (4, 4))
    a[:] = 7.0
    b = fallback.scratch("test_arena", (4, 4))
    assert b.base is a.base or b.base is not None  # same arena buffer
    grown = fallback.scratch("test_arena", (8, 4))
    assert grown.shape == (8, 4)
    assert fallback.scratch("test_arena", (4, 4)).base is grown.base


def test_fallback_results_are_never_arena_views():
    mean, basis, eigvals = random_spectrum(2, 99)
    points = mean + RNG.standard_normal((16, 2))
    first = fallback.squared_distance_noncentralities(
        mean, basis, eigvals, points
    ).copy()
    fallback.squared_distance_noncentralities(
        mean, basis, eigvals, points + 1000.0
    )
    again = fallback.squared_distance_noncentralities(
        mean, basis, eigvals, points
    )
    np.testing.assert_array_equal(first, again)
