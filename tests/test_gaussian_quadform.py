"""Tests for the exact quadratic-form CDFs (Imhof and Ruben)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.errors import GeometryError, IntegrationError
from repro.gaussian import quadform
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import (
    GaussianQuadraticForm,
    chi2_sandwich_bounds,
    imhof_cdf,
    imhof_cdf_block,
    qualification_probability_exact,
    ruben_cdf,
)
from tests.conftest import random_spd


def _form(weights, dofs=None, ncs=None) -> GaussianQuadraticForm:
    w = np.asarray(weights, dtype=float)
    return GaussianQuadraticForm(
        w,
        np.ones_like(w) if dofs is None else np.asarray(dofs, float),
        np.zeros_like(w) if ncs is None else np.asarray(ncs, float),
    )


class TestFormConstruction:
    def test_moments(self):
        form = _form([2.0, 3.0], ncs=[1.0, 0.5])
        assert form.mean() == pytest.approx(2 * (1 + 1.0) + 3 * (1 + 0.5))
        assert form.variance() == pytest.approx(2 * (4 * 3.0 + 9 * 2.0))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(GeometryError):
            _form([1.0, 0.0])

    def test_rejects_negative_noncentrality(self):
        with pytest.raises(GeometryError):
            _form([1.0], ncs=[-0.5])

    def test_rejects_fractional_dof(self):
        with pytest.raises(GeometryError):
            _form([1.0], dofs=[1.5])

    def test_squared_distance_form(self, paper_gaussian):
        o = np.array([510.0, 490.0])
        form = GaussianQuadraticForm.squared_distance(paper_gaussian, o)
        # E||x - o||^2 = ||mu||^2 + tr(Sigma)
        mu = paper_gaussian.mean - o
        expected = float(mu @ mu + np.trace(paper_gaussian.sigma))
        assert form.mean() == pytest.approx(expected, rel=1e-10)

    def test_sample_moments(self, rng):
        form = _form([1.0, 4.0], ncs=[2.0, 0.0])
        draws = form.sample(200_000, rng)
        assert draws.mean() == pytest.approx(form.mean(), rel=0.02)
        assert draws.var() == pytest.approx(form.variance(), rel=0.05)


class TestAgainstClosedForms:
    def test_central_chi2_single_weight(self):
        # Q = 2 * chi2_3: CDF known exactly.
        form = _form([2.0, 2.0, 2.0])
        for x in (0.5, 2.0, 6.0, 20.0):
            expected = stats.chi2.cdf(x / 2.0, 3)
            assert imhof_cdf(form, x) == pytest.approx(expected, abs=1e-7)
            assert ruben_cdf(form, x) == pytest.approx(expected, abs=1e-10)

    def test_noncentral_chi2_single_weight(self):
        form = _form([1.5, 1.5], ncs=[2.0, 1.0])
        for x in (1.0, 5.0, 15.0):
            expected = stats.ncx2.cdf(x / 1.5, 2, 3.0)
            assert imhof_cdf(form, x) == pytest.approx(expected, abs=1e-7)
            assert ruben_cdf(form, x) == pytest.approx(expected, abs=1e-9)

    def test_exponential_case_d2(self):
        # Q = chi2_2 = Exp(1/2): P(Q <= x) = 1 - exp(-x/2).
        form = _form([1.0, 1.0])
        for x in (0.1, 1.0, 4.0):
            expected = 1.0 - np.exp(-x / 2.0)
            assert ruben_cdf(form, x) == pytest.approx(expected, abs=1e-12)


class TestImhofVsRuben:
    @given(
        st.lists(st.floats(0.2, 30.0), min_size=1, max_size=6),
        st.lists(st.floats(0.0, 8.0), min_size=1, max_size=6),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement(self, weights, ncs, x_scale):
        n = min(len(weights), len(ncs))
        form = _form(weights[:n], ncs=ncs[:n])
        x = x_scale * form.mean()
        assert imhof_cdf(form, x) == pytest.approx(ruben_cdf(form, x), abs=2e-6)

    def test_agreement_against_simulation(self, rng):
        form = _form([5.0, 1.0, 0.3], ncs=[1.0, 4.0, 0.0])
        draws = form.sample(400_000, rng)
        for x in np.quantile(draws, [0.1, 0.5, 0.9]):
            empirical = np.mean(draws <= x)
            assert imhof_cdf(form, float(x)) == pytest.approx(empirical, abs=0.005)


def _spectrum(rng, dim: int, cond: float) -> np.ndarray:
    """Weights in [1/cond, 1] hitting both ends.  The largest weight is
    kept at 1 because the scalar oracle itself loses its 2e-8 once x runs
    into the 1e5s; the block rule is scale-free (tested below)."""
    lam = np.exp(-rng.uniform(0.0, np.log(cond), dim)) if cond > 1 else np.ones(dim)
    lam[0] = 1.0
    if dim > 1:
        lam[-1] = 1.0 / cond
    return lam


def _diverse_block(rng, dim: int, rows: int = 40):
    """A spectrum and rows whose panel counts differ (Σδ² from 1e2 to 1e4)."""
    lam = _spectrum(rng, dim, 9.0)
    totals = np.exp(rng.uniform(np.log(1e2), np.log(1e4), rows))
    ncs = rng.dirichlet(np.ones(dim), size=rows) * totals[:, None]
    form = GaussianQuadraticForm(lam, np.ones(dim), ncs[0])
    return lam, np.ones(dim), ncs, form.mean()


class TestImhofBlock:
    @pytest.mark.parametrize(
        "dim, cond",
        [(1, 1.0)] + [(d, c) for d in (2, 3, 9) for c in (9.0, 1e4, 1e8)],
    )
    def test_parity_with_scalar_and_ruben(self, dim, cond):
        rng = np.random.default_rng([dim, int(np.log10(cond))])
        compared_to_ruben = 0
        for total in (0.0, 1.0, 30.0, 1e3, 1e4):
            lam = _spectrum(rng, dim, cond)
            dofs = np.ones(dim)
            ncs = rng.dirichlet(np.ones(dim), size=2) * total
            anchor = GaussianQuadraticForm(lam, dofs, ncs[0])
            sd = np.sqrt(anchor.variance())
            for z in (0.0, 1.0, -1.0, 3.0, -3.0, 6.0, -6.0):
                x = anchor.mean() + z * sd  # below 0 at the far left: CDF 0
                values, errors, _, _ = imhof_cdf_block(lam, dofs, ncs, x)
                assert np.all(errors <= 0.5e-9)
                for row, value in zip(ncs, values):
                    form = GaussianQuadraticForm(lam, dofs, row)
                    assert value == pytest.approx(imhof_cdf(form, x), abs=2e-8)
                    try:  # usable = converging within a few hundred terms
                        series = ruben_cdf(form, x, tol=1e-13, max_terms=500)
                    except IntegrationError:
                        continue
                    compared_to_ruben += 1
                    assert value == pytest.approx(series, abs=1e-9)
        assert compared_to_ruben > 0 or cond > 9

    def test_non_unit_dofs(self):
        lam = np.array([1.0, 0.4, 0.05])
        dofs = np.array([2.0, 1.0, 3.0])
        ncs = np.array([[0.0, 0.0, 0.0], [3.0, 0.5, 7.0], [400.0, 900.0, 50.0]])
        for x in (2.0, 9.0, 700.0):
            values, _, nodes, _ = imhof_cdf_block(lam, dofs, ncs, x)
            assert nodes > 0
            for row, value in zip(ncs, values):
                form = GaussianQuadraticForm(lam, dofs, row)
                assert value == pytest.approx(imhof_cdf(form, x), abs=2e-8)
                if row.sum() < 100:
                    assert value == pytest.approx(
                        ruben_cdf(form, x, tol=1e-13), abs=1e-9
                    )

    def test_empty_block_and_nonpositive_threshold(self):
        lam, dofs = np.array([2.0, 1.0]), np.ones(2)
        values, errors, nodes, fallbacks = imhof_cdf_block(
            lam, dofs, np.zeros((0, 2)), 3.0
        )
        assert values.shape == errors.shape == (0,)
        assert (nodes, fallbacks) == (0, 0)
        for x in (0.0, -4.0):
            values, errors, nodes, fallbacks = imhof_cdf_block(
                lam, dofs, np.array([[1.0, 2.0], [0.0, 0.0]]), x
            )
            assert values.tolist() == errors.tolist() == [0.0, 0.0]
            assert (nodes, fallbacks) == (0, 0)

    def test_rejects_malformed_blocks(self):
        lam, dofs = np.array([2.0, 1.0]), np.ones(2)
        for bad in (
            (lam, dofs, np.zeros(2)),  # a row, not a block
            (lam, dofs, np.zeros((3, 3))),
            (lam, np.ones(3), np.zeros((3, 2))),
            (np.array([2.0, 0.0]), dofs, np.zeros((1, 2))),
            (lam, dofs, np.array([[1.0, -1.0]])),
            (lam, dofs, np.array([[1.0, np.nan]])),
        ):
            with pytest.raises(GeometryError):
                imhof_cdf_block(*bad, 3.0)

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_rows_do_not_see_their_block(self, dim, monkeypatch):
        # The contract composition_independent rests on: permuted, subset
        # and singled-out rows give the very same bits.
        rng = np.random.default_rng(dim)
        lam, dofs, ncs, x = _diverse_block(rng, dim)
        ncs[5] = 0.0  # one slow-decaying row that takes the scalar path
        values, errors, _, fallbacks = imhof_cdf_block(lam, dofs, ncs, x)
        assert fallbacks == 1

        def same(rows, got):
            return np.array_equal(got[0], values[rows]) and np.array_equal(
                got[1], errors[rows]
            )

        order = rng.permutation(len(ncs))
        assert same(order, imhof_cdf_block(lam, dofs, ncs[order], x))
        subset = np.sort(rng.choice(len(ncs), size=11, replace=False))
        assert same(subset, imhof_cdf_block(lam, dofs, ncs[subset], x))
        for row in range(len(ncs)):
            assert same([row], imhof_cdf_block(lam, dofs, ncs[row : row + 1], x))
        # ... and so do rows swept in chunks of one.
        monkeypatch.setattr(quadform, "_BLOCK_CHUNK_BYTES", 1)
        assert same(slice(None), imhof_cdf_block(lam, dofs, ncs, x))

    def test_reported_error_covers_the_refined_value(self):
        rng = np.random.default_rng(23)
        lam, dofs, ncs, x = _diverse_block(rng, 2)
        values, errors, nodes, _ = imhof_cdf_block(lam, dofs, ncs, x, tol=1e-9)
        refined, fine, more, _ = imhof_cdf_block(lam, dofs, ncs, x, tol=1e-13)
        assert more > nodes
        assert np.all(fine < errors) and np.all(errors > 0)
        assert np.all(np.abs(values - refined) <= errors)

    def test_scale_free(self):
        rng = np.random.default_rng(29)
        lam, dofs, ncs, x = _diverse_block(rng, 3, rows=6)
        values = imhof_cdf_block(lam, dofs, ncs, x)[0]
        for scale in (1e-6, 1e6):
            scaled = imhof_cdf_block(scale * lam, dofs, ncs, scale * x)[0]
            np.testing.assert_allclose(scaled, values, rtol=0, atol=1e-12)

    def test_cap_sends_rows_to_the_scalar_path(self, monkeypatch):
        rng = np.random.default_rng(31)
        lam, dofs, ncs, x = _diverse_block(rng, 2, rows=5)
        swept = imhof_cdf_block(lam, dofs, ncs, x)
        assert swept[2] > 0 and swept[3] == 0
        monkeypatch.setattr(quadform, "_BLOCK_MAX_NODES", 1)
        values, errors, nodes, fallbacks = imhof_cdf_block(lam, dofs, ncs, x)
        assert (nodes, fallbacks) == (0, 5)
        assert not errors.any()
        for row, value in zip(ncs, values):
            assert value == imhof_cdf(GaussianQuadraticForm(lam, dofs, row), x)
        np.testing.assert_allclose(values, swept[0], rtol=0, atol=2e-8)

    def test_doubling_runs_until_agreement_or_the_cap(self, monkeypatch):
        lam, dofs = np.array([1.0, 0.25]), np.ones(2)
        ncs = np.array([[900.0, 700.0]])
        x = 1200.0
        value, _, nodes, _ = imhof_cdf_block(lam, dofs, ncs, x, tol=1e-4)
        # An off-centre rectangle rule is first order only, too slow for one
        # doubling: a loose tolerance is met after several ...
        monkeypatch.setattr(quadform, "_GL_NODES", (np.arange(16) + 0.1) / 16)
        monkeypatch.setattr(quadform, "_GL_WEIGHTS", np.full(16, 1 / 16))
        crude, errors, more, fallbacks = imhof_cdf_block(
            lam, dofs, ncs, x, tol=1e-4
        )
        assert more > 2 * nodes and fallbacks == 0
        assert abs(crude[0] - value[0]) <= errors[0] <= 0.5e-4
        # ... a tight one is not met before the cap: scalar path.
        crude, errors, more, fallbacks = imhof_cdf_block(lam, dofs, ncs, x)
        assert more > quadform._BLOCK_MAX_NODES and fallbacks == 1
        assert errors[0] == 0.0
        assert crude[0] == imhof_cdf(GaussianQuadraticForm(lam, dofs, ncs[0]), x)


class TestEdgeBehaviour:
    def test_negative_threshold_is_zero(self):
        form = _form([1.0])
        assert imhof_cdf(form, -1.0) == 0.0
        assert ruben_cdf(form, -1.0) == 0.0

    def test_zero_threshold(self):
        form = _form([1.0])
        assert ruben_cdf(form, 0.0) == 0.0

    def test_huge_threshold_is_one(self):
        form = _form([1.0, 2.0], ncs=[1.0, 1.0])
        assert imhof_cdf(form, 1e4) == pytest.approx(1.0, abs=1e-8)
        assert ruben_cdf(form, 1e4) == pytest.approx(1.0, abs=1e-10)

    def test_ruben_raises_on_extreme_noncentrality(self):
        form = _form([1.0, 1.0], ncs=[2000.0, 2000.0])
        with pytest.raises(IntegrationError):
            ruben_cdf(form, 100.0)

    def test_sandwich_bounds_contain_truth(self):
        form = _form([5.0, 1.0], ncs=[2.0, 1.0])
        for x in (1.0, 5.0, 20.0, 60.0):
            lower, upper = chi2_sandwich_bounds(form, x)
            truth = imhof_cdf(form, x)
            assert lower - 1e-9 <= truth <= upper + 1e-9


class TestQualificationProbability:
    def test_methods_agree(self, paper_gaussian):
        for point in ([510.0, 490.0], [500.0, 500.0], [540.0, 520.0]):
            p_i = qualification_probability_exact(
                paper_gaussian, np.array(point), 25.0, method="imhof"
            )
            p_r = qualification_probability_exact(
                paper_gaussian, np.array(point), 25.0, method="ruben"
            )
            assert p_i == pytest.approx(p_r, abs=1e-6)

    def test_against_monte_carlo(self, rng, paper_gaussian):
        point = np.array([515.0, 495.0])
        exact = qualification_probability_exact(paper_gaussian, point, 25.0)
        samples = paper_gaussian.sample(400_000, rng)
        frac = np.mean(np.sum((samples - point) ** 2, axis=1) <= 625.0)
        assert exact == pytest.approx(frac, abs=0.004)

    def test_far_point_is_zero(self, paper_gaussian):
        # The sandwich shortcut must kick in and return ~0 without error in
        # either method.
        far = np.array([5000.0, 5000.0])
        assert qualification_probability_exact(paper_gaussian, far, 25.0) < 1e-14
        assert (
            qualification_probability_exact(
                paper_gaussian, far, 25.0, method="ruben"
            )
            < 1e-14
        )

    def test_ruben_falls_back_to_imhof(self):
        # Moderately large noncentrality that underflows Ruben's a0 but has
        # a non-negligible probability: the fallback must engage silently.
        g = Gaussian([0.0, 0.0], np.diag([1.0, 1.0]))
        point = np.array([40.0, 0.0])
        delta = 42.0  # ball reaches past the mean: substantial probability
        p = qualification_probability_exact(g, point, delta, method="ruben")
        p_imhof = qualification_probability_exact(g, point, delta, method="imhof")
        assert p == pytest.approx(p_imhof, abs=1e-9)
        assert 0.5 < p < 1.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("method", ["imhof", "ruben"])
    @pytest.mark.parametrize(
        "variance, delta", [(1e6, 1e-3), (1e8, 1.0), (1e9, 1.0), (4.0, 1.0)]
    )
    def test_never_leaves_its_own_sandwich(self, variance, delta, method):
        """At cond(Σ) ≥ 1e6 the raw inversion reads ≈ 0.5 against rigorous
        bounds of [5e-13, 5e-7] and [5e-9, 0.393]; the oracle may not."""
        g = Gaussian([0.0, 0.0], np.diag([variance, 1.0]))
        form = GaussianQuadraticForm.squared_distance(g, np.zeros(2))
        lower, upper = chi2_sandwich_bounds(form, delta * delta)
        p = qualification_probability_exact(g, np.zeros(2), delta, method=method)
        assert lower <= p <= upper
        if variance == 4.0:  # well conditioned: the clamp must not act
            raw = imhof_cdf(form, delta * delta)
            assert lower < raw < upper
            series = ruben_cdf(form, delta * delta, tol=1e-12 * lower)
            assert p == (raw if method == "imhof" else series)

    def test_zero_delta(self, paper_gaussian):
        assert (
            qualification_probability_exact(paper_gaussian, np.zeros(2), 0.0) == 0.0
        )

    def test_rejects_unknown_method(self, paper_gaussian):
        with pytest.raises(GeometryError):
            qualification_probability_exact(
                paper_gaussian, np.zeros(2), 1.0, method="magic"
            )

    def test_high_dimensional_consistency(self, rng):
        sigma = random_spd(rng, 9)
        g = Gaussian(rng.standard_normal(9), sigma)
        point = g.mean + rng.standard_normal(9)
        delta = float(np.sqrt(np.trace(sigma)))
        p_i = qualification_probability_exact(g, point, delta, method="imhof")
        p_r = qualification_probability_exact(g, point, delta, method="ruben")
        assert p_i == pytest.approx(p_r, abs=1e-6)
        samples = g.sample(200_000, rng)
        frac = np.mean(np.sum((samples - point) ** 2, axis=1) <= delta**2)
        assert p_i == pytest.approx(frac, abs=0.005)

    def test_probability_decreases_with_distance(self, paper_gaussian):
        probs = [
            qualification_probability_exact(
                paper_gaussian, paper_gaussian.mean + np.array([d, 0.0]), 25.0
            )
            for d in (0.0, 20.0, 40.0, 80.0)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestIllConditionedOracle:
    def test_ruben_resolves_cond_1e8(self):
        """At cond(Σ) = 1e8 Ruben's remaining mass never drops below
        ``tol``, but its tail bound does within terms: the oracle and
        ``ExactIntegrator`` read the truth, not the clamped Imhof value
        0.3935 (the sandwich's upper bound)."""
        from scipy import integrate

        from repro.integrate import CascadeIntegrator, ExactIntegrator

        g = Gaussian([0.0, 0.0], np.diag([1e8, 1.0]))
        origin = np.zeros(2)
        # Independent truth: P(x1² + x2² ≤ 1) with x1 ~ N(0, 1e8),
        # integrated over x2 ~ N(0, 1).
        truth = integrate.quad(
            lambda x2: stats.norm.pdf(x2)
            * (2.0 * stats.norm.cdf(np.sqrt(1.0 - x2 * x2) / 1e4) - 1.0),
            -1.0,
            1.0,
            epsabs=1e-14,
        )[0]
        assert truth == pytest.approx(4.44565e-5, rel=1e-5)
        form = GaussianQuadraticForm.squared_distance(g, origin)
        assert ruben_cdf(form, 1.0) == pytest.approx(truth, rel=1e-7)
        assert qualification_probability_exact(g, origin, 1.0) == pytest.approx(
            truth, rel=1e-9
        )
        exact = ExactIntegrator().qualification_probability(g, origin, 1.0)
        assert exact.estimate == pytest.approx(truth, rel=1e-9)
        cascade = CascadeIntegrator().qualification_probability(g, origin, 1.0)
        assert cascade.estimate == pytest.approx(truth, abs=1e-9)
