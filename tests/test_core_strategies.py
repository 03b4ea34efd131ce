"""Soundness and behaviour tests for the RR, OR and BF strategies.

The central invariant, checked property-style against the exact
qualification probability: a strategy may only REJECT objects whose true
probability is below θ, and only ACCEPT objects whose true probability is
at or above θ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.catalog.bf import BFCatalog
from repro.catalog.rtheta import RThetaCatalog
from repro.core.query import ProbabilisticRangeQuery
from repro.core.strategies import (
    ACCEPT,
    REJECT,
    UNKNOWN,
    BoundingFunctionStrategy,
    EllipsoidStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
    make_strategies,
)
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import qualification_probability_exact
from tests.conftest import random_spd


def exact_probs(gaussian, points, delta):
    return np.array(
        [
            qualification_probability_exact(gaussian, p, delta, method="ruben")
            for p in points
        ]
    )


def assert_sound(strategy, query, points, probs=None):
    """No REJECT may kill a qualifying object; no ACCEPT may admit a
    non-qualifying one."""
    codes = strategy.classify(points)
    if probs is None:
        probs = exact_probs(query.gaussian, points, query.delta)
    qualifying = probs >= query.theta
    rejected_ids = np.nonzero(codes == REJECT)[0]
    assert not np.any(qualifying[rejected_ids]), (
        f"{strategy.name} rejected qualifying objects: "
        f"{points[rejected_ids[qualifying[rejected_ids]]]}"
    )
    accepted_ids = np.nonzero(codes == ACCEPT)[0]
    assert np.all(qualifying[accepted_ids]), (
        f"{strategy.name} accepted non-qualifying objects"
    )


@pytest.fixture(scope="module")
def query():
    root3 = np.sqrt(3.0)
    sigma = 10.0 * np.array([[7.0, 2.0 * root3], [2.0 * root3, 3.0]])
    return ProbabilisticRangeQuery(Gaussian([500.0, 500.0], sigma), 25.0, 0.01)


@pytest.fixture(scope="module")
def candidate_cloud(query):
    """Points concentrated around the decision boundary."""
    rng = np.random.default_rng(12345)
    return query.gaussian.mean + rng.uniform(-120, 120, size=(400, 2))


@pytest.fixture(scope="module")
def cloud_probs(query, candidate_cloud):
    """Exact qualification probabilities of the shared cloud, computed once."""
    return exact_probs(query.gaussian, candidate_cloud, query.delta)


class TestRectilinearStrategy:
    def test_soundness(self, query, candidate_cloud, cloud_probs):
        strategy = RectilinearStrategy()
        strategy.prepare(query)
        assert_sound(strategy, query, candidate_cloud, cloud_probs)

    def test_search_rect_is_minkowski_bounding_box(self, query):
        strategy = RectilinearStrategy()
        strategy.prepare(query)
        rect = strategy.search_rect()
        region = strategy.region
        assert rect == region.bounding_rect()
        # Half widths: sigma_i * r_theta + delta (Property 2 + Fig. 4).
        expected = np.sqrt(np.diag(query.gaussian.sigma)) * 2.797 + 25.0
        np.testing.assert_allclose(
            (rect.highs - rect.lows) / 2.0, expected, rtol=1e-3
        )

    def test_fringe_filter_rejects_corners_only(self, query, rng):
        strategy = RectilinearStrategy()
        strategy.prepare(query)
        pts = query.gaussian.mean + rng.uniform(-80, 80, size=(500, 2))
        codes = strategy.classify(pts)
        fringe = strategy.region.in_fringe(pts)
        inside_box = strategy.search_rect().contains_points(pts)
        # Inside the box: REJECT iff fringe.
        np.testing.assert_array_equal(
            codes[inside_box] == REJECT, fringe[inside_box]
        )

    def test_paper_mode_disables_fringe_beyond_2d(self, rng):
        sigma = random_spd(rng, 3)
        gaussian = Gaussian(np.zeros(3), sigma)
        query3 = ProbabilisticRangeQuery(gaussian, 2.0, 0.05)
        paper = RectilinearStrategy(fringe_filter="paper")
        paper.prepare(query3)
        pts = rng.uniform(-10, 10, size=(100, 3))
        assert np.all(paper.classify(pts) == UNKNOWN)
        exact = RectilinearStrategy(fringe_filter="exact")
        exact.prepare(query3)
        assert np.any(exact.classify(pts) == REJECT)

    def test_off_mode_never_rejects(self):
        # There is no filter-less RR: "exact" and "paper" are the modes.
        with pytest.raises(QueryError, match="'exact' or 'paper'"):
            RectilinearStrategy(fringe_filter="off")

    def test_invalid_mode_rejected(self):
        with pytest.raises(QueryError):
            RectilinearStrategy(fringe_filter="maybe")

    def test_use_before_prepare_rejected(self):
        with pytest.raises(QueryError):
            RectilinearStrategy().search_rect()

    def test_catalog_lookup_enlarges_region(self, query):
        # A coarse catalog without theta=0.01 must fall back to a smaller
        # theta* and hence a larger box.
        coarse = RThetaCatalog.build_analytic(2, [0.005, 0.25])
        strategy = RectilinearStrategy(coarse)
        strategy.prepare(query)
        exact = RectilinearStrategy()
        exact.prepare(query)
        assert strategy.search_rect().contains_rect(exact.search_rect())

    def test_dim_mismatch_lookup_rejected(self, query):
        with pytest.raises(QueryError):
            RectilinearStrategy(RThetaCatalog.build_analytic(3, [0.01])).prepare(query)


class TestObliqueStrategy:
    def test_soundness(self, query, candidate_cloud, cloud_probs):
        strategy = ObliqueStrategy()
        strategy.prepare(query)
        assert_sound(strategy, query, candidate_cloud, cloud_probs)

    def test_oblique_box_tighter_than_rr_for_tilted_gaussians(self, query, rng):
        # The signature OR advantage: its box area is smaller than the RR
        # bounding box for the paper's tilted covariance.
        oblique = ObliqueStrategy()
        oblique.prepare(query)
        rr = RectilinearStrategy()
        rr.prepare(query)
        assert oblique.box.volume() < rr.search_rect().volume()

    def test_classify_matches_box_membership(self, query, candidate_cloud):
        strategy = ObliqueStrategy()
        strategy.prepare(query)
        codes = strategy.classify(candidate_cloud)
        inside = strategy.box.contains_points(candidate_cloud)
        np.testing.assert_array_equal(codes == UNKNOWN, inside)
        np.testing.assert_array_equal(codes == REJECT, ~inside)

    def test_use_before_prepare_rejected(self):
        with pytest.raises(QueryError):
            ObliqueStrategy().classify(np.zeros((1, 2)))


class TestBoundingFunctionStrategy:
    def test_soundness(self, query, candidate_cloud, cloud_probs):
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        assert_sound(strategy, query, candidate_cloud, cloud_probs)

    def test_alpha_ordering(self, query):
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        assert strategy.alpha_lower is not None
        assert strategy.alpha_upper is not None
        assert 0 < strategy.alpha_lower < strategy.alpha_upper

    def test_accepts_inner_points_without_integration(self, query):
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        inner = query.gaussian.mean + np.array([[1.0, 1.0]])
        assert strategy.classify(inner)[0] == ACCEPT

    def test_rejects_far_points(self, query):
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        far = query.gaussian.mean + np.array([[500.0, 0.0]])
        assert strategy.classify(far)[0] == REJECT

    def test_annulus_is_unknown(self, query):
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        mid_radius = 0.5 * (strategy.alpha_lower + strategy.alpha_upper)
        mid = query.gaussian.mean + np.array([[mid_radius, 0.0]])
        assert strategy.classify(mid)[0] == UNKNOWN

    def test_spherical_gaussian_needs_no_integration(self, rng):
        # When lambda_par == lambda_perp the bounds coincide: BF decides
        # every object exactly (the paper's "completely spherical" remark).
        gaussian = Gaussian.isotropic([0.0, 0.0], 9.0)
        query = ProbabilisticRangeQuery(gaussian, 5.0, 0.1)
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        assert strategy.alpha_lower == pytest.approx(strategy.alpha_upper, rel=1e-9)
        pts = rng.uniform(-20, 20, size=(300, 2))
        codes = strategy.classify(pts)
        assert not np.any(codes == UNKNOWN)
        probs = exact_probs(gaussian, pts, 5.0)
        boundary_gap = np.abs(probs - 0.1) > 1e-6
        np.testing.assert_array_equal(
            (codes == ACCEPT)[boundary_gap], (probs >= 0.1)[boundary_gap]
        )

    def test_no_inner_hole_for_ill_shaped_high_dim(self, rng):
        # Section VI: for narrow high-dimensional Gaussians the scaled theta
        # of Eq. 37 exceeds one and the inner hole vanishes.
        eigenvalues = np.concatenate([[100.0], np.full(8, 0.01)])
        gaussian = Gaussian(np.zeros(9), np.diag(eigenvalues))
        query = ProbabilisticRangeQuery(gaussian, 0.7, 0.4)
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        assert strategy.alpha_lower is None

    def test_proves_empty_when_theta_unreachable(self):
        # Tiny delta + high theta: no location can qualify.
        gaussian = Gaussian.isotropic([0.0, 0.0], 100.0)
        query = ProbabilisticRangeQuery(gaussian, 0.1, 0.9)
        strategy = BoundingFunctionStrategy()
        strategy.prepare(query)
        assert strategy.proves_empty
        assert strategy.search_rect() is None
        pts = np.array([[0.0, 0.0]])
        assert strategy.classify(pts)[0] == REJECT

    def test_catalog_backed_lookup_still_sound(self, query, candidate_cloud, cloud_probs):
        catalog = BFCatalog.build_analytic(
            2,
            deltas=np.linspace(0.5, 5.0, 12),
            thetas=np.geomspace(1e-4, 0.45, 12),
        )
        strategy = BoundingFunctionStrategy(catalog)
        strategy.prepare(query)
        if not strategy.proves_empty:
            assert_sound(strategy, query, candidate_cloud, cloud_probs)

    def test_use_before_prepare_rejected(self):
        with pytest.raises(QueryError):
            BoundingFunctionStrategy().search_rect()


ALL_FOUR = (
    RectilinearStrategy,
    ObliqueStrategy,
    BoundingFunctionStrategy,
    EllipsoidStrategy,
)


def prepared_geometry(gaussian, delta, theta) -> list[np.ndarray]:
    """Every array the four strategies derive from one query."""
    query = ProbabilisticRangeQuery(gaussian, delta, theta)
    rr, oblique, bf, em = strategies = [factory() for factory in ALL_FOUR]
    for strategy in strategies:
        strategy.prepare(query)
    arrays = [
        rr.region.core.lows,
        rr.region.core.highs,
        oblique.box.half_widths,
        oblique.box.transform.basis,
        np.array([bf.alpha_upper, bf.alpha_lower], dtype=float),
    ]
    for strategy in strategies:
        rect = strategy.search_rect()
        if rect is not None:
            arrays += [rect.lows, rect.highs]
    return arrays


class TestPrepareOwnsTheGeometry:
    """The query's Gaussian decomposes Σ, once; ``prepare`` derives every
    shape and the Phase-1 rectangle from it, once."""

    def test_query_and_all_strategies_decompose_once(self, eigh_calls):
        sigma = random_spd(np.random.default_rng(3), 4)
        query = ProbabilisticRangeQuery.create(np.zeros(4), sigma, 2.0, 0.05)
        for strategy in [*make_strategies("all"), EllipsoidStrategy()]:
            strategy.prepare(query)
            strategy.search_rect()
        assert eigh_calls == [(4, 4)]

    @pytest.mark.parametrize("factory", ALL_FOUR)
    def test_search_rect_is_the_rectangle_prepare_built(self, factory, query):
        strategy = factory()
        with pytest.raises(QueryError):
            strategy.search_rect()
        strategy.prepare(query)
        assert strategy.search_rect() is strategy.search_rect()

    @pytest.mark.parametrize("dim", [2, 9])
    def test_moved_gaussian_prepares_bit_identical_geometry(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(200):
            sigma = random_spd(rng, dim, scale=float(rng.uniform(0.1, 50.0)))
            mean = rng.uniform(-100.0, 100.0, size=dim)
            delta = float(rng.uniform(0.5, 30.0))
            theta = float(rng.uniform(0.001, 0.6))
            elsewhere = Gaussian(rng.uniform(-100.0, 100.0, size=dim), sigma)
            direct = prepared_geometry(Gaussian(mean, sigma), delta, theta)
            moved = prepared_geometry(elsewhere.moved_to(mean), delta, theta)
            assert len(direct) == len(moved)
            for built, shared in zip(direct, moved):
                np.testing.assert_array_equal(built, shared)


class TestMakeStrategies:
    @pytest.mark.parametrize(
        "spec,names",
        [
            ("rr", ["RR"]),
            ("bf", ["BF"]),
            ("rr+bf", ["RR", "BF"]),
            ("rr+or", ["RR", "OR"]),
            ("bf+or", ["BF", "OR"]),
            ("all", ["RR", "BF", "OR"]),
        ],
    )
    def test_specs(self, spec, names):
        assert [s.name for s in make_strategies(spec)] == names

    def test_spec_order_insensitive(self):
        assert [s.name for s in make_strategies("or+rr")] == ["RR", "OR"]

    def test_case_insensitive(self):
        assert [s.name for s in make_strategies("ALL")] == ["RR", "BF", "OR"]

    def test_unknown_spec_rejected(self):
        with pytest.raises(QueryError):
            make_strategies("rr+xx")


class TestRandomizedSoundness:
    """Property-style sweep: every strategy stays sound across random
    covariances, thresholds and dimensionalities."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("theta", [0.01, 0.2, 0.45])
    def test_all_strategies_sound(self, dim, theta):
        rng = np.random.default_rng(dim * 100 + int(theta * 1000))
        sigma = random_spd(rng, dim, scale=4.0)
        gaussian = Gaussian(rng.standard_normal(dim), sigma)
        delta = float(np.sqrt(np.trace(sigma)) * 0.8)
        query = ProbabilisticRangeQuery(gaussian, delta, theta)
        spread = 3.0 * np.sqrt(np.trace(sigma)) + delta
        points = gaussian.mean + rng.uniform(-spread, spread, size=(90, dim))
        for strategy in make_strategies("all"):
            strategy.prepare(query)
            if strategy.proves_empty:
                probs = exact_probs(gaussian, points, delta)
                assert np.all(probs < theta)
                continue
            assert_sound(strategy, query, points)


# ----------------------------------------------------------------------
# One classify body per strategy: the kernel-backed one, on both backends
# ----------------------------------------------------------------------


@pytest.fixture(params=["c", "numpy"])
def backend(request, monkeypatch):
    """Run the test once per ``repro.kernels`` backend."""
    if request.param == "numpy":
        monkeypatch.setattr(kernels, "_LIB", None)
    elif kernels.BACKEND != "c":
        pytest.skip("no compiled kernel backend on this machine")
    return request.param


def oracle_codes(strategy, query, points):
    """Phase-2 codes from the geometry API, never through ``repro.kernels``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(strategy, BoundingFunctionStrategy):
        distances = np.linalg.norm(pts - query.center, axis=1)
        codes = np.full(pts.shape[0], UNKNOWN, dtype=np.int8)
        codes[distances > strategy.alpha_upper] = REJECT
        if strategy.alpha_lower is not None:
            codes[distances <= strategy.alpha_lower] = ACCEPT
        return codes
    if isinstance(strategy, RectilinearStrategy):
        inside = strategy.region.contains_points(pts)
    elif isinstance(strategy, ObliqueStrategy):
        inside = strategy.box.contains_points(pts)
    else:
        inside = strategy.ellipsoid.distance_to_surface(pts) <= query.delta
    return np.where(inside, UNKNOWN, REJECT).astype(np.int8)


def prepared(factory, query):
    strategy = factory()
    strategy.prepare(query)
    return strategy


STRATEGY_CLASSES = [
    RectilinearStrategy,
    ObliqueStrategy,
    BoundingFunctionStrategy,
    EllipsoidStrategy,
]


@pytest.mark.usefixtures("backend")
class TestClassifyMatchesGeometryOracle:
    @pytest.mark.parametrize("factory", STRATEGY_CLASSES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_random_block_empty_block_and_single_row(self, factory, dim):
        rng = np.random.default_rng(100 * dim + STRATEGY_CLASSES.index(factory))
        gaussian = Gaussian(rng.uniform(-5.0, 5.0, dim), random_spd(rng, dim))
        query = ProbabilisticRangeQuery(gaussian, 1.0 + dim, 0.01)
        strategy = prepared(factory, query)
        reach = 0.6 * strategy.search_rect().extents
        points = gaussian.mean + rng.uniform(-reach, reach, size=(600, dim))
        codes = strategy.classify(points)
        assert codes.dtype == np.int8
        np.testing.assert_array_equal(
            codes, oracle_codes(strategy, query, points)
        )
        assert len(set(codes.tolist())) > 1  # the block straddles the filter
        np.testing.assert_array_equal(
            strategy.classify_candidates(np.arange(len(points)), points), codes
        )
        assert strategy.classify(np.empty((0, dim))).shape == (0,)
        # A single candidate may arrive as a bare 1-D row.
        for row in points[:5]:
            np.testing.assert_array_equal(
                strategy.classify(row), oracle_codes(strategy, query, row)
            )

    def test_rr_on_every_face_and_rounded_corner(self):
        # Centre at the origin: a face point has one non-zero gap and the
        # 2-D corner arc two, so the kernel's row loop and the oracle's
        # einsum do the same arithmetic, to the last bit.
        query = ProbabilisticRangeQuery(
            Gaussian([0.0, 0.0], np.diag([9.0, 4.0])), 2.5, 0.05
        )
        strategy = prepared(RectilinearStrategy, query)
        core = strategy.region.core
        faces = [
            sign * (core.highs[axis] + query.delta) * np.eye(2)[axis]
            for axis in range(2)
            for sign in (-1.0, 1.0)
        ]
        angles = np.linspace(0.0, np.pi / 2.0, 9)
        arc = core.highs + query.delta * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        on = np.vstack([faces, arc, -arc, arc * [1, -1], arc * [-1, 1]])
        for scale, expected in ((1.0 - 1e-9, UNKNOWN), (1.0 + 1e-9, REJECT)):
            assert np.all(strategy.classify(on * scale) == expected)
        np.testing.assert_array_equal(
            strategy.classify(on), oracle_codes(strategy, query, on)
        )
        assert np.all(strategy.classify(np.array(faces)) == UNKNOWN)

    def test_or_on_every_face(self):
        # An axis-aligned Σ makes the eigenbasis a signed permutation, so
        # the rotation is exact whatever order it is summed in.
        query = ProbabilisticRangeQuery(
            Gaussian([0.0, 0.0, 0.0], np.diag([9.0, 4.0, 1.0])), 2.5, 0.05
        )
        strategy = prepared(ObliqueStrategy, query)
        box = strategy.box
        on = np.vstack(
            [sign * box.transform.to_world(np.diag(box.half_widths))
             for sign in (-1.0, 1.0)]
        )  # fmt: skip
        assert np.all(strategy.classify(on) == UNKNOWN)
        assert np.all(strategy.classify(on * (1.0 + 1e-9)) == REJECT)
        np.testing.assert_array_equal(
            strategy.classify(on), oracle_codes(strategy, query, on)
        )

    def test_bf_on_both_spheres(self):
        root3 = np.sqrt(3.0)
        sigma = 10.0 * np.array([[7.0, 2.0 * root3], [2.0 * root3, 3.0]])
        query = ProbabilisticRangeQuery(Gaussian([0.0, 0.0], sigma), 25.0, 0.01)
        strategy = prepared(BoundingFunctionStrategy, query)
        axes = np.vstack([np.eye(2), -np.eye(2)])
        for radius, on, beyond in (
            (strategy.alpha_lower, ACCEPT, UNKNOWN),
            (strategy.alpha_upper, UNKNOWN, REJECT),
        ):
            assert np.all(strategy.classify(radius * axes) == on)
            assert np.all(strategy.classify(radius * (1.0 + 1e-9) * axes) == beyond)
            np.testing.assert_array_equal(
                strategy.classify(radius * axes),
                oracle_codes(strategy, query, radius * axes),
            )

    def test_bf_without_inner_hole_and_proven_empty(self):
        eigenvalues = np.concatenate([[100.0], np.full(8, 0.01)])
        hollow = ProbabilisticRangeQuery(
            Gaussian(np.zeros(9), np.diag(eigenvalues)), 0.7, 0.4
        )
        strategy = prepared(BoundingFunctionStrategy, hollow)
        assert strategy.alpha_lower is None
        points = np.random.default_rng(5).normal(0.0, 12.0, size=(300, 9))
        codes = strategy.classify(points)
        np.testing.assert_array_equal(
            codes, oracle_codes(strategy, hollow, points)
        )
        assert set(codes.tolist()) == {REJECT, UNKNOWN}
        hopeless = ProbabilisticRangeQuery(
            Gaussian.isotropic([0.0, 0.0], 100.0), 0.1, 0.9
        )
        strategy = prepared(BoundingFunctionStrategy, hopeless)
        assert strategy.alpha_upper is None
        assert strategy.classify(np.zeros((4, 2))).tolist() == [REJECT] * 4
        assert strategy.classify(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("mode", ["off", "paper"])
    def test_rr_fringe_modes_skip_the_kernel_at_d3(self, mode, monkeypatch):
        if mode == "off":
            # No filter-less RR any more: "paper" is the one mode that
            # skips the kernel, and only beyond d = 2.
            with pytest.raises(QueryError):
                RectilinearStrategy(fringe_filter=mode)
            return

        def forbidden(*args):
            raise AssertionError("fringe filter is disabled at d = 3")

        monkeypatch.setattr(kernels, "minkowski_contains", forbidden)
        query = ProbabilisticRangeQuery(
            Gaussian(np.zeros(3), np.diag([9.0, 4.0, 1.0])), 2.0, 0.05
        )
        strategy = prepared(
            lambda: RectilinearStrategy(fringe_filter=mode), query
        )
        points = np.random.default_rng(3).uniform(-40, 40, size=(50, 3))
        for block in (points, points[0], np.empty((0, 3))):
            codes = strategy.classify(block)
            assert codes.dtype == np.int8
            assert codes.tolist() == [UNKNOWN] * np.atleast_2d(block).shape[0]
