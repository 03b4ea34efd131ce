"""The query-kind battery: every kind through the one pipeline.

Covers the `repro.core.kinds` contract (docs/query_types.md):

- oracle parity — each kind's unified-pipeline answers equal its
  brute-force oracle (exact convolved CDF, exact mixture sum, the
  all-objects k-NN win count with matched samples) across dimensions and
  integrators;
- filter soundness — no kind's Phase 1/2 ever drops a qualifying object
  or free-accepts a non-qualifying one;
- end-to-end determinism — mixed-kind `run_batch` across worker counts,
  sharded execution, serve round-trips, planner kind plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CascadeIntegrator,
    ExactIntegrator,
    Gaussian,
    GaussianMixture,
    KNNQuery,
    MixtureRangeQuery,
    ProbabilisticRangeQuery,
    SpatialDatabase,
    TargetCovarianceTable,
    UncertainObject,
    UncertainTargetQuery,
    probabilistic_nearest_neighbors,
    query_kind,
)
from repro.catalog.bf import alpha_radii
from repro.core.kinds import QUERY_KINDS, adapt_pipeline, query_legs
from repro.core.strategies import STRATEGY_COMBINATIONS, make_strategies
from repro.errors import QueryError
from repro.gaussian.quadform import qualification_probability_exact


def make_points(n, dim, seed=0, span=1000.0):
    return np.random.default_rng(seed).random((n, dim)) * span


def make_target_table(ids, dim, seed=5, n_groups=3, scale=40.0):
    """A few distinct target covariances spread over the object ids."""
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(n_groups):
        a = rng.normal(size=(dim, dim))
        sigmas.append(scale * (a @ a.T + np.eye(dim)))
    group_of = {int(i): int(i) % n_groups for i in ids}
    return TargetCovarianceTable(group_of, sigmas)


def paper_like_gaussian(dim, scale=900.0):
    sigma = scale * np.eye(dim)
    sigma[0, 0] *= 2.0
    return Gaussian(np.full(dim, 500.0), sigma)


# ----------------------------------------------------------------------
# Kind plumbing
# ----------------------------------------------------------------------


class TestKindTags:
    def test_vocabulary(self):
        assert QUERY_KINDS == ("prq", "uncertain", "mixture", "knn")

    def test_query_kind_reader(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        assert query_kind(ProbabilisticRangeQuery(g, 1.0, 0.1)) == "prq"
        assert query_kind(UncertainTargetQuery(g, 1.0, 0.1)) == "uncertain"
        mix = GaussianMixture([g])
        assert query_kind(MixtureRangeQuery.create(mix, 1.0, 0.1)) == "mixture"
        assert query_kind(KNNQuery.create(g, k=1, theta=0.2)) == "knn"

    def test_knn_validation(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(QueryError, match="k must be"):
            KNNQuery.create(g, k=0, theta=0.2)
        with pytest.raises(QueryError, match="n_samples"):
            KNNQuery.create(g, k=1, theta=0.2, n_samples=5)

    def test_mixture_requires_mixture(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(QueryError, match="GaussianMixture"):
            MixtureRangeQuery(g, 1.0, 0.1)

    def test_query_legs_require_targets(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        query = UncertainTargetQuery(g, 1.0, 0.1)
        with pytest.raises(QueryError, match="target"):
            query_legs(query, None)
        table = TargetCovarianceTable.shared(np.eye(3), range(5))
        with pytest.raises(QueryError, match="dimension"):
            query_legs(query, table)

    def test_kind_strategies_hand_back_the_rectangle_prepare_built(self):
        g = paper_like_gaussian(2)
        mix = GaussianMixture([g, g.shifted([80.0, -40.0])])
        query = MixtureRangeQuery.create(mix, 60.0, 0.05)
        (strategy,), _ = adapt_pipeline(
            query, make_strategies("all"), ExactIntegrator(), index=None
        )
        with pytest.raises(QueryError, match="before prepare"):
            strategy.search_rect()
        strategy.prepare(query)
        rect = strategy.search_rect()
        assert rect is not None and strategy.search_rect() is rect
        # Proven empty: the rectangle prepare stored is "none".
        empty = MixtureRangeQuery.create(mix, 1e-3, 0.999)
        (strategy,), _ = adapt_pipeline(
            empty, make_strategies("all"), ExactIntegrator(), index=None
        )
        strategy.prepare(empty)
        assert strategy.proves_empty and strategy.search_rect() is None
        # The group filter of an uncertain leg offers no rectangle at all.
        table = make_target_table(range(30), 2)
        (_, (group,)), *_ = query_legs(UncertainTargetQuery(g, 60.0, 0.05), table)
        with pytest.raises(QueryError, match="before prepare"):
            group.search_rect()
        group.prepare(query)
        assert group.search_rect() is None and not group.proves_empty

    def test_uncertain_without_table_fails_in_engine(self):
        db = SpatialDatabase(make_points(50, 2))
        query = UncertainTargetQuery(paper_like_gaussian(2), 60.0, 0.05)
        with pytest.raises(QueryError, match="target"):
            db.engine(strategies="all").execute(query)


class TestTargetCovarianceTable:
    def test_groups_and_max_eig(self):
        table = make_target_table(range(10), 2)
        assert table.n_groups == 3
        assert table.dim == 2
        assert len(table) == 10
        eigs = [np.linalg.eigvalsh(table.sigma(g))[-1] for g in range(3)]
        assert table.max_eig == pytest.approx(max(eigs))

    def test_unknown_id_raises(self):
        table = TargetCovarianceTable.shared(np.eye(2), [1, 2, 3])
        with pytest.raises(QueryError, match="no target covariance"):
            table.groups_for([1, 99])

    def test_validation(self):
        with pytest.raises(QueryError, match="at least one"):
            TargetCovarianceTable({}, [])
        with pytest.raises(QueryError, match="unknown covariance group"):
            TargetCovarianceTable({1: 2}, [np.eye(2)])
        with pytest.raises(QueryError, match="share one"):
            TargetCovarianceTable({1: 0}, [np.eye(2), np.eye(3)])

    def test_from_objects_dedupes(self):
        sigma = 4.0 * np.eye(2)
        objs = [UncertainObject(i, Gaussian([i, 0.0], sigma)) for i in range(5)]
        table = TargetCovarianceTable.from_objects(objs)
        assert table.n_groups == 1

    def test_database_dim_mismatch(self):
        table = TargetCovarianceTable.shared(np.eye(3), range(10))
        with pytest.raises(QueryError, match="dimension"):
            SpatialDatabase(make_points(10, 2), target_table=table)

    @pytest.mark.parametrize(
        "sigma, problem",
        [
            (-np.eye(2), "positive semi-definite"),
            (np.diag([4.0, -1e-3]), "positive semi-definite"),
            (np.array([[4.0, 1.0], [0.0, 4.0]]), "symmetric"),
            (np.full((2, 2), np.nan), "finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
        ],
        ids=["minus-identity", "negative-eigenvalue", "asymmetric", "nan", "inf"],
    )
    def test_rejects_invalid_covariances(self, sigma, problem):
        with pytest.raises(QueryError, match=problem):
            TargetCovarianceTable({0: 0, 1: 1}, [np.eye(2), sigma])
        with pytest.raises(QueryError, match=problem):
            TargetCovarianceTable.shared(sigma, range(4))

    def test_zero_covariance_is_an_exact_target(self):
        points = make_points(200, 2, seed=6)
        ids = np.arange(200)
        db = SpatialDatabase(
            points, ids=ids,
            target_table=TargetCovarianceTable.shared(np.zeros((2, 2)), ids),
        )
        gaussian = paper_like_gaussian(2)
        engine = db.engine(strategies="all", integrator=ExactIntegrator())
        uncertain = engine.execute(UncertainTargetQuery(gaussian, 60.0, 0.05))
        exact = engine.execute(ProbabilisticRangeQuery(gaussian, 60.0, 0.05))
        assert uncertain.ids == exact.ids and exact.ids

    def test_database_needs_a_group_for_every_id(self):
        table = TargetCovarianceTable.shared(40.0 * np.eye(2), range(50))
        with pytest.raises(QueryError, match="object id 50"):
            SpatialDatabase(make_points(100, 2), target_table=table)
        ids = np.arange(100, 200)
        with pytest.raises(QueryError, match="object id 100"):
            SpatialDatabase(make_points(100, 2), ids=ids, target_table=table)


# ----------------------------------------------------------------------
# Oracle parity + filter soundness, per kind
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "integrator", [ExactIntegrator(), CascadeIntegrator()],
    ids=["exact", "cascade"],
)
class TestUncertainOracleParity:
    def test_matches_exact_convolved_oracle(self, dim, integrator):
        points = make_points(250, dim, seed=dim)
        ids = np.arange(250)
        table = make_target_table(ids, dim, seed=dim + 1)
        db = SpatialDatabase(points, ids=ids, target_table=table)
        query = UncertainTargetQuery(paper_like_gaussian(dim), 90.0, 0.03)

        expected = []
        for i, point in zip(ids, points):
            convolved = Gaussian(
                query.center,
                query.gaussian.sigma + table.sigma(int(i) % 3),
            )
            prob = qualification_probability_exact(
                convolved, point, query.delta
            )
            if prob >= query.theta:
                expected.append(int(i))
        assert expected, "oracle answer set must be non-empty to be a test"

        for spec in ("all", "bf", "rr", "em", "auto"):
            result = db.engine(
                strategies=spec, integrator=integrator
            ).execute(query)
            assert list(result.ids) == expected, spec
            # One leg per covariance group, each behind its group filter.
            assert result.stats.rejected_by_filter.get("GROUP", 0) > 0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "integrator", [ExactIntegrator(), CascadeIntegrator()],
    ids=["exact", "cascade"],
)
class TestMixtureOracleParity:
    def test_matches_exact_mixture_oracle(self, dim, integrator):
        points = make_points(250, dim, seed=10 + dim)
        db = SpatialDatabase(points)
        comps = [
            Gaussian(np.full(dim, 300.0), 900.0 * np.eye(dim)),
            Gaussian(np.full(dim, 700.0), 400.0 * np.eye(dim)),
        ]
        mixture = GaussianMixture(comps, [1.0, 2.0])
        # 3-D qualification mass needs a larger reach to keep the oracle
        # answer set non-empty.
        query = MixtureRangeQuery.create(
            mixture, 80.0 if dim == 2 else 160.0, 0.04
        )

        expected = [
            i for i, point in enumerate(points)
            if mixture.qualification_probability(point, query.delta)
            >= query.theta
        ]
        assert expected

        for spec in ("all", "auto"):
            result = db.engine(
                strategies=spec, integrator=integrator
            ).execute(query)
            assert list(result.ids) == expected


def knn_oracle(points, gaussian, k, theta, n_samples, seed):
    """Win fractions over *all* objects, and which rows qualify.

    Shares no code with what it checks: the same samples, but no cut,
    direct distance differences ranked by a stable sort, and for k = 1
    the exact bisector restriction — each winner's half-space win
    probability against its four nearest other objects, from SciPy's
    normal CDF, must reach θ as well.
    """
    from scipy.stats import norm

    samples = gaussian.sample(n_samples, np.random.default_rng(seed))
    wins = np.zeros(len(points))
    for block in np.array_split(samples, max(1, n_samples // 100)):
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        np.add.at(wins, np.argsort(d2, axis=1, kind="stable")[:, :k].ravel(), 1)
    fractions = wins / n_samples
    qualify = fractions >= theta
    if k == 1:
        for i in np.nonzero(qualify)[0]:
            gaps = ((points - points[i]) ** 2).sum(axis=1)
            gaps[i] = np.inf
            o = points[i]
            for rival in points[np.argsort(gaps, kind="stable")[:4]]:
                normal = 2.0 * (rival - o)
                if not normal.any():
                    continue
                z = (rival @ rival - o @ o - normal @ gaussian.mean) / np.sqrt(
                    normal @ gaussian.sigma @ normal
                )
                qualify[i] &= norm.cdf(z) >= theta
    return fractions, qualify


def clustered_points(n, dim, seed):
    """Tight clusters around the k-NN test query's centre."""
    rng = np.random.default_rng(seed)
    centers = 500.0 + rng.normal(0.0, 60.0, (5, dim))
    return centers[rng.integers(0, 5, n)] + rng.normal(0.0, 15.0, (n, dim))


def assert_matches_oracle(db, points, gaussian, k, theta, n_samples, seed):
    fractions, qualify = knn_oracle(points, gaussian, k, theta, n_samples, seed)
    expected = sorted(np.nonzero(qualify)[0].tolist())
    found = probabilistic_nearest_neighbors(
        db, gaussian, k=k, theta=theta, n_samples=n_samples, seed=seed
    )
    assert sorted(c.obj_id for c in found) == expected
    for candidate in found:
        assert candidate.probability == fractions[candidate.obj_id]
    query = KNNQuery.create(
        gaussian, k=k, theta=theta, n_samples=n_samples, seed=seed
    )
    for spec in ("all", "auto"):
        assert list(db.engine(strategies=spec).execute(query).ids) == expected
    return expected


class TestKNNLegacyParity:
    """The ``knn`` kind and ``probabilistic_nearest_neighbors`` (one
    implementation) against the all-objects oracle, which replaced the
    legacy sampler as the reference."""

    @pytest.mark.parametrize("dim", [2, 3, 9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_legacy_sampler_bit_for_bit(self, dim, k):
        gaussian = paper_like_gaussian(dim)
        for points in (
            make_points(300, dim, seed=20 + dim),
            clustered_points(300, dim, seed=30 + dim),
        ):
            db = SpatialDatabase(points)
            assert_matches_oracle(db, points, gaussian, k, 0.05, 800, 9)

    def test_cut_keeps_a_far_winner(self):
        """The cut 2·R + kth(q) keeps an object opposite the farthest
        sample f that wins 34 of 2000 samples; R + kth(f) + R dropped it
        and reported the object at f with probability 1."""
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        samples = gaussian.sample(2000, np.random.default_rng(0))
        radii = np.linalg.norm(samples, axis=1)
        far, reach = samples[np.argmax(radii)], radii.max()
        points = np.array([far, -(2.0 * reach + 0.3) * far / reach])
        db = SpatialDatabase(points)
        expected = assert_matches_oracle(db, points, gaussian, 1, 0.015, 2000, 0)
        assert expected == [0, 1]
        found = probabilistic_nearest_neighbors(
            db, gaussian, k=1, theta=0.015, n_samples=2000, seed=0
        )
        assert [(c.obj_id, c.probability) for c in found] == [(0, 0.983), (1, 0.017)]

    def test_batches_and_shards_match_the_oracle(self):
        points = clustered_points(400, 2, seed=41)
        db = SpatialDatabase(points)
        gaussian = paper_like_gaussian(2)
        specs = [
            (k, theta, seed)
            for k in (1, 2, 3)
            for theta, seed in ((0.05, 3), (0.02, 4))
        ]
        expected = []
        for k, theta, seed in specs:
            _, qualify = knn_oracle(points, gaussian, k, theta, 600, seed)
            expected.append(tuple(np.nonzero(qualify)[0].tolist()))
        queries = [
            KNNQuery.create(gaussian, k=k, theta=theta, n_samples=600, seed=seed)
            for k, theta, seed in specs
        ]
        engine = db.engine(strategies="all", integrator=CascadeIntegrator())
        for workers in (1, 3):
            assert list(engine.run_batch(queries, workers=workers).ids) == expected
        with db.shard(2) as sharded:
            scattered = sharded.engine(
                strategies="all", integrator=CascadeIntegrator()
            ).run_batch(queries)
        assert list(scattered.ids) == expected


# ----------------------------------------------------------------------
# End-to-end: batch, shards, serve, planner
# ----------------------------------------------------------------------


def mixed_kind_queries(dim=2):
    gaussian = paper_like_gaussian(dim)
    mixture = GaussianMixture(
        [
            Gaussian(np.full(dim, 300.0), 900.0 * np.eye(dim)),
            Gaussian(np.full(dim, 700.0), 400.0 * np.eye(dim)),
        ],
        [1.0, 2.0],
    )
    return [
        ProbabilisticRangeQuery(gaussian, 60.0, 0.05),
        UncertainTargetQuery(gaussian, 60.0, 0.05),
        MixtureRangeQuery.create(mixture, 60.0, 0.05),
        KNNQuery.create(gaussian, k=2, theta=0.1, n_samples=400, seed=2),
    ]


def kinded_db(n=250, dim=2):
    ids = np.arange(n)
    return SpatialDatabase(
        make_points(n, dim, seed=1),
        ids=ids,
        target_table=TargetCovarianceTable.shared(50.0 * np.eye(dim), ids),
    )


class TestMixedKindExecution:
    def test_run_batch_worker_parity(self):
        db = kinded_db()
        queries = mixed_kind_queries()
        engine = db.engine(strategies="auto", integrator=CascadeIntegrator())
        baseline = engine.run_batch(queries, workers=1, base_seed=11)
        for workers in (2, 3):
            batch = engine.run_batch(queries, workers=workers, base_seed=11)
            for a, b in zip(baseline, batch):
                assert list(a.ids) == list(b.ids)

    def test_decision_tally_accounts_for_every_integration(self):
        """Phase 3 hands over a per-method tally and a sample total."""
        db = kinded_db()
        queries = mixed_kind_queries()
        # RR never free-accepts, so every kind leaves Phase 3 real work.
        engine = db.engine(strategies="rr", integrator=CascadeIntegrator())
        baseline = engine.run_batch(queries, workers=1, base_seed=11)
        labels = {
            "prq": {"cascade-sandwich", "cascade-ruben", "cascade-imhof"},
            "uncertain": {"cascade-sandwich", "cascade-ruben", "cascade-imhof"},
            "mixture": {"mixture(cascade)"},
            "knn": {"knn-cut", "knn-mc"},
        }
        for query, result in zip(queries, baseline):
            stats, kind = result.stats, query_kind(query)
            assert stats.integrations > 0, kind
            assert sum(stats.tier_decisions.values()) == stats.integrations
            assert set(stats.tier_decisions) <= labels[kind]
            if kind == "knn":
                competitors = stats.tier_decisions["knn-mc"]
                assert competitors > 0
                assert stats.integration_samples == query.n_samples * competitors
            else:
                assert stats.integration_samples == 0
        batch = engine.run_batch(queries, workers=3, base_seed=11)
        for a, b in zip(baseline, batch):
            assert a.ids == b.ids
            assert a.stats.tier_decisions == b.stats.tier_decisions
            for name in ("integrations", "integration_samples", "retrieved",
                         "rejected_by_filter", "accepted_without_integration"):  # fmt: skip
                assert getattr(a.stats, name) == getattr(b.stats, name), name

    def test_every_kind_executes_through_pipeline(self):
        """Each kind reports stage timings — proof it ran execute_pipeline."""
        db = kinded_db()
        engine = db.engine(strategies="all", integrator=ExactIntegrator())
        for query in mixed_kind_queries():
            stats = engine.execute(query).stats
            assert "search" in stats.phase_seconds, query_kind(query)

    def test_shard_parity(self):
        db = kinded_db()
        queries = mixed_kind_queries()
        single = db.engine(
            strategies="all", integrator=CascadeIntegrator()
        ).run_batch(queries, workers=1)
        with db.shard(2) as sharded:
            engine = sharded.engine(
                strategies="all", integrator=CascadeIntegrator()
            )
            scattered = engine.run_batch(queries, workers=1)
        for a, b in zip(single, scattered):
            assert list(a.ids) == list(b.ids)

    def test_serve_round_trip(self):
        from repro.serve import PRQRequest

        db = kinded_db()
        queries = mixed_kind_queries()
        direct = db.engine(
            strategies="all", integrator=CascadeIntegrator()
        ).run_batch(queries, workers=1)
        with db.serve(integrator=CascadeIntegrator()) as service:
            futures = [
                service.submit(PRQRequest.from_query(q)) for q in queries
            ]
            responses = [f.result() for f in futures]
        for result, response in zip(direct, responses):
            assert response.status == "ok"
            assert list(response.ids) == list(result.ids)

    def test_fingerprints_distinguish_kinds(self):
        from repro.serve import PRQRequest

        prints = {
            PRQRequest.from_query(q).fingerprint for q in mixed_kind_queries()
        }
        assert len(prints) == 4


class TestPlannerKindPlans:
    def test_kind_plans_are_distinct(self):
        """``auto`` is ALL for every range-shaped kind and the kind plan
        for k-NN."""
        db = kinded_db()
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        gaussian = paper_like_gaussian(2)
        everything = STRATEGY_COMBINATIONS["all"]

        prq_stats = engine.execute(
            ProbabilisticRangeQuery(gaussian, 60.0, 0.05)
        ).stats
        assert prq_stats.plan_strategies == everything

        # A single-group table: one leg, planned like any PRQ.
        ut_stats = engine.execute(
            UncertainTargetQuery(gaussian, 60.0, 0.05)
        ).stats
        assert ut_stats.plan_strategies == everything

        mixture = GaussianMixture(
            [gaussian, Gaussian(gaussian.mean + 40.0, gaussian.sigma)]
        )
        mix_stats = engine.execute(
            MixtureRangeQuery.create(mixture, 60.0, 0.05)
        ).stats
        assert mix_stats.plan_strategies == everything

        knn_stats = engine.execute(
            KNNQuery.create(gaussian, k=1, theta=0.2, n_samples=200)
        ).stats
        assert knn_stats.plan_strategies == ("KNN",)

    def test_cache_key_separates_target_tables(self):
        """Same query shape, different target spectra: the legs are
        different convolved PRQs, and the plan of each is still ALL —
        no plan depends on a leg's shape."""
        points = make_points(100, 2, seed=2)
        ids = np.arange(100)
        gaussian = paper_like_gaussian(2)
        query = UncertainTargetQuery(gaussian, 60.0, 0.05)
        legs, plans = [], []
        for scale in (10.0, 400.0):
            db = SpatialDatabase(
                points, ids=ids,
                target_table=TargetCovarianceTable.shared(
                    scale * np.eye(2), ids
                ),
            )
            ((leg, restrict),) = query_legs(query, db.targets)
            assert restrict == []
            legs.append(leg)
            plans.append(db.planner().plan(leg, ExactIntegrator()))
        assert not np.allclose(legs[0].gaussian.sigma, legs[1].gaussian.sigma)
        assert plans[0] == plans[1]
        assert plans[0].strategies == "all"

    def test_explain_renders_kind_plans(self):
        db = kinded_db()
        gaussian = paper_like_gaussian(2)
        # An uncertain explain is the explain of its convolved leg: BF's
        # radii are those of N(q, Σ_q + Σ_o).
        query = UncertainTargetQuery(gaussian, 60.0, 0.05)
        ut = db.engine(strategies="all", integrator=ExactIntegrator()).explain(
            query
        ).render()
        convolved = Gaussian(gaussian.mean, gaussian.sigma + 50.0 * np.eye(2))
        upper, lower = alpha_radii(convolved, 60.0, 0.05)
        assert f"BF: prune beyond {upper:.3f}, accept within {lower:.3f}" in ut
        engine = db.engine(strategies="auto", integrator=ExactIntegrator())
        # ``auto`` explains an uncertain query exactly as ALL does.
        assert engine.explain(query).render() == ut
        knn = engine.explain(
            KNNQuery.create(gaussian, k=1, theta=0.2, n_samples=200)
        ).render()
        assert "KNN" in knn

    def test_explain_describes_every_group_leg(self):
        points = make_points(250, 2, seed=2)
        ids = np.arange(250)
        table = make_target_table(ids, 2, seed=3)
        db = SpatialDatabase(points, ids=ids, target_table=table)
        query = UncertainTargetQuery(paper_like_gaussian(2), 90.0, 0.03)
        plan = db.engine(strategies="all", integrator=ExactIntegrator()).explain(
            query
        )
        assert plan.strategies == ("GROUP", "RR", "BF", "OR")
        text = plan.render()
        for group, (leg, _) in enumerate(query_legs(query, table)):
            upper, lower = alpha_radii(leg.gaussian, 90.0, 0.03)
            assert (
                f"group {group}: BF: prune beyond {upper:.3f}, "
                f"accept within {lower:.3f}"
            ) in text


class TestNoRegressionForPrq:
    def test_plain_prq_unchanged_by_target_table(self):
        """A prq query on a targets-carrying database ignores the table."""
        points = make_points(200, 2, seed=6)
        plain = SpatialDatabase(points)
        with_table = SpatialDatabase(
            points,
            target_table=TargetCovarianceTable.shared(
                50.0 * np.eye(2), range(200)
            ),
        )
        query = ProbabilisticRangeQuery(paper_like_gaussian(2), 60.0, 0.05)
        a = plain.engine(
            strategies="all", integrator=ExactIntegrator()
        ).execute(query)
        b = with_table.engine(
            strategies="all", integrator=ExactIntegrator()
        ).execute(query)
        assert list(a.ids) == list(b.ids)
        assert a.stats.retrieved == b.stats.retrieved
