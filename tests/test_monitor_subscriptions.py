"""Safe-region subscription monitoring: soundness, parity, degradation.

The load-bearing guarantee is *bit-parity*: whatever outcome a
subscription update takes (survived / reintegrated / replanned), the
returned ids must equal a cold full re-evaluation of the same query at
the updated location.  The trajectory batteries below drive random walks
through every outcome and check the oracle at every single step; the
shell-radius tests pin the underlying alpha-shell math against the exact
integrator; the degradation tests check that deadline-pressed answers
stay sound (certain ids ⊆ truth ⊆ certain ∪ interval-bounded) and that
the subscription recovers; the storm test is the CI monitor-smoke
workload.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.query import ProbabilisticRangeQuery
from repro.core.saferegion import (
    DECISION_REINTEGRATE,
    DECISION_REPLAN,
    DECISION_SURVIVED,
    SafeRegion,
    alpha_shell_radii,
)
from repro.errors import QueryError, ServiceError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.quadform import qualification_probability_exact
from repro.gaussian.radial import alpha_for_mass
from repro.integrate.cascade import CascadeIntegrator
from repro.integrate.exact import ExactIntegrator
from repro.obs import Observability
from repro.serve import (
    OUTCOME_DEGRADED,
    OUTCOME_REINTEGRATED,
    OUTCOME_REPLANNED,
    OUTCOME_SURVIVED,
    REQUEST_TYPES,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    SubscriptionManager,
)


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    rng = np.random.default_rng(42)
    return SpatialDatabase(rng.uniform(0.0, 1000.0, size=(6_000, 2)))


@pytest.fixture(scope="module")
def engine(database):
    return database.engine(integrator=CascadeIntegrator())


def make_manager(database, engine, **knobs) -> SubscriptionManager:
    return SubscriptionManager(database, engine, **knobs)


def cold_answer(engine, gaussian, delta, theta) -> tuple[int, ...]:
    """The oracle: a cold full evaluation at the given location."""
    query = ProbabilisticRangeQuery(gaussian, delta, theta)
    return engine.run_batch([query]).results[0].ids


def random_spd(rng, dim, scale=1.0) -> np.ndarray:
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(0.5, 2.0, size=dim) * scale
    return basis @ np.diag(eigs) @ basis.T


# ----------------------------------------------------------------------
# Alpha-shell radii: the safe region's mathematical foundation
# ----------------------------------------------------------------------


class TestAlphaShellRadii:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_radii_are_sound_against_exact_probability(self, dim, theta):
        """Inside r_accept ⇒ P ≥ θ; beyond r_reject ⇒ P < θ, exactly the
        certain-accept / certain-reject semantics classify relies on."""
        rng = np.random.default_rng(dim * 100 + int(theta * 10))
        gaussian = Gaussian(np.zeros(dim), random_spd(rng, dim))
        delta = 3.0
        r_accept, r_reject = alpha_shell_radii(gaussian, delta, theta)
        assert r_reject is not None and r_reject > 0
        direction = rng.normal(size=dim)
        # A Mahalanobis-unit direction: points at mahal distance m are
        # mean + m * (Σ^{1/2} u / ‖u‖ in whitened coords).
        unit = gaussian.basis @ (
            np.sqrt(gaussian.eigenvalues)
            * (direction / np.linalg.norm(direction))
        )
        probe = gaussian.mahalanobis(
            (gaussian.mean + unit).reshape(1, -1)
        )[0]
        unit = unit / probe  # exactly mahal length 1 now
        if r_accept is not None:
            for m in (0.25 * r_accept, 0.95 * r_accept):
                point = gaussian.mean + m * unit
                p = qualification_probability_exact(gaussian, point, delta)
                assert p >= theta - 1e-9
        for m in (1.05 * r_reject, 2.0 * r_reject):
            point = gaussian.mean + m * unit
            p = qualification_probability_exact(gaussian, point, delta)
            assert p < theta + 1e-9
        if r_accept is not None:
            assert r_accept <= r_reject + 1e-12

    def test_impossible_theta_yields_always_empty(self):
        """A huge covariance cannot concentrate δ-mass anywhere: no
        certain-accept shell and no reject radius (always empty)."""
        gaussian = Gaussian([0.0, 0.0], 1e6 * np.eye(2))
        r_accept, r_reject = alpha_shell_radii(gaussian, 1.0, 0.9)
        assert r_accept is None
        assert r_reject is None

    def test_validation(self):
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(QueryError):
            alpha_shell_radii(gaussian, -1.0, 0.5)
        with pytest.raises(QueryError):
            alpha_shell_radii(gaussian, 1.0, 1.5)


# ----------------------------------------------------------------------
# SafeRegion.classify: the O(1) update decision
# ----------------------------------------------------------------------


class TestClassify:
    def build_region(self, database, engine, gaussian, delta, theta):
        query = ProbabilisticRangeQuery(gaussian, delta, theta)
        answer = engine.run_batch([query]).results[0].ids
        from repro.core.stages import phase1_rect
        from repro.core.stats import QueryStats

        strategies = [s.clone() for s in engine.strategies]
        rect = phase1_rect(query, strategies, QueryStats(), dim=database.dim)
        return SafeRegion.build(
            query,
            answer,
            anchor_rect=rect,
            superset=SafeRegion.superset(rect, index=database.index),
        )

    def test_zero_shift_survives(self, database, engine):
        gaussian = Gaussian([500.0, 500.0], 2.0 * np.eye(2))
        region = self.build_region(database, engine, gaussian, 20.0, 0.5)
        decision = region.classify(np.array([500.0, 500.0]))
        assert decision.kind == DECISION_SURVIVED
        assert decision.shift == 0.0

    def test_covariance_change_replans(self, database, engine):
        gaussian = Gaussian([500.0, 500.0], 2.0 * np.eye(2))
        region = self.build_region(database, engine, gaussian, 20.0, 0.5)
        decision = region.classify(
            np.array([500.0, 500.0]), 3.0 * np.eye(2)
        )
        assert decision.kind == DECISION_REPLAN
        assert decision.reason == "covariance"
        same = region.classify(np.array([500.0, 500.0]), 2.0 * np.eye(2))
        assert same.kind == DECISION_SURVIVED

    def test_cache_overrun_replans(self, database, engine):
        gaussian = Gaussian([500.0, 500.0], 2.0 * np.eye(2))
        region = self.build_region(database, engine, gaussian, 20.0, 0.5)
        decision = region.classify(np.array([900.0, 900.0]))
        assert decision.kind == DECISION_REPLAN
        assert decision.reason == "cache-overrun"

    def test_small_shift_rechecks_only_low_slack_rows(self, database, engine):
        gaussian = Gaussian([500.0, 500.0], 2.0 * np.eye(2))
        region = self.build_region(database, engine, gaussian, 20.0, 0.5)
        decision = region.classify(np.array([500.4, 500.2]))
        assert decision.kind in (DECISION_SURVIVED, DECISION_REINTEGRATE)
        if decision.kind == DECISION_REINTEGRATE:
            assert decision.recheck is not None
            # Exactly the rows whose slack the shift exhausted.
            rechecked = set(decision.recheck.tolist())
            for row in range(region.ids.size):
                if region.slack[row] <= decision.shift:
                    assert row in rechecked
                else:
                    assert row not in rechecked

    def test_always_empty_region_survives_everything(self, database, engine):
        gaussian = Gaussian([500.0, 500.0], 1e6 * np.eye(2))
        region = self.build_region(database, engine, gaussian, 1.0, 0.9)
        assert region.always_empty
        assert region.answer == ()
        decision = region.classify(np.array([100.0, 900.0]))
        assert decision.kind == DECISION_SURVIVED

    def test_mismatched_mean_shape_raises(self, database, engine):
        gaussian = Gaussian([500.0, 500.0], 2.0 * np.eye(2))
        region = self.build_region(database, engine, gaussian, 20.0, 0.5)
        with pytest.raises(QueryError):
            region.classify(np.array([1.0, 2.0, 3.0]))


# ----------------------------------------------------------------------
# The tentpole guarantee: trajectory oracle bit-parity
# ----------------------------------------------------------------------


class TestTrajectoryParity:
    # Each spec prepares a different Phase-1 rectangle (EM's is the
    # ellipsoid's box), which the anchors cut their cached superset to;
    # every spec's answers must still be a cold run's.
    @pytest.mark.parametrize("spec", ["all", "rr", "bf", "em+bf"])
    @pytest.mark.parametrize(
        "sigma_scale,delta,theta,step_sd",
        [
            (0.25, 15.0, 0.5, 0.4),  # tight: survived-dominant
            (4.0, 25.0, 0.3, 2.5),  # loose eccentric: border-heavy
            (1.0, 20.0, 0.7, 8.0),  # large steps: replan-heavy
        ],
    )
    def test_every_step_matches_cold_evaluation(
        self, database, spec, sigma_scale, delta, theta, step_sd
    ):
        engine = database.engine(strategies=spec, integrator=CascadeIntegrator())
        rng = np.random.default_rng(int(sigma_scale * 10) + int(step_sd))
        sigma = random_spd(rng, 2, scale=sigma_scale)
        manager = make_manager(database, engine)
        position = rng.uniform(300.0, 700.0, size=2)
        response = manager.subscribe(
            Gaussian(position, sigma), delta, theta, subscription_id="traj"
        )
        assert response.status == STATUS_OK
        assert response.ids == cold_answer(
            engine, Gaussian(position, sigma), delta, theta
        )
        outcomes = set()
        for _ in range(50):
            position = position + rng.normal(0.0, step_sd, size=2)
            update = manager.update("traj", position)
            assert update.status == STATUS_OK
            outcomes.add(update.outcome)
            assert update.ids == cold_answer(
                engine, Gaussian(position, sigma), delta, theta
            ), f"outcome {update.outcome} diverged from cold evaluation"
        assert outcomes <= {
            OUTCOME_SURVIVED,
            OUTCOME_REINTEGRATED,
            OUTCOME_REPLANNED,
        }

    def test_survived_answers_are_the_anchor_answer(self, database, engine):
        """When classify proves survival, the committed answer must be
        exactly the anchor's — and exactly the cold truth."""
        rng = np.random.default_rng(77)
        sigma = 0.25 * np.eye(2)
        manager = make_manager(database, engine)
        position = np.array([480.0, 510.0])
        manager.subscribe(
            Gaussian(position, sigma), 15.0, 0.5, subscription_id="s"
        )
        survived = 0
        for _ in range(60):
            position = position + rng.normal(0.0, 0.05, size=2)
            update = manager.update("s", position)
            if update.outcome == OUTCOME_SURVIVED:
                survived += 1
                assert update.rechecked == 0
                assert update.added == () and update.removed == ()
                assert update.ids == cold_answer(
                    engine, Gaussian(position, sigma), 15.0, 0.5
                )
        assert survived > 0, "step size chosen to exercise the O(1) path"

    def test_same_shape_reanchors_hit_the_radius_memo(
        self, database, engine, eigh_calls
    ):
        """Shell and BF radii depend on (Σ, δ, θ) alone, so a reintegrate
        re-anchor and a cache-overrun replan of an unchanged shape add
        hits, never misses, to the one α memo — and the moved query keeps
        the subscription's one decomposition of Σ."""
        rng = np.random.default_rng(5)
        sigma = random_spd(rng, 2, scale=4.0)
        manager = make_manager(database, engine)
        position = np.array([500.0, 500.0])
        manager.subscribe(
            Gaussian(position, sigma), 25.0, 0.3, subscription_id="memo"
        )
        reanchored = set()
        for step in range(30):
            jump = 150.0 if step % 10 == 9 else 0.0
            position = position + rng.normal(0.0, 2.5, size=2) + jump
            before = alpha_for_mass.cache_info()
            eigh_calls.clear()
            update = manager.update("memo", position)
            after = alpha_for_mass.cache_info()
            assert after.misses == before.misses
            assert eigh_calls == [], update.outcome
            if update.outcome != OUTCOME_SURVIVED:
                assert after.hits > before.hits
                reanchored.add(update.outcome)
        assert reanchored == {OUTCOME_REINTEGRATED, OUTCOME_REPLANNED}

    def test_covariance_update_replans_and_stays_exact(
        self, database, engine
    ):
        manager = make_manager(database, engine)
        position = np.array([500.0, 500.0])
        manager.subscribe(
            Gaussian(position, 1.0 * np.eye(2)), 20.0, 0.5,
            subscription_id="cov",
        )
        new_sigma = 3.0 * np.eye(2)
        update = manager.update("cov", position + 1.0, new_sigma)
        assert update.outcome == OUTCOME_REPLANNED
        assert update.ids == cold_answer(
            engine, Gaussian(position + 1.0, new_sigma), 20.0, 0.5
        )
        # The new covariance is now the anchor: repeating it is no longer
        # a structural change.
        again = manager.update("cov", position + 1.05, new_sigma)
        assert again.outcome != OUTCOME_REPLANNED or again.shift > 0

    @pytest.mark.parametrize("method", ["cascade", "exact"])
    def test_parity_holds_for_every_deterministic_integrator(
        self, database, method
    ):
        integrator = (
            CascadeIntegrator() if method == "cascade" else ExactIntegrator()
        )
        engine = database.engine(integrator=integrator)
        manager = make_manager(database, engine)
        rng = np.random.default_rng(5)
        position = np.array([620.0, 380.0])
        sigma = random_spd(rng, 2, scale=1.5)
        manager.subscribe(
            Gaussian(position, sigma), 18.0, 0.4, subscription_id="det"
        )
        for _ in range(12):
            position = position + rng.normal(0.0, 1.0, size=2)
            update = manager.update("det", position)
            assert update.ids == cold_answer(
                engine, Gaussian(position, sigma), 18.0, 0.4
            )

    def test_empty_region_far_from_data(self, database, engine):
        """A subscription whose query can never match stays empty and
        cheap across arbitrary motion."""
        manager = make_manager(database, engine)
        gaussian = Gaussian([5000.0, 5000.0], 0.5 * np.eye(2))
        response = manager.subscribe(
            gaussian, 10.0, 0.5, subscription_id="far"
        )
        assert response.ids == ()
        update = manager.update("far", [5100.0, 4900.0])
        assert update.status == STATUS_OK
        assert update.ids == ()


# ----------------------------------------------------------------------
# Degradation: sound partial answers under deadline pressure
# ----------------------------------------------------------------------


class TestDegradation:
    def test_deadline_pressure_degrades_soundly_and_recovers(
        self, database, engine
    ):
        # Before any reintegration has been timed the manager predicts
        # its cold 0.005 s prior (× the 2.0 safety factor), so a 1 ms
        # deadline degrades deterministically, whatever the host speed.
        manager = make_manager(database, engine)
        sigma = 4.0 * np.eye(2)
        position = np.array([500.0, 500.0])
        manager.subscribe(
            Gaussian(position, sigma), 25.0, 0.4, subscription_id="d"
        )
        moved = position + np.array([1.5, -1.0])
        update = manager.update("d", moved, deadline=0.001)
        assert update.status == STATUS_DEGRADED
        assert update.outcome == OUTCOME_DEGRADED
        assert update.stale
        truth = set(cold_answer(engine, Gaussian(moved, sigma), 25.0, 0.4))
        certain = set(update.ids)
        undecided = {obj: (lo, hi) for obj, lo, hi in update.bounds}
        assert certain <= truth
        assert truth <= certain | set(undecided)
        exact = ExactIntegrator()
        for obj, (lo, hi) in undecided.items():
            assert lo < 0.4 <= hi  # genuinely undecided against theta
            p = exact.qualification_probabilities(
                Gaussian(moved, sigma),
                database.point(obj).reshape(1, -1),
                25.0,
            )[0].estimate
            assert lo - 1e-9 <= p <= hi + 1e-9
        # The committed answer was not perturbed: notify echoes the
        # anchor answer, flagged stale.
        note = manager.notify("d")
        assert note.stale
        # An unconstrained update re-converges and clears staleness.
        recovered = manager.update("d", moved)
        assert recovered.status == STATUS_OK
        assert set(recovered.ids) == truth
        assert not manager.notify("d").stale

    def test_replans_never_degrade(self, database, engine):
        """A structural break (covariance change) executes fully even
        under a deadline that would degrade a reintegration."""
        manager = make_manager(database, engine)
        position = np.array([500.0, 500.0])
        manager.subscribe(
            Gaussian(position, np.eye(2)), 20.0, 0.5, subscription_id="r"
        )
        update = manager.update(
            "r", position, 2.0 * np.eye(2), deadline=0.001
        )
        assert update.status == STATUS_OK
        assert update.outcome == OUTCOME_REPLANNED

    def test_degrade_disabled_runs_fully(self, database, engine):
        manager = make_manager(database, engine, degrade=False)
        position = np.array([500.0, 500.0])
        manager.subscribe(
            Gaussian(position, np.eye(2)), 20.0, 0.5, subscription_id="f"
        )
        update = manager.update("f", position + 0.5, deadline=0.001)
        assert update.status == STATUS_OK


# ----------------------------------------------------------------------
# Manager contract: gates, lifecycle, service integration
# ----------------------------------------------------------------------


class TestManagerContract:
    def test_sampling_integrator_is_rejected(self, database):
        from repro.integrate.importance import ImportanceSamplingIntegrator

        engine = database.engine(
            integrator=ImportanceSamplingIntegrator(seed=0)
        )
        manager = make_manager(database, engine)
        with pytest.raises(ServiceError, match="composition-independent"):
            manager.subscribe(Gaussian([0.0, 0.0], np.eye(2)), 5.0, 0.5)

    def test_kinded_queries_are_rejected(self, database, engine, monkeypatch):
        import repro.serve.monitor as monitor_mod

        manager = make_manager(database, engine)
        monkeypatch.setattr(monitor_mod, "query_kind", lambda _query: "knn")
        with pytest.raises(ServiceError, match="exact-target"):
            manager.subscribe(Gaussian([500.0, 500.0], np.eye(2)), 5.0, 0.5)

    def test_dimension_mismatch_raises(self, database, engine):
        manager = make_manager(database, engine)
        with pytest.raises(QueryError, match="dimension"):
            manager.subscribe(Gaussian([0.0, 0.0, 0.0], np.eye(3)), 5.0, 0.5)

    def test_duplicate_subscription_id_raises(self, database, engine):
        manager = make_manager(database, engine)
        gaussian = Gaussian([500.0, 500.0], np.eye(2))
        manager.subscribe(gaussian, 10.0, 0.5, subscription_id="dup")
        with pytest.raises(ServiceError, match="already exists"):
            manager.subscribe(gaussian, 10.0, 0.5, subscription_id="dup")

    def test_unknown_subscription_is_a_failed_response(
        self, database, engine
    ):
        manager = make_manager(database, engine)
        for response in (
            manager.update("ghost", [0.0, 0.0]),
            manager.unsubscribe("ghost"),
            manager.notify("ghost"),
        ):
            assert response.status == STATUS_FAILED
            assert "ghost" in str(response.error)

    @pytest.mark.parametrize("deadline", [-1.0, float("nan")])
    def test_bad_update_deadline_is_a_failed_response(
        self, database, engine, deadline
    ):
        """A negative or NaN deadline fails like an unknown id, with the
        message PRQRequest gives; it neither degrades the answer nor reads
        as "no deadline"."""
        manager = make_manager(database, engine)
        position = np.array([500.0, 500.0])
        manager.subscribe(
            Gaussian(position, 4.0 * np.eye(2)), 25.0, 0.4, subscription_id="a"
        )
        before = manager.snapshot()
        response = manager.update("a", position + 1.0, deadline=deadline)
        assert response.status == STATUS_FAILED
        assert isinstance(response.error, ServiceError)
        assert "deadline must be >= 0 seconds" in str(response.error)
        after = manager.snapshot()
        assert after.failed == before.failed + 1
        assert after.updates == before.updates
        assert not manager.notify("a").stale

    def test_auto_assigned_keys_and_len(self, database, engine):
        manager = make_manager(database, engine)
        gaussian = Gaussian([500.0, 500.0], np.eye(2))
        first = manager.subscribe(gaussian, 10.0, 0.5)
        second = manager.subscribe(gaussian, 12.0, 0.5)
        assert first.subscription_id != second.subscription_id
        assert len(manager) == 2
        manager.unsubscribe(first.subscription_id)
        assert len(manager) == 1

    def test_handle_dispatches_and_wraps_misuse(self, database, engine):
        """Each verb threads its request id; an unknown id is a failed
        answer the monitor counts, while misuse raises a typed error
        before the monitor answers (``repro serve`` turns it into a
        failed row) and leaves the counters alone."""
        manager = make_manager(database, engine)
        gaussian = Gaussian([500.0, 500.0], np.eye(2))
        response = manager.subscribe(
            gaussian, 10.0, 0.5, subscription_id="h", request_id="r1"
        )
        assert response.status == STATUS_OK and response.request_id == "r1"
        update = manager.update("h", [500.5, 500.0], request_id="r2")
        assert update.status == STATUS_OK and update.request_id == "r2"
        assert manager.notify("h", request_id="r3").ids == update.ids
        assert manager.unsubscribe("h", request_id="r4").status == STATUS_OK
        assert manager.notify("h").status == STATUS_FAILED
        assert manager.snapshot().failed == 1
        with pytest.raises(QueryError, match="dimension"):
            manager.subscribe(Gaussian([0.0, 0.0, 0.0], np.eye(3)), 5.0, 0.5)
        manager.subscribe(gaussian, 10.0, 0.5, subscription_id="h")
        with pytest.raises(ServiceError, match="already exists"):
            manager.subscribe(gaussian, 10.0, 0.5, subscription_id="h")
        assert manager.snapshot().failed == 1

    def test_request_validation(self, database, engine):
        """``repro serve`` rejects a malformed monitor line before any
        verb runs."""
        from repro.cli import _monitor_row

        manager = make_manager(database, engine)
        for spec, error in (
            ({"type": "bogus", "sub": "x"}, "unknown request type"),
            ({"type": "subscribe", "center": [0.0, 0.0]}, "delta"),
            ({"type": "update", "center": [0.0, 0.0]}, "needs \"sub\""),
            ({"type": "update", "sub": "x"}, "center"),
            ({"type": "update", "sub": "x", "center": [0.0, 0.0],
              "deadline_ms": -1}, "deadline must be >= 0"),
        ):  # fmt: skip
            with pytest.raises((KeyError, ValueError, ServiceError), match=error):
                _monitor_row(manager, spec, 2, 0)
        assert manager.snapshot() == make_manager(database, engine).snapshot()
        assert len(REQUEST_TYPES) == 4

    def test_response_to_dict_round_trips_json(self, database, engine):
        manager = make_manager(database, engine)
        gaussian = Gaussian([500.0, 500.0], np.eye(2))
        response = manager.subscribe(gaussian, 10.0, 0.5, request_id=7)
        row = json.loads(json.dumps(response.to_dict()))
        assert row["status"] == "ok" and row["type"] == "subscribe"
        update = manager.update(
            response.subscription_id, [500.2, 500.1], request_id=8
        )
        row = json.loads(json.dumps(update.to_dict()))
        assert row["outcome"] in (
            OUTCOME_SURVIVED,
            OUTCOME_REINTEGRATED,
            OUTCOME_REPLANNED,
        )
        assert "shift" in row and "rechecked" in row

    def test_service_owns_a_manager_sharing_engine_and_answers(
        self, database
    ):
        from repro.serve import PRQRequest

        with database.serve(workers=2) as service:
            gaussian = Gaussian([420.0, 580.0], 2.0 * np.eye(2))
            sub = service.monitor.subscribe(
                gaussian, 20.0, 0.5, subscription_id="svc"
            )
            direct = service.submit(PRQRequest(gaussian, 20.0, 0.5))
            direct = direct.result(timeout=30)
            assert sub.ids == direct.ids
            update = service.monitor.update("svc", [421.0, 579.5])
            assert update.status == STATUS_OK
            assert service.monitor.snapshot().updates == 1

    def test_stats_counters_accumulate(self, database, engine):
        manager = make_manager(database, engine)
        gaussian = Gaussian([500.0, 500.0], 0.25 * np.eye(2))
        manager.subscribe(gaussian, 15.0, 0.5, subscription_id="c")
        rng = np.random.default_rng(3)
        position = np.array([500.0, 500.0])
        for _ in range(10):
            position = position + rng.normal(0.0, 0.3, size=2)
            manager.update("c", position)
        stats = manager.snapshot()
        assert stats.subscribed == 1
        assert stats.updates == 10
        assert stats.survived + stats.reintegrated + stats.replanned == 10
        assert stats.active_subscriptions == 1


# ----------------------------------------------------------------------
# Telemetry: metrics and the monitor:update span
# ----------------------------------------------------------------------


class TestTelemetry:
    def test_update_metrics_and_span(self, database):
        obs = Observability(trace=True, metrics=True)
        engine = database.engine(integrator=CascadeIntegrator(), obs=obs)
        manager = make_manager(database, engine, obs=obs)
        gaussian = Gaussian([500.0, 500.0], np.eye(2))
        manager.subscribe(gaussian, 15.0, 0.5, subscription_id="t")
        manager.update("t", [500.3, 500.1])
        manager.update("t", [500.6, 500.2])
        rendered = obs.render_metrics()
        assert "repro_monitor_updates_total" in rendered
        assert "repro_monitor_update_seconds" in rendered
        assert "repro_monitor_rechecked_candidates" in rendered
        assert "repro_monitor_subscriptions" in rendered
        spans = [s for s in obs.tracer.spans if s.name == "monitor:update"]
        assert len(spans) == 2
        for span in spans:
            assert span.attributes["subscription"] == "t"
            assert span.attributes["outcome"] in (
                OUTCOME_SURVIVED,
                OUTCOME_REINTEGRATED,
                OUTCOME_REPLANNED,
            )
            assert "rechecked" in span.attributes

    def test_subscription_gauge_tracks_population(self, database):
        obs = Observability(metrics=True)
        engine = database.engine(integrator=CascadeIntegrator())
        manager = make_manager(database, engine, obs=obs)
        gaussian = Gaussian([500.0, 500.0], np.eye(2))
        manager.subscribe(gaussian, 15.0, 0.5, subscription_id="g1")
        manager.subscribe(gaussian, 16.0, 0.5, subscription_id="g2")
        assert 'repro_monitor_subscriptions 2' in obs.render_metrics()
        manager.unsubscribe("g1")
        assert 'repro_monitor_subscriptions 1' in obs.render_metrics()


# ----------------------------------------------------------------------
# Sharded routing: updates scatter like any other query
# ----------------------------------------------------------------------


class TestSharded:
    def test_sharded_subscription_matches_single_process(self, database):
        sharded = database.shard(2)
        try:
            engine = sharded.engine(integrator=CascadeIntegrator())
            single = database.engine(integrator=CascadeIntegrator())
            manager = make_manager(sharded, engine)
            rng = np.random.default_rng(9)
            position = np.array([550.0, 450.0])
            sigma = random_spd(rng, 2, scale=1.0)
            sub = manager.subscribe(
                Gaussian(position, sigma), 18.0, 0.4, subscription_id="sh"
            )
            assert sub.ids == cold_answer(
                single, Gaussian(position, sigma), 18.0, 0.4
            )
            outcomes = set()
            for _ in range(12):
                position = position + rng.normal(0.0, 2.0, size=2)
                update = manager.update("sh", position)
                outcomes.add(update.outcome)
                assert update.ids == cold_answer(
                    single, Gaussian(position, sigma), 18.0, 0.4
                )
            assert outcomes  # at least one outcome exercised end-to-end
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# One path: anchors decide their own rows, never through an engine batch
# ----------------------------------------------------------------------


class TestOnePath:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_anchors_prepare_once_and_never_run_an_engine_batch(
        self, database, shards, monkeypatch
    ):
        """Subscribe, reintegrate and replan (a covariance change and a
        cache overrun) with every engine batch path raising: each anchor
        prepares each strategy once and searches the index at most once,
        and every answer equals a cold, unpatched ``run_batch``."""
        from repro.core.engine import QueryEngine
        from repro.shard.engine import ShardedEngine, ShardPool

        sharded = database.shard(shards) if shards else None
        try:
            engine = (sharded or database).engine(integrator=CascadeIntegrator())
            manager = make_manager(sharded or database, engine)
            prepared: list[str] = []
            searches: list[int] = []

            def boom(*args, **kwargs):
                raise AssertionError("the monitor ran an engine batch path")

            for owner in (QueryEngine, ShardedEngine):
                monkeypatch.setattr(owner, "run_batch", boom)
            monkeypatch.setattr(ShardPool, "run", boom)
            for cls in {type(s) for s in engine.strategies}:
                def counted(self, query, _prepare=cls.prepare):
                    prepared.append(self.name)
                    return _prepare(self, query)

                monkeypatch.setattr(cls, "prepare", counted)
            search = database.index.range_search_rect
            monkeypatch.setattr(
                database.index,
                "range_search_rect",
                lambda rect: searches.append(1) or search(rect),
            )

            names = sorted(s.name for s in engine.strategies)
            sigma = random_spd(np.random.default_rng(21), 2, scale=2.0)
            position = np.array([520.0, 480.0])
            steps = [(position, sigma, "subscribe")]
            for move, new_sigma in [
                ((0.0, 0.0), None),
                ((0.3, -0.2), None),
                ((0.4, 0.3), None),
                ((0.5, 0.1), 3.0 * np.eye(2)),  # covariance change
                ((0.2, 0.2), None),
                ((150.0, -90.0), None),  # cache overrun
                ((0.3, 0.1), None),
            ]:
                position = position + np.array(move)
                sigma = sigma if new_sigma is None else new_sigma
                steps.append((position, new_sigma, "update"))
            answers, outcomes = [], []
            for mean, new_sigma, verb in steps:
                prepared.clear()
                searches.clear()
                if verb == "subscribe":
                    response = manager.subscribe(
                        Gaussian(mean, new_sigma), 20.0, 0.4, subscription_id="p"
                    )
                    assert len(searches) == 1
                else:
                    response = manager.update("p", mean, new_sigma)
                    assert len(searches) <= 1
                assert response.status == STATUS_OK, response.error
                answers.append(response.ids)
                outcomes.append(response.outcome)
                if response.outcome == OUTCOME_SURVIVED:
                    assert prepared == [] and searches == []
                else:
                    assert sorted(prepared) == names, response.outcome
                if response.outcome == OUTCOME_REINTEGRATED:
                    assert searches == []
            assert outcomes == [
                "",
                OUTCOME_SURVIVED,
                OUTCOME_REINTEGRATED,
                OUTCOME_REINTEGRATED,
                OUTCOME_REPLANNED,
                OUTCOME_REINTEGRATED,
                OUTCOME_REPLANNED,
                OUTCOME_REINTEGRATED,
            ]
            monkeypatch.undo()
            sigma = steps[0][1]
            for (mean, new_sigma, _), answer in zip(steps, answers):
                sigma = sigma if new_sigma is None else new_sigma
                assert answer == cold_answer(engine, Gaussian(mean, sigma), 20.0, 0.4)
        finally:
            if sharded is not None:
                sharded.close()


# ----------------------------------------------------------------------
# Update storm: the CI monitor-smoke workload
# ----------------------------------------------------------------------


class TestUpdateStorm:
    def test_fleet_storm_counters_and_spot_checked_parity(
        self, database, engine
    ):
        """A fleet of standing subscriptions across update storms: the
        outcome counters must account for every update, and sampled
        updates must match cold evaluation exactly."""
        manager = make_manager(database, engine)
        rng = np.random.default_rng(1234)
        fleet = 40
        positions = rng.uniform(200.0, 800.0, size=(fleet, 2))
        sigma = 0.5 * np.eye(2)
        delta, theta = 18.0, 0.5
        for key in range(fleet):
            response = manager.subscribe(
                Gaussian(positions[key], sigma), delta, theta,
                subscription_id=key,
            )
            assert response.status == STATUS_OK
        checked = 0
        for step in range(8):
            positions += rng.normal(0.0, 0.6, size=positions.shape)
            for key in range(fleet):
                update = manager.update(key, positions[key])
                assert update.status == STATUS_OK
                if (step * fleet + key) % 37 == 0:
                    checked += 1
                    assert update.ids == cold_answer(
                        engine, Gaussian(positions[key], sigma), delta, theta
                    )
        assert checked >= 8
        stats = manager.snapshot()
        assert stats.updates == fleet * 8
        assert (
            stats.survived + stats.reintegrated + stats.replanned + stats.degraded
            == fleet * 8
        )
        assert stats.survived > 0, "storm tuned to exercise the O(1) path"
        assert stats.reintegrated > 0
        assert stats.active_subscriptions == fleet
        for key in range(fleet):
            assert manager.unsubscribe(key).status == STATUS_OK
        assert len(manager) == 0
