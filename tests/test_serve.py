"""The embedded query service: parity, backpressure, deadlines, caching.

The service's contract (docs/serving.md): non-degraded responses are
bit-identical to direct ``run_batch`` execution regardless of coalescing;
a full queue answers ``overloaded`` without blocking; expired deadlines
answer ``deadline_exceeded``; degraded responses carry rigorous sandwich
probability bounds; failures are typed responses, never scheduler hangs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    QueryError,
    ServiceClosedError,
    ServiceError,
)
from repro.gaussian.distribution import Gaussian
from repro.integrate.cascade import CascadeIntegrator
from repro.integrate.exact import ExactIntegrator
from repro.obs import Observability
from repro.serve import (
    AdmissionQueue,
    CostTracker,
    PRQRequest,
    ResultCache,
    ServiceConfig,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_OVERLOADED,
)


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    rng = np.random.default_rng(42)
    return SpatialDatabase(rng.random((2_000, 2)) * 1000.0)


class FakeClock:
    """Deterministic stand-in for ``time.monotonic``.

    Injected via ``database.serve(..., clock=clock)``: every deadline
    decision and latency figure then reads this clock, so the deadline
    tests below assert scheduling *policy*, not wall-clock luck on a
    loaded CI machine.  ``step`` advances the clock on every read
    (simulating a fixed per-operation latency); ``advance`` moves it
    explicitly.
    """

    def __init__(self, start: float = 1_000.0, step: float = 0.0):
        self._now = start
        self._step = step
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            now = self._now
            self._now += self._step
            return now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


def make_requests(n: int, seed: int = 0, **envelope) -> list[PRQRequest]:
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        center = rng.random(2) * 900.0 + 50.0
        scale = float(rng.choice([2.0, 5.0, 20.0]))
        requests.append(PRQRequest(
            Gaussian(center, scale * np.eye(2)),
            float(rng.choice([5.0, 10.0])),
            float(rng.choice([0.1, 0.3])),
            request_id=i,
            **envelope,
        ))
    return requests


class TestParity:
    def test_coalesced_responses_match_direct_run_batch(self, database):
        """Bit-identical to the engine for any batching configuration."""
        requests = make_requests(24, seed=1)
        direct = database.engine(integrator=CascadeIntegrator()).run_batch(
            [r.query for r in requests], workers=1
        )
        for max_batch in (1, 4, 32):
            with database.serve(
                max_batch=max_batch, batch_window=0.001,
                integrator=CascadeIntegrator(), cache_size=0, degrade=False,
            ) as service:
                futures = [service.submit(r) for r in requests]
                responses = [f.result(timeout=30) for f in futures]
            assert all(r.status == STATUS_OK for r in responses)
            assert tuple(r.ids for r in responses) == direct.ids, (
                f"diverged at max_batch={max_batch}"
            )

    def test_sampling_results_independent_of_coalescing(self, database):
        """Fingerprint-derived seeds: a sampling integrator returns the
        same answer whether the request rides alone or in a batch."""
        from repro.integrate.importance import ImportanceSamplingIntegrator

        request = make_requests(1, seed=9)[0]
        outcomes = []
        for max_batch in (1, 8):
            with database.serve(
                max_batch=max_batch, batch_window=0.001,
                integrator=ImportanceSamplingIntegrator(5_000),
                cache_size=0, degrade=False,
            ) as service:
                padding = make_requests(7, seed=10)
                futures = [service.submit(r) for r in [request] + padding]
                outcomes.append(futures[0].result(timeout=30).ids)
        assert outcomes[0] == outcomes[1]

    def test_in_flight_duplicates_coalesce_to_one_execution(self, database):
        request = make_requests(1, seed=4)[0]
        copies = [
            PRQRequest(
                request.gaussian, request.delta, request.theta, request_id=i
            )
            for i in range(10)
        ]
        with database.serve(
            max_batch=16, batch_window=0.05,
            integrator=CascadeIntegrator(), cache_size=0, degrade=False,
        ) as service:
            futures = [service.submit(r) for r in copies]
            responses = [f.result(timeout=30) for f in futures]
            stats = service.snapshot()
        assert len({r.ids for r in responses}) == 1
        assert [r.request_id for r in responses] == list(range(10))
        assert stats.executed + stats.deduplicated == 10
        assert stats.deduplicated >= 1


class TestAdmissionControl:
    def test_full_queue_rejects_with_typed_response(self, database):
        """Backpressure: submits never block; beyond the bound every
        request resolves immediately as ``overloaded``."""
        requests = make_requests(30, seed=2)
        gate = threading.Event()

        class GatedIntegrator(CascadeIntegrator):
            # fork() runs once per executed request (decide() only runs
            # when Phase 3 has candidates), so gating it guarantees the
            # scheduler is blocked while the submit burst lands.
            def fork(self, seed):
                gate.wait(timeout=30)
                return super().fork(seed)

        with database.serve(
            max_queue=4, max_batch=2, batch_window=0.0,
            integrator=GatedIntegrator(), cache_size=0, degrade=False,
        ) as service:
            futures = [service.submit(r) for r in requests]
            overloaded = [
                f.result(timeout=1)
                for f in futures
                if f.done() and f.result().status == STATUS_OVERLOADED
            ]
            # Bounded queue + 30 instant submits: most must be shed, and
            # each rejection carries the typed error, not an exception.
            assert len(overloaded) >= 30 - (4 + 2 + 1)
            for response in overloaded:
                assert isinstance(response.error, OverloadedError)
                assert not response.ok
            gate.set()
            served = [f.result(timeout=30) for f in futures]
        assert all(
            r.status in (STATUS_OK, STATUS_OVERLOADED) for r in served
        )
        assert any(r.status == STATUS_OK for r in served)

    def test_admission_queue_priority_order(self):
        class Item:
            def __init__(self, priority, tag):
                self.priority = priority
                self.tag = tag

        queue = AdmissionQueue(max_queue=8)
        for priority, tag in [(0, "a"), (2, "b"), (1, "c"), (2, "d")]:
            assert queue.offer(Item(priority, tag))
        batch = queue.next_batch(max_batch=3, window=0.0)
        assert [item.tag for item in batch] == ["b", "d", "c"]
        assert queue.next_batch(max_batch=3, window=0.0)[0].tag == "a"
        queue.close()
        with pytest.raises(ServiceError):
            queue.offer(Item(0, "late"))
        assert queue.next_batch(max_batch=1, window=0.0) == []

    def test_submit_after_close_raises(self, database):
        service = database.serve(integrator=CascadeIntegrator())
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(make_requests(1)[0])
        service.close()  # idempotent

    def test_close_drains_admitted_requests(self, database):
        with database.serve(
            max_batch=4, batch_window=0.001, integrator=CascadeIntegrator()
        ) as service:
            futures = [service.submit(r) for r in make_requests(12, seed=3)]
        # Context exit closed the service; every admitted request still
        # got a real response.
        assert all(f.result(timeout=1).ok for f in futures)

    def test_dimension_mismatch_rejected_at_submit(self, database):
        with database.serve(integrator=CascadeIntegrator()) as service:
            with pytest.raises(QueryError, match="dimension"):
                service.submit(PRQRequest(
                    Gaussian([1.0, 2.0, 3.0], np.eye(3)), 5.0, 0.1
                ))


class TestDeadlines:
    def test_expired_deadline_returns_typed_response(self, database):
        with database.serve(integrator=CascadeIntegrator()) as service:
            future = service.submit(make_requests(1, deadline=0.0)[0])
            response = future.result(timeout=30)
        assert response.status == STATUS_DEADLINE_EXCEEDED
        assert isinstance(response.error, DeadlineExceededError)
        assert not response.ok

    def test_deadline_expiry_is_clock_driven(self, database):
        """Expiry follows the injected clock, not wall time: a clock that
        gains 0.3s per read blows a 0.2s deadline between submission and
        drain, however fast the real machine is."""
        clock = FakeClock(step=0.3)
        with database.serve(
            integrator=CascadeIntegrator(), clock=clock
        ) as service:
            future = service.submit(make_requests(1, deadline=0.2)[0])
            response = future.result(timeout=30)
        assert response.status == STATUS_DEADLINE_EXCEEDED
        assert isinstance(response.error, DeadlineExceededError)
        # Three clock reads separate submission from the expiry decision
        # (the queue's window deadline, its window-expiry check, and the
        # drain timestamp — the admission queue shares the service clock),
        # each gaining 0.3s.
        assert response.error.waited_seconds == pytest.approx(0.9)

    def test_tight_deadline_degrades_with_sound_bounds(self, database):
        """A deadline below the predicted full cost degrades; the bounds
        must enclose the exact probabilities and the certain ids must be
        exactly the provable subset of the full answer."""
        # Anisotropic Σ so the one-pass sandwich tier genuinely leaves
        # undecided candidates (isotropic bounds are exact).
        gaussian = Gaussian(
            [612.59, 857.49], np.array([[60.0, 25.0], [25.0, 20.0]])
        )
        theta = 0.123456789
        request = PRQRequest(gaussian, 10.0, theta, deadline=0.05)
        exact = ExactIntegrator()
        full = database.probabilistic_range_query(
            gaussian, 10.0, theta, integrator=exact
        )
        # Frozen fake clock: the request reaches the drain with its full
        # 0.05s budget intact no matter how slow the host is, so the
        # cold 0.05s cost prior (× the 2.0 safety factor) forces
        # degradation — never spurious expiry.
        with database.serve(
            integrator=CascadeIntegrator(), clock=FakeClock()
        ) as service:
            response = service.submit(request).result(timeout=30)
        assert response.status == STATUS_DEGRADED
        assert response.degraded and response.ok
        certain = set(response.ids)
        undecided = {obj: (lo, hi) for obj, lo, hi in response.bounds}
        assert undecided, "query chosen to leave undecided candidates"
        assert certain <= set(full.ids)
        assert certain | set(undecided) >= set(full.ids)
        for obj, (lo, hi) in undecided.items():
            assert lo < theta <= hi  # genuinely undecided against theta
            p = exact.qualification_probabilities(
                gaussian, database.point(obj)[None, :], 10.0
            )[0].estimate
            assert lo - 1e-9 <= p <= hi + 1e-9

    def test_degradation_can_be_disabled(self, database):
        # Frozen clock: the deadline cannot expire, so the only question
        # is whether degrade=False really forces full execution despite
        # a cold cost prediction above the budget.
        request = make_requests(1, deadline=0.05)[0]
        with database.serve(
            integrator=CascadeIntegrator(), degrade=False, clock=FakeClock()
        ) as service:
            response = service.submit(request).result(timeout=30)
        assert response.status == STATUS_OK

    def test_cost_tracker_ema(self):
        tracker = CostTracker(prior=1.0)
        assert tracker.predict() == 1.0
        assert tracker.would_exceed(1.5)  # 1.5 s < 1.0 s × DEGRADE_SAFETY
        tracker.observe(0.1)  # first sample replaces the prior
        assert tracker.predict() == pytest.approx(0.1)
        tracker.observe(0.3)  # α = 0.2: 0.1 + 0.2 × (0.3 − 0.1)
        assert tracker.predict() == pytest.approx(0.14)
        assert tracker.samples == 2
        assert not tracker.would_exceed(1.0)
        with pytest.raises(ServiceError):
            CostTracker(prior=0.0)


class TestResultCache:
    def test_cache_hit_skips_execution_and_matches(self, database):
        request = make_requests(1, seed=5)[0]
        with database.serve(integrator=CascadeIntegrator()) as service:
            first = service.submit(request).result(timeout=30)
            second = service.submit(request).result(timeout=30)
            stats = service.snapshot()
        assert not first.cache_hit and second.cache_hit
        assert second.ids == first.ids
        assert stats.cache_hits == 1 and stats.executed == 1

    def test_cache_requires_exact_parameters(self, database):
        """Nearly equal but not bit-identical requests never share a
        cache entry (the key is the exact fingerprint)."""
        base = make_requests(1, seed=6)[0]
        near = PRQRequest(
            base.gaussian, base.delta * (1.0 + 1e-12), base.theta
        )
        cache = ResultCache(max_entries=8)
        cache.put(base, (1, 2, 3))
        assert cache.get(base) == (1, 2, 3)
        assert cache.get(near) is None
        cache.put(near, (4,))
        assert cache.get(base) == (1, 2, 3)
        assert cache.get(near) == (4,)
        assert cache.info()["currsize"] == 2

    def test_cache_lru_eviction(self):
        requests = make_requests(5, seed=7)
        cache = ResultCache(max_entries=2)
        for i, request in enumerate(requests[:3]):
            cache.put(request, (i,))
        assert cache.info()["currsize"] == 2
        assert cache.get(requests[0]) is None  # evicted
        assert cache.get(requests[2]) == (2,)

    def test_degraded_responses_are_not_cached(self, database):
        request = PRQRequest(
            Gaussian([500.0, 500.0], 15.0 * np.eye(2)), 10.0, 0.3,
            deadline=0.05,
        )
        retry = PRQRequest(
            Gaussian([500.0, 500.0], 15.0 * np.eye(2)), 10.0, 0.3
        )
        # Frozen clock: deterministic degrade-vs-expire split (see
        # TestDeadlines for the policy rationale).
        with database.serve(
            integrator=CascadeIntegrator(), clock=FakeClock()
        ) as service:
            degraded = service.submit(request).result(timeout=30)
            full = service.submit(retry).result(timeout=30)
        assert degraded.status == STATUS_DEGRADED
        assert full.status == STATUS_OK and not full.cache_hit


class TestFaultIsolation:
    def test_failing_request_gets_typed_response_others_survive(
        self, database
    ):
        class Exploding(CascadeIntegrator):
            def decide(self, gaussian, points, delta, theta):
                if theta == 0.123456789:  # only the poisoned request
                    raise RuntimeError("kaboom")
                return super().decide(gaussian, points, delta, theta)

        # Anisotropic Σ leaves Phase-3 work (isotropic sandwich bounds
        # are exact, so the filter would decide every candidate itself).
        poisoned = PRQRequest(
            Gaussian(
                [623.27, 292.81], np.array([[60.0, 25.0], [25.0, 20.0]])
            ),
            10.0,
            0.123456789,
            request_id="poison",
        )
        healthy = make_requests(6, seed=8)
        with database.serve(
            max_batch=8, batch_window=0.05,
            integrator=Exploding(), cache_size=0, degrade=False,
        ) as service:
            futures = [service.submit(r) for r in healthy + [poisoned]]
            responses = [f.result(timeout=30) for f in futures]
            follow_up = service.submit(healthy[0]).result(timeout=30)
        assert responses[-1].status == "failed"
        assert isinstance(responses[-1].error, QueryError)
        assert all(r.status == STATUS_OK for r in responses[:-1])
        assert follow_up.status == STATUS_OK  # scheduler still alive


class TestTelemetryAndConfig:
    def test_serve_metrics_and_span(self, database):
        obs = Observability(trace=True, metrics=True)
        with database.serve(
            integrator=CascadeIntegrator(), obs=obs, max_batch=8,
            batch_window=0.02,
        ) as service:
            futures = [service.submit(r) for r in make_requests(10, seed=11)]
            [f.result(timeout=30) for f in futures]
            service.submit(make_requests(1, seed=11)[0]).result(timeout=30)
        rendered = obs.render_metrics()
        for name in (
            "repro_serve_queue_depth",
            "repro_serve_batch_size",
            "repro_serve_wait_seconds",
            "repro_serve_requests_total",
            "repro_serve_cache_requests_total",
            "repro_serve_cache_entries",
            "repro_serve_queue_capacity",
        ):
            assert name in rendered, f"{name} missing from exposition"
        assert obs.metrics.get_sample(
            "repro_serve_requests_total", status="ok"
        ) == 11.0
        assert obs.metrics.get_sample(
            "repro_serve_cache_requests_total", outcome="hit"
        ) == 1.0
        assert any(s.name == "serve:batch" for s in obs.tracer.spans)
        # Engine spans ride along under the same sink.
        assert any(s.name == "query" for s in obs.tracer.spans)

    def test_config_validation(self, database):
        for bad in (
            {"max_queue": 0},
            {"max_batch": 0},
            {"batch_window": -0.1},
            {"workers": 0},
            {"cache_size": -1},
        ):
            with pytest.raises(ServiceError):
                ServiceConfig(**bad)

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_non_finite_batch_window_is_rejected(self, database, window):
        """A non-finite window would never close a drain (a NaN remaining
        wait never compares <= 0), so no request would resolve and
        close() would time out: it is a config error instead."""
        with pytest.raises(ServiceError, match="batch_window"):
            database.serve(batch_window=window, workers=1)

    def test_request_validation(self):
        gaussian = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ServiceError):
            PRQRequest(gaussian, 5.0, 0.1, deadline=-1.0)
        with pytest.raises(QueryError):
            PRQRequest(gaussian, -5.0, 0.1)
        request = PRQRequest(gaussian, 5.0, 0.1)
        assert request.fingerprint == PRQRequest(gaussian, 5.0, 0.1).fingerprint
        assert request.fingerprint != PRQRequest(gaussian, 5.0, 0.2).fingerprint
        entropy_a = request.seed_sequence().entropy
        entropy_b = PRQRequest(gaussian, 5.0, 0.1).seed_sequence().entropy
        assert entropy_a == entropy_b

    def test_response_to_dict_digest(self, database):
        with database.serve(integrator=CascadeIntegrator()) as service:
            future = service.submit(make_requests(1, seed=12)[0])
            response = future.result(timeout=30)
        row = response.to_dict()
        assert row["status"] == STATUS_OK
        assert row["ids"] == list(response.ids)
        assert "queued_ms" in row and "service_ms" in row
        assert "error" not in row
