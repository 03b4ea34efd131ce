"""The open-loop load harness: scenarios, wall-clock runs, sweeps.

Covers the ``repro.load`` contract (``docs/load.md``):

- scenario specs validate eagerly and round-trip through JSON;
- schedules are pure functions of ``(seed, rate, duration, salt)`` and
  are drawn up front (the open-loop property);
- the threaded service under sustained overload keeps its promises:
  every response is one of the five typed statuses (never an
  exception), priority requests drain first, and goodput plateaus past
  the knee instead of collapsing;
- a sweep's capacity moves with the engine it measures;
- knee detection locates where shedding begins.

Overload is made machine-independent by slowing or stalling
``QueryEngine.run_batch`` (:func:`slow_engine`, :func:`held_service`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.load
from repro.cli import build_parser
from repro.cli.serve import SWEEP_RATES
from repro.core.database import SpatialDatabase
from repro.core.engine import QueryEngine
from repro.errors import LoadError, OverloadedError
from repro.gaussian.distribution import Gaussian
from repro.load import (
    SCENARIOS,
    CapacityReport,
    LoadRunner,
    OP_QUERY,
    OP_UPDATE,
    RunReport,
    SaturationSweep,
    ScenarioSpec,
    ScenarioWorkload,
    detect_knee,
)
from repro.serve import (
    PRQRequest,
    QueryService,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OVERLOADED,
)

FIVE_STATUSES = {STATUS_OK, STATUS_DEGRADED, STATUS_OVERLOADED,
                 STATUS_DEADLINE_EXCEEDED, STATUS_FAILED}

SMALL_SERVICE = {"max_queue": 32, "max_batch": 8, "batch_window": 0.002}


@pytest.fixture(scope="module")
def database() -> SpatialDatabase:
    rng = np.random.default_rng(11)
    return SpatialDatabase(rng.random((400, 2)) * 100.0)


def slow_engine(monkeypatch, seconds_per_query: float) -> None:
    """Make every ``run_batch`` sleep ``seconds_per_query`` per query first."""
    original = QueryEngine.run_batch

    def run_batch(self, queries, **kwargs):
        time.sleep(seconds_per_query * len(queries))
        return original(self, queries, **kwargs)

    monkeypatch.setattr(QueryEngine, "run_batch", run_batch)


@contextmanager
def held_service(database, **knobs):
    """A threaded service whose scheduler is parked inside ``run_batch``.

    The block is entered once the scheduler is executing a blocker request,
    so every submission inside it stays queued until ``release`` is set.
    """
    service = QueryService(database, **knobs)
    entered, release = threading.Event(), threading.Event()
    original = service.engine.run_batch

    def stalled(queries, **kwargs):
        entered.set()
        release.wait(timeout=30.0)
        return original(queries, **kwargs)

    service.engine.run_batch = stalled
    service.submit(PRQRequest(Gaussian([0.0, 0.0], np.eye(2)), 1.0, 0.5))
    try:
        assert entered.wait(timeout=10.0), "scheduler never picked up"
        yield service, release
    finally:
        release.set()
        service.close()


def run_once(database, spec, rate, *, duration=1.0, **knobs) -> RunReport:
    return SaturationSweep(
        database, spec, rates=[rate], duration=duration,
        service_knobs=dict(SMALL_SERVICE, **knobs),
    ).run_step(rate)


def request(index: int, rng, *, priority: int = 0) -> PRQRequest:
    return PRQRequest(
        Gaussian(rng.random(2) * 100.0, np.eye(2)), 5.0, 0.5,
        priority=priority, request_id=f"p{priority}-{index}",
    )


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_round_trips_through_dict(self):
        spec = SCENARIOS["mixed"]
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        # And through actual JSON text, the CLI path.
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(LoadError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "rate": 100})

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_shapes": 0},
            {"zipf_s": -1.0},
            {"kind_mix": {}},
            {"kind_mix": {"warp": 1.0}},
            {"kind_mix": {"prq": -1.0}},
            {"kind_mix": {"prq": 0.0}},
            {"deadline_fraction": 1.5},
            {"monitor_fraction": -0.1},
            {"thetas": (0.0, 0.5)},
            {"thetas": ()},
            {"monitor_fraction": 0.5, "n_subscriptions": 0},
        ],
    )
    def test_validates_eagerly(self, bad):
        with pytest.raises(LoadError):
            ScenarioSpec(**bad)

    def test_builtin_scenarios_are_valid_and_named(self):
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_needs_target_table_tracks_uncertain_weight(self):
        assert not SCENARIOS["hotkey"].needs_target_table
        assert SCENARIOS["mixed"].needs_target_table


# ----------------------------------------------------------------------
# ScenarioWorkload + schedules
# ----------------------------------------------------------------------


class TestScenarioWorkload:
    def test_schedule_is_deterministic(self, database):
        workload = ScenarioWorkload(SCENARIOS["hotkey"], database)
        first = workload.schedule(200.0, 1.0, salt=3)
        second = workload.schedule(200.0, 1.0, salt=3)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert a.at == b.at
            assert a.op == b.op
            if a.op == OP_QUERY:
                assert a.request.fingerprint == b.request.fingerprint
                assert a.request.deadline == b.request.deadline
                assert a.request.priority == b.request.priority

    def test_salt_and_rate_change_the_draw(self, database):
        workload = ScenarioWorkload(SCENARIOS["hotkey"], database)
        base = workload.schedule(200.0, 1.0, salt=0)
        other_salt = workload.schedule(200.0, 1.0, salt=1)
        assert [a.at for a in base] != [a.at for a in other_salt]
        faster = workload.schedule(400.0, 1.0, salt=0)
        assert len(faster) > len(base)

    def test_schedule_is_open_loop(self, database):
        """Timestamps are fixed up front, sorted, and inside [0, dur)."""
        workload = ScenarioWorkload(SCENARIOS["uniform"], database)
        schedule = workload.schedule(300.0, 2.0, salt=0)
        times = [a.at for a in schedule]
        assert times == sorted(times)
        assert all(0.0 < t < 2.0 for t in times)
        # Poisson at 300/s over 2s: ~600 arrivals, loosely checked.
        assert 450 <= len(schedule) <= 750

    def test_zipf_skew_concentrates_popularity(self, database):
        spec = ScenarioSpec(name="skew", n_shapes=32, zipf_s=1.5)
        workload = ScenarioWorkload(spec, database)
        schedule = workload.schedule(500.0, 2.0, salt=0)
        counts: dict[bytes, int] = {}
        for arrival in schedule:
            key = arrival.request.fingerprint
            counts[key] = counts.get(key, 0) + 1
        top = max(counts.values())
        assert top / len(schedule) > 3.0 / 32.0  # far above uniform share

    def test_monitor_storm_mixes_updates(self, database):
        schedule = ScenarioWorkload(SCENARIOS["storm"], database).schedule(
            400.0, 1.0, salt=0
        )
        updates = [a for a in schedule if a.op == OP_UPDATE]
        queries = [a for a in schedule if a.op == OP_QUERY]
        assert len(updates) > len(queries)  # monitor_fraction = 0.7
        dim = database.dim
        for update in updates:
            assert update.subscription_id is not None
            assert update.mean.shape == (dim,)

    def test_uncertain_mix_requires_target_table(self, database):
        spec = ScenarioSpec(name="u", kind_mix={"uncertain": 1.0})
        with pytest.raises(LoadError, match="target covariance table"):
            ScenarioWorkload(spec, database)
        prepared = ScenarioWorkload.prepare_database(spec, database)
        assert prepared.targets is not None
        workload = ScenarioWorkload(spec, prepared)
        assert workload.kind_histogram() == {"uncertain": spec.n_shapes}

    def test_prepare_database_is_a_noop_without_uncertain(self, database):
        assert (
            ScenarioWorkload.prepare_database(SCENARIOS["hotkey"], database)
            is database
        )

    def test_schedule_validates_inputs(self, database):
        workload = ScenarioWorkload(SCENARIOS["uniform"], database)
        with pytest.raises(LoadError):
            workload.schedule(0.0, 1.0)
        with pytest.raises(LoadError):
            workload.schedule(100.0, 0.0)


# ----------------------------------------------------------------------
# The virtual-time path is gone (ids kept, each pins one piece of it)
# ----------------------------------------------------------------------


class TestVirtualTime:
    def test_clock_advances_monotonically(self):
        """``repro.load`` exports no clock, cost model or gate verdict."""
        assert set(repro.load.__all__) == {
            "ScenarioSpec", "ScenarioWorkload", "Arrival", "SCENARIOS",
            "OP_QUERY", "OP_UPDATE", "LoadRunner", "RunReport",
            "SaturationSweep", "detect_knee", "CapacityReport",
        }

    def test_cost_model_batch_law(self, database):
        """A run has one mode: the runner takes only the service and its
        report carries no mode field."""
        with QueryService(database) as service:
            with pytest.raises(TypeError):
                LoadRunner(service, **{"cost_model": None})
        fields = {field.name for field in dataclasses.fields(RunReport)}
        assert "mode" not in fields

    def test_cost_model_validates(self, database):
        spec = SCENARIOS["uniform"]
        for knob in ("virtual", "cost_model"):
            with pytest.raises(TypeError):
                SaturationSweep(database, spec, rates=[1.0], **{knob: None})

    def test_runner_rejects_manual_service_without_advanceable_clock(
        self, database
    ):
        """``manual`` and ``cost_model`` are unknown service knobs, and
        nothing drains the queue but the scheduler thread."""
        for knob, value in (("manual", True), ("cost_model", None)):
            with pytest.raises(TypeError):
                QueryService(database, **{knob: value})
        with QueryService(database) as service:
            assert not hasattr(service, "pump")
            assert not hasattr(service._queue, "drain")


# ----------------------------------------------------------------------
# Wall-clock runs: the service contract under load
# ----------------------------------------------------------------------


class TestVirtualRuns:
    def test_run_is_bit_reproducible(self, database):
        """The offered traffic is a function of the spec alone: two runs
        inject the same arrivals, whatever the machine made of them."""
        spec = SCENARIOS["storm"]
        first = run_once(database, spec, 200.0, duration=0.5)
        second = run_once(database, spec, 200.0, duration=0.5)
        for report in (first, second):
            assert sum(report.statuses.values()) == report.injected
        assert first.injected == second.injected > 0
        assert first.monitor_updates == second.monitor_updates > 0

    def test_overload_responses_are_typed_never_raised(
        self, database, monkeypatch
    ):
        """Sustained 4x overload: every injected request resolves to one
        of the five statuses; nothing raises, nothing hangs."""
        slow_engine(monkeypatch, 0.002)  # at most 500 req/s
        spec = ScenarioSpec(name="flood", n_shapes=128, zipf_s=0.0)
        report = run_once(database, spec, 2000.0, cache_size=0)
        assert set(report.statuses) == FIVE_STATUSES
        assert sum(report.statuses.values()) == report.injected
        assert report.statuses[STATUS_OVERLOADED] > 0  # it really shed
        assert report.statuses[STATUS_FAILED] == 0
        assert report.shed_rate > 0.2

    def test_goodput_plateaus_past_the_knee(self, database, monkeypatch):
        """Past saturation, goodput must hold its plateau (bounded queue
        + typed shedding), not collapse with offered load."""
        slow_engine(monkeypatch, 0.002)
        spec = ScenarioSpec(name="plateau", n_shapes=256, zipf_s=0.0)
        sweep = SaturationSweep(
            database,
            spec,
            rates=[100.0, 200.0, 800.0, 1600.0],
            duration=1.0,
            service_knobs=dict(SMALL_SERVICE, max_queue=64, cache_size=0),
        )
        report = sweep.run()
        assert report.knee["saturated"]
        knee = report.knee["knee_qps"]
        capacity = report.knee["capacity_qps"]
        past_knee = [
            step["goodput_qps"]
            for step in report.steps
            if step["offered_qps"] > knee
        ]
        assert past_knee, "sweep never crossed its own knee"
        assert min(past_knee) >= 0.7 * capacity

    def test_priority_drains_first_under_overload(self, database):
        """With the queue backed up, the scheduler must execute
        high-priority requests before priority-0 ones admitted earlier."""
        rng = np.random.default_rng(5)
        order: list[str] = []
        futures = []
        with held_service(database, max_queue=16, max_batch=4,
                          batch_window=0.0, cache_size=0) as (service, release):
            for index in range(8):
                priority = 1 if index >= 4 else 0  # low admitted first
                future = service.submit(request(index, rng, priority=priority))
                future.add_done_callback(
                    lambda f: order.append(f.result().request_id)
                )
                futures.append(future)
            assert service.snapshot().queue_depth == 8
            release.set()
            for future in futures:
                future.result(timeout=30.0)
        assert set(order[:4]) == {"p1-4", "p1-5", "p1-6", "p1-7"}
        assert set(order[4:]) == {"p0-0", "p0-1", "p0-2", "p0-3"}

    def test_admission_shed_is_immediate_and_typed(self, database):
        rng = np.random.default_rng(9)
        with held_service(database, max_queue=2, max_batch=2,
                          batch_window=0.0, cache_size=0) as (service, _):
            responses = []
            for index in range(5):
                future = service.submit(request(index, rng))
                if future.done():
                    responses.append(future.result())
            # Queue bound 2: requests 2..4 shed instantly with the typed
            # error, while the scheduler is still busy.
            assert [r.status for r in responses] == [STATUS_OVERLOADED] * 3
            assert all(isinstance(r.error, OverloadedError)
                       for r in responses)
            assert service.snapshot().overloaded == 3

    def test_deadline_pressure_degrades_or_expires(self, database):
        spec = ScenarioSpec(
            name="deadlines", n_shapes=64, zipf_s=0.0,
            deadline_fraction=1.0, deadline_ms=(1.0, 4.0),
        )
        report = run_once(database, spec, 800.0, duration=0.5, cache_size=0)
        pressured = (
            report.statuses[STATUS_DEGRADED]
            + report.statuses[STATUS_DEADLINE_EXCEEDED]
        )
        assert pressured > 0
        assert report.degraded_rate + report.deadline_exceeded_rate > 0

    def test_monitor_updates_flow_through_the_run(self, database):
        report = run_once(database, SCENARIOS["storm"], 300.0, duration=0.5)
        assert report.monitor_updates > 0
        assert sum(report.monitor["outcomes"].values()) == report.monitor_updates
        assert report.monitor["mean_ms"] >= 0.0


# ----------------------------------------------------------------------
# Snapshots (satellite: structured stats APIs)
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_service_snapshot_tracks_queue_and_cache(self, database):
        query = PRQRequest(Gaussian([50.0, 50.0], np.eye(2)), 5.0, 0.5)
        with held_service(database, max_queue=8, max_batch=8,
                          batch_window=0.0, cache_size=16) as (service, release):
            first = service.submit(query)
            snap = service.snapshot()
            assert snap.queue_depth == 1
            assert snap.in_flight == 2  # the blocker and the query
            assert snap.queue_capacity == 8
            release.set()
            first.result(timeout=30.0)
            assert service.submit(query).result().cache_hit  # identical
            snap = service.snapshot()
            assert snap.queue_depth == 0
            assert snap.in_flight == 0
            assert snap.submitted == 3
            assert snap.ok == 3
            assert snap.cache_hits == 1
            assert snap.cache_entries == 2
            assert 0.0 < snap.cache_hit_rate <= 0.5
            payload = snap.to_dict()
            assert payload["queue_depth"] == 0
            assert json.dumps(payload, sort_keys=True)

    def test_monitor_snapshot_tracks_outcomes(self, database):
        with QueryService(database) as service:
            gaussian = Gaussian([50.0, 50.0], np.eye(2))
            service.monitor.subscribe(gaussian, 5.0, 0.5,
                                      subscription_id="s1")
            service.monitor.update("s1", [50.001, 50.001])
            snap = service.monitor.snapshot()
            assert snap.active_subscriptions == 1
            assert snap.subscribed == 1
            assert snap.updates == 1
            assert (
                snap.survived + snap.reintegrated + snap.replanned
                + snap.degraded
            ) == 1
            assert 0.0 <= snap.survival_rate <= 1.0
            service.monitor.unsubscribe("s1")
            assert service.monitor.snapshot().active_subscriptions == 0
            assert json.dumps(snap.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Sweeps, knee detection, capacity reports
# ----------------------------------------------------------------------


def synthetic_step(rate: float, shed: float, goodput: float) -> dict:
    return {
        "offered_qps": rate,
        "shed_rate": shed,
        "goodput_qps": goodput,
        "latency_ms": {"p50": 5.0, "p95": 9.0, "p99": 12.0},
    }


class TestKneeDetection:
    def test_interpolates_the_crossing(self):
        steps = [
            synthetic_step(100.0, 0.0, 100.0),
            synthetic_step(200.0, 0.0, 200.0),
            synthetic_step(400.0, 0.05, 390.0),
        ]
        knee = detect_knee(steps, shed_threshold=0.01)
        assert knee["saturated"]
        # Crossing 0.01 on the way from 0.0 @200 to 0.05 @400.
        assert knee["knee_qps"] == pytest.approx(240.0)
        assert knee["capacity_qps"] == pytest.approx(390.0)

    def test_knee_at_the_first_step(self):
        steps = [synthetic_step(500.0, 0.4, 300.0)]
        knee = detect_knee(steps)
        assert knee["saturated"] and knee["knee_qps"] == 500.0

    def test_no_knee_when_never_saturated(self):
        steps = [
            synthetic_step(100.0, 0.0, 99.0),
            synthetic_step(200.0, 0.001, 198.0),
        ]
        knee = detect_knee(steps)
        assert not knee["saturated"]
        assert knee["knee_qps"] is None
        assert knee["capacity_qps"] == pytest.approx(198.0)

    def test_rejects_empty_sweeps(self):
        with pytest.raises(LoadError):
            detect_knee([])


class TestSaturationSweep:
    def test_sweep_is_bit_reproducible(self, database, tmp_path):
        """What does not depend on the clock is reproducible: two sweeps
        offer the same ladder and inject the same arrivals, and the
        written report is the canonical JSON of the in-memory one."""

        def run() -> CapacityReport:
            return SaturationSweep(
                database, SCENARIOS["hotkey"], rates=[200.0, 400.0],
                duration=0.5, service_knobs=SMALL_SERVICE,
            ).run()

        first, second = run(), run()
        for key in ("scenario", "database", "service", "duration_seconds"):
            assert first.to_dict()[key] == second.to_dict()[key]
        assert [s["injected"] for s in first.steps] == [
            s["injected"] for s in second.steps
        ]
        path = first.write(tmp_path / "BENCH_capacity.json")
        assert path.read_text() == first.to_json()
        assert json.loads(path.read_text()) == first.to_dict()

    def test_sweep_validates_rates(self, database):
        spec = SCENARIOS["uniform"]
        with pytest.raises(LoadError):
            SaturationSweep(database, spec, rates=[])
        with pytest.raises(LoadError):
            SaturationSweep(database, spec, rates=[200.0, 100.0])
        with pytest.raises(LoadError):
            SaturationSweep(database, spec, rates=[-5.0])

    def test_report_carries_context(self, database):
        report = SaturationSweep(
            database, SCENARIOS["uniform"], rates=[150.0], duration=0.5,
        ).run()
        assert report.database == {"points": 400, "dim": 2}
        assert report.scenario["name"] == "uniform"
        assert report.service["max_queue"] == 256
        assert len(report.steps) == 1

    def test_capacity_tracks_the_engine(self, database, monkeypatch):
        """The measured capacity belongs to the engine: a 5 ms/query
        engine caps goodput at 200 req/s, well under half of what the
        real one answers on 400 points."""

        def capacity() -> float:
            report = SaturationSweep(
                database, SCENARIOS["uniform"], rates=[500.0, 2000.0],
                duration=0.5,
                service_knobs=dict(SMALL_SERVICE, max_queue=64, cache_size=0),
            ).run()
            return report.knee["capacity_qps"]

        fast = capacity()
        slow_engine(monkeypatch, 0.005)
        slow = capacity()
        assert slow * 2.0 <= fast, (slow, fast)


# ----------------------------------------------------------------------
# The capacity trend gate is gone (ids kept, each pins one piece of it):
# a wall-clock capacity belongs to the machine that measured it, so a
# committed file is a record, not a baseline.
# ----------------------------------------------------------------------


def load_flags() -> set[str]:
    """Every option string of the ``repro load`` verb."""
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        option
        for action in commands.choices["load"]._actions
        for option in action.option_strings
    }


class TestTrendGate:
    def test_identical_reports_pass(self):
        assert not hasattr(CapacityReport, "compare")

    def test_report_load_rejects_garbage(self):
        """Nothing reads a capacity report back: it is written only."""
        assert not hasattr(CapacityReport, "load")
        assert not hasattr(CapacityReport, "from_dict")

    def test_regression_beyond_tolerance_fails(self):
        """``repro load`` takes no baseline and no mode switch."""
        assert load_flags() == {
            "-h", "--help", "--scenario", "--rate", "--sweep", "--rates",
            "--duration", "--seed", "--out", "--max-batch", "--window-ms",
            "--queue-size", "--workers", "--cache-size",
        }

    def test_drop_within_tolerance_passes(self):
        """The default ladder is one fixed doubling ladder, not one
        derived from a modelled capacity."""
        assert SWEEP_RATES == (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)

    def test_improvement_is_surfaced_not_failed(self):
        steps = [synthetic_step(100.0, 0.0, 100.0)]
        payload = json.loads(CapacityReport(
            scenario={}, duration_seconds=1.0, database={}, service={},
            steps=steps, knee=detect_knee(steps),
        ).to_json())
        assert payload["schema_version"] == 2
        assert "mode" not in payload and "cost_model" not in payload

    def test_mode_mismatch_is_a_usage_error(self):
        with pytest.raises(TypeError):
            CapacityReport(
                scenario={}, mode="real", duration_seconds=1.0, database={},
                service={}, steps=[], knee={},
            )


class TestRealMode:
    def test_real_run_answers_everything(self, database):
        spec = ScenarioSpec(name="real-smoke", n_shapes=16, zipf_s=1.0)
        sweep = SaturationSweep(
            database, spec, rates=[150.0], duration=0.4,
            service_knobs={"max_queue": 64, "max_batch": 16,
                           "batch_window": 0.001},
        )
        report = sweep.run_step(150.0)
        assert report.injected > 0
        assert sum(report.statuses.values()) == report.injected
        assert set(report.statuses) <= FIVE_STATUSES
        assert report.statuses[STATUS_OK] > 0
        assert report.latency_ms["p99"] >= report.latency_ms["p50"] >= 0.0
