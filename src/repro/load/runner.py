"""The open-loop load driver: inject on schedule, never wait for answers.

:class:`LoadRunner` replays a :meth:`ScenarioWorkload.schedule` against
one threaded :class:`~repro.serve.QueryService` on the wall clock: it
sleeps until each arrival's slot and submits without ever blocking on an
earlier response — the *open-loop* discipline.  Latency is measured from
the arrival's **scheduled** time, not from when ``submit`` returned, so
a service that stalls the injector cannot hide queueing delay
(coordinated omission).  Completion timestamps come from future
done-callbacks on the service's own clock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import LoadError
from repro.load.scenario import OP_UPDATE, Arrival
from repro.serve.request import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OVERLOADED,
)

__all__ = ["LoadRunner", "RunReport"]

_STATUSES = (
    STATUS_OK,
    STATUS_DEGRADED,
    STATUS_OVERLOADED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FAILED,
)


def _percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(int(round(fraction * len(sorted_values) + 0.5)) - 1, 0)
    return float(sorted_values[min(rank, len(sorted_values) - 1)])


@dataclass(frozen=True)
class RunReport:
    """Aggregated results of one load-run step (one offered rate).

    ``offered_qps`` is the nominal Poisson rate; ``injected`` counts
    query arrivals actually drawn, ``monitor_updates`` update arrivals.
    Latency percentiles are computed over *answered* requests only
    (``ok`` + ``degraded``) and measured from each arrival's scheduled
    time — shed and expired requests are accounted in their rates, not
    blended into the latency distribution.  ``goodput_qps`` is answered
    requests per elapsed second (elapsed includes the drain tail, so a
    saturated step cannot inflate goodput by leaving work unfinished).
    """

    offered_qps: float
    duration_seconds: float
    elapsed_seconds: float
    injected: int
    monitor_updates: int
    statuses: dict[str, int]
    goodput_qps: float
    shed_rate: float
    degraded_rate: float
    deadline_exceeded_rate: float
    failure_rate: float
    latency_ms: dict[str, float]
    monitor: dict
    service: dict

    @property
    def answered(self) -> int:
        """Requests that produced a usable answer (ok + degraded)."""
        return self.statuses[STATUS_OK] + self.statuses[STATUS_DEGRADED]

    def to_dict(self) -> dict:
        """A JSON-serializable step row for ``BENCH_capacity.json``."""
        return {
            "offered_qps": self.offered_qps,
            "duration_seconds": self.duration_seconds,
            "elapsed_seconds": round(self.elapsed_seconds, 9),
            "injected": self.injected,
            "monitor_updates": self.monitor_updates,
            "statuses": dict(self.statuses),
            "answered": self.answered,
            "goodput_qps": round(self.goodput_qps, 6),
            "shed_rate": round(self.shed_rate, 6),
            "degraded_rate": round(self.degraded_rate, 6),
            "deadline_exceeded_rate": round(self.deadline_exceeded_rate, 6),
            "failure_rate": round(self.failure_rate, 6),
            "latency_ms": {
                key: round(value, 6)
                for key, value in self.latency_ms.items()
            },
            "monitor": dict(self.monitor),
            "service": dict(self.service),
        }


class LoadRunner:
    """Drives one threaded service through one schedule (module docstring)."""

    def __init__(self, service):
        self.service = service

    def run(
        self,
        schedule: list[Arrival],
        *,
        duration: float,
        offered_qps: float,
    ) -> RunReport:
        """Replay ``schedule`` on the wall clock and aggregate one report."""
        if duration <= 0:
            raise LoadError(f"duration must be > 0 seconds, got {duration}")
        service = self.service
        clock = service.clock
        # Guards ``latencies``; notified per answer.  A future's result
        # is readable before its done-callbacks have run, so the end of
        # the run waits for the callbacks, not for the futures.
        answered = threading.Condition()
        latencies: list[tuple[str, float]] = []
        monitor_outcomes: dict[str, int] = {}
        monitor_latencies: list[float] = []
        injected = 0
        updates = 0
        start = clock()

        def track(scheduled: float, future) -> None:
            def _done(f):
                response = f.result()
                with answered:
                    latencies.append((response.status, clock() - scheduled))
                    answered.notify()

            future.add_done_callback(_done)

        for arrival in schedule:
            target = start + arrival.at
            delay = target - clock()
            if delay > 0:
                time.sleep(delay)
            if arrival.op == OP_UPDATE:
                updates += 1
                response = service.monitor.update(
                    arrival.subscription_id,
                    arrival.mean,
                    deadline=arrival.deadline,
                )
                outcome = response.outcome or response.status
                monitor_outcomes[outcome] = monitor_outcomes.get(outcome, 0) + 1
                monitor_latencies.append(clock() - target)
                continue
            injected += 1
            track(target, service.submit(arrival.request))
        with answered:
            if not answered.wait_for(
                lambda: len(latencies) == injected, timeout=60.0
            ):
                raise LoadError(
                    f"{injected - len(latencies)} of {injected} requests "
                    "unanswered 60 s after the last arrival"
                )
            collected = list(latencies)
        elapsed = max(clock() - start, duration)
        return self._build_report(
            offered_qps=offered_qps,
            duration=duration,
            elapsed=elapsed,
            injected=injected,
            updates=updates,
            latencies=collected,
            monitor_outcomes=monitor_outcomes,
            monitor_latencies=monitor_latencies,
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _build_report(
        self,
        *,
        offered_qps: float,
        duration: float,
        elapsed: float,
        injected: int,
        updates: int,
        latencies: list,
        monitor_outcomes: dict,
        monitor_latencies: list,
    ) -> RunReport:
        statuses = {status: 0 for status in _STATUSES}
        answered_latencies = []
        for status, latency in latencies:
            statuses[status] = statuses.get(status, 0) + 1
            if status in (STATUS_OK, STATUS_DEGRADED):
                answered_latencies.append(latency)
        answered_latencies.sort()
        answered = statuses[STATUS_OK] + statuses[STATUS_DEGRADED]
        denominator = max(injected, 1)
        latency_ms = {
            "p50": _percentile(answered_latencies, 0.50) * 1e3,
            "p95": _percentile(answered_latencies, 0.95) * 1e3,
            "p99": _percentile(answered_latencies, 0.99) * 1e3,
            "mean": (
                sum(answered_latencies) / len(answered_latencies) * 1e3
                if answered_latencies
                else 0.0
            ),
            "max": (
                answered_latencies[-1] * 1e3 if answered_latencies else 0.0
            ),
        }
        monitor = {
            "updates": updates,
            "outcomes": dict(sorted(monitor_outcomes.items())),
            "mean_ms": (
                round(sum(monitor_latencies) / len(monitor_latencies) * 1e3, 6)
                if monitor_latencies
                else 0.0
            ),
        }
        return RunReport(
            offered_qps=offered_qps,
            duration_seconds=duration,
            elapsed_seconds=elapsed,
            injected=injected,
            monitor_updates=updates,
            statuses=statuses,
            goodput_qps=answered / elapsed if elapsed > 0 else 0.0,
            shed_rate=statuses[STATUS_OVERLOADED] / denominator,
            degraded_rate=statuses[STATUS_DEGRADED] / denominator,
            deadline_exceeded_rate=(
                statuses[STATUS_DEADLINE_EXCEEDED] / denominator
            ),
            failure_rate=statuses[STATUS_FAILED] / denominator,
            latency_ms=latency_ms,
            monitor=monitor,
            service=self.service.snapshot().to_dict(),
        )
