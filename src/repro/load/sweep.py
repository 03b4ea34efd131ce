"""Saturation sweeps: step offered load, find the knee, fit capacity.

:class:`SaturationSweep` runs one :class:`ScenarioSpec` at an ascending
ladder of offered arrival rates, each step against a *fresh* service
(cold cache, empty queue, re-registered subscriptions), and aggregates
the per-step :class:`~repro.load.runner.RunReport` rows into a
:class:`~repro.load.report.CapacityReport`:

- **knee_qps** — the offered rate at which admission control first
  sheds more than ``shed_threshold`` of traffic, linearly interpolated
  between the bracketing steps.  Below the knee the service answers
  everything it is offered; past it, goodput should *plateau* (bounded
  queue + typed rejections), not collapse.
- **capacity_qps** — the maximum observed goodput across steps, the
  plateau height.  A simple open-system capacity model
  ``goodput(r) ≈ min(r, capacity)`` is fitted alongside with its
  residual, so reports can sanity-check that the service actually
  behaves like a bounded server rather than degrading open-endedly.

Every step runs the real threaded service on the wall clock, so both
figures move with the database, the engine and the machine.
"""

from __future__ import annotations

from repro.errors import LoadError
from repro.load.report import CapacityReport
from repro.load.runner import LoadRunner, RunReport
from repro.load.scenario import ScenarioSpec, ScenarioWorkload
from repro.serve.service import QueryService, ServiceConfig

__all__ = ["SaturationSweep", "detect_knee"]


def detect_knee(steps: list[dict], *, shed_threshold: float = 0.01) -> dict:
    """Locate where shedding begins along an ascending rate ladder.

    ``steps`` are :meth:`RunReport.to_dict` rows sorted by
    ``offered_qps``.  Returns the knee analysis block of the capacity
    report: the interpolated knee rate (``None`` when no step shed more
    than the threshold — the ladder never saturated), the goodput
    plateau (``capacity_qps``), and the ``min(r, capacity)`` model fit
    with its RMS residual.
    """
    if not steps:
        raise LoadError("cannot analyze an empty sweep")
    rates = [step["offered_qps"] for step in steps]
    sheds = [step["shed_rate"] for step in steps]
    goodputs = [step["goodput_qps"] for step in steps]
    knee_qps = None
    for index, shed in enumerate(sheds):
        if shed > shed_threshold:
            if index == 0:
                knee_qps = rates[0]
            else:
                r0, r1 = rates[index - 1], rates[index]
                s0, s1 = sheds[index - 1], sheds[index]
                # Interpolate the rate where shed crosses the threshold.
                t = (shed_threshold - s0) / (s1 - s0) if s1 > s0 else 1.0
                knee_qps = r0 + (r1 - r0) * t
            break
    capacity_qps = max(goodputs)
    capacity_rate = rates[goodputs.index(capacity_qps)]
    residual = (
        sum(
            (goodput - min(rate, capacity_qps)) ** 2
            for rate, goodput in zip(rates, goodputs)
        )
        / len(steps)
    ) ** 0.5
    return {
        "shed_threshold": shed_threshold,
        "saturated": knee_qps is not None,
        "knee_qps": None if knee_qps is None else round(knee_qps, 6),
        "capacity_qps": round(capacity_qps, 6),
        "capacity_at_offered_qps": capacity_rate,
        "base_p50_ms": steps[0]["latency_ms"]["p50"],
        "model": {
            "kind": "goodput(r) = min(r, capacity_qps)",
            "rms_residual_qps": round(residual, 6),
        },
    }


class SaturationSweep:
    """Step a scenario through ascending offered rates (module docstring).

    ``service_knobs`` are forwarded to every per-step
    :class:`~repro.serve.QueryService` (``max_batch``, ``batch_window``,
    ``max_queue``, ``workers``, ``cache_size``, …).
    """

    def __init__(
        self,
        database,
        spec: ScenarioSpec,
        *,
        rates,
        duration: float = 2.0,
        service_knobs: dict | None = None,
        shed_threshold: float = 0.01,
    ):
        rates = [float(rate) for rate in rates]
        if not rates:
            raise LoadError("a sweep needs at least one offered rate")
        if any(rate <= 0 for rate in rates):
            raise LoadError(f"offered rates must be > 0, got {rates}")
        if sorted(rates) != rates:
            raise LoadError("offered rates must be ascending")
        self.spec = spec
        self.rates = rates
        self.duration = float(duration)
        self.service_knobs = dict(service_knobs or {})
        self.shed_threshold = float(shed_threshold)
        self.database = ScenarioWorkload.prepare_database(spec, database)
        self.workload = ScenarioWorkload(spec, self.database)

    def run_step(self, rate: float, *, salt: int = 0) -> RunReport:
        """Run one rate step against a fresh service and close it."""
        schedule = self.workload.schedule(rate, self.duration, salt=salt)
        service = QueryService(self.database, **self.service_knobs)
        try:
            for sub_id, gaussian, delta, theta in self.workload.subscriptions():
                service.monitor.subscribe(
                    gaussian, delta, theta, subscription_id=sub_id
                )
            return LoadRunner(service).run(
                schedule, duration=self.duration, offered_qps=rate
            )
        finally:
            service.close()

    def run(self) -> CapacityReport:
        """Run every step and assemble the capacity report."""
        steps = [
            self.run_step(rate, salt=index).to_dict()
            for index, rate in enumerate(self.rates)
        ]
        knee = detect_knee(steps, shed_threshold=self.shed_threshold)
        config = ServiceConfig(**self.service_knobs)
        service_block = {
            "max_queue": config.max_queue,
            "max_batch": config.max_batch,
            "batch_window": config.batch_window,
            "workers": config.workers,
            "cache_size": config.cache_size,
            "degrade": config.degrade,
        }
        return CapacityReport(
            scenario=self.spec.to_dict(),
            duration_seconds=self.duration,
            database={
                "points": len(self.database),
                "dim": int(self.database.dim),
            },
            service=service_block,
            steps=steps,
            knee=knee,
        )
