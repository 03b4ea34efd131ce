"""repro.load — open-loop load harness and capacity sweeps for the service.

The load subsystem answers the operational question the serving layer
raises: *how much traffic can one service instance absorb before its
admission control starts shedding, and how does it behave past that
point?*  Three pieces fit together (full contract in ``docs/load.md``):

- :class:`ScenarioSpec` / :class:`ScenarioWorkload` — declarative,
  rate-free workload mixes (Zipf hot-key skew, exact/uncertain/mixture/
  k-NN kind blends, deadline and priority envelopes, subscription
  update storms), materialized against a database and sampled into
  Poisson arrival schedules.  Schedules are drawn *before* the run —
  the open-loop discipline that keeps coordinated omission out of the
  latency numbers.
- :class:`LoadRunner` — replays a schedule against one threaded
  :class:`~repro.serve.QueryService` on the wall clock.
- :class:`SaturationSweep` / :class:`CapacityReport` — step offered
  load up a rate ladder, find the knee where shedding begins, fit the
  ``min(rate, capacity)`` goodput model, and emit
  ``BENCH_capacity.json``.

Entry points::

    spec = SCENARIOS["mixed"]
    sweep = SaturationSweep(db, spec, rates=[200, 400, 800], duration=2.0)
    report = sweep.run()
    report.write("BENCH_capacity.json")

``repro load`` exposes the same flow on the command line.
"""

from __future__ import annotations

from repro.load.report import CapacityReport
from repro.load.runner import LoadRunner, RunReport
from repro.load.scenario import (
    Arrival,
    OP_QUERY,
    OP_UPDATE,
    SCENARIOS,
    ScenarioSpec,
    ScenarioWorkload,
)
from repro.load.sweep import SaturationSweep, detect_knee

__all__ = [
    "ScenarioSpec",
    "ScenarioWorkload",
    "Arrival",
    "SCENARIOS",
    "OP_QUERY",
    "OP_UPDATE",
    "LoadRunner",
    "RunReport",
    "SaturationSweep",
    "detect_knee",
    "CapacityReport",
]
