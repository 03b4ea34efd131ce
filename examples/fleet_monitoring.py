"""Fleet monitoring with standing subscriptions (safe-region updates).

A dispatch centre watches 2,000 delivery vehicles against a map of
static geofenced assets.  Each vehicle's GPS fix is a Gaussian, so
"which assets is vehicle v near?" is the paper's probabilistic range
query — but asked *continuously*, at every position report.  Instead of
re-running the query each tick, every vehicle becomes one standing
subscription: ``subscribe`` anchors a pre-approximated safe region
(Mahalanobis alpha shells plus per-asset probability slack), and each
position report is then classified in O(1) — the cached answer provably
``survived``, a few border assets are ``reintegrated``, or the region
broke and the subscription is ``replanned``.  Every non-degraded answer
is bit-identical to a cold re-evaluation at the new fix.

The example drives a position-report storm, breaks one region on
purpose (a covariance change: GPS degrading in a tunnel), and shows a
deadline-squeezed update degrading to proven ids + sound probability
intervals without corrupting the committed answer.

Run:  python examples/fleet_monitoring.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Gaussian, SpatialDatabase
from repro.integrate.cascade import CascadeIntegrator

N_VEHICLES = 2_000
N_TICKS = 6


def main() -> None:
    rng = np.random.default_rng(7)
    # 15,000 geofenced assets (depots, chargers, customer sites) on a
    # 100 km x 100 km map, in units of 100 m.
    assets = SpatialDatabase(rng.random((15_000, 2)) * 1000.0)

    with assets.serve(integrator=CascadeIntegrator(), workers=4) as service:
        monitor = service.monitor

        # One standing PRQ per vehicle: "assets within delta=15 of my
        # true position with probability >= 40%", GPS noise sigma.
        centers = rng.random((N_VEHICLES, 2)) * 900.0 + 50.0
        print(f"subscribing {N_VEHICLES} vehicles ...")
        start = time.perf_counter()
        for vid in range(N_VEHICLES):
            monitor.subscribe(
                Gaussian(centers[vid], 0.5 * np.eye(2)),
                delta=15.0,
                theta=0.4,
                subscription_id=vid,
            )
        anchor_wall = time.perf_counter() - start
        print(f"  anchored in {anchor_wall:.2f}s "
              f"({N_VEHICLES / anchor_wall:,.0f} subscriptions/s)\n")

        # The position-report storm: every vehicle reports every tick.
        positions = centers.copy()
        print(f"update storm: {N_TICKS} ticks x {N_VEHICLES} reports")
        start = time.perf_counter()
        for _tick in range(N_TICKS):
            positions += rng.normal(0.0, 0.08, size=positions.shape)
            for vid in range(N_VEHICLES):
                monitor.update(vid, positions[vid])
        storm_wall = time.perf_counter() - start
        stats = monitor.snapshot()
        n_updates = N_TICKS * N_VEHICLES
        print(f"  {n_updates} updates in {storm_wall:.2f}s "
              f"({n_updates / storm_wall:,.0f} updates/s)")
        print(f"  survived     {stats.survived:>6}   (O(1): answer "
              "provably unchanged, nothing executed)")
        print(f"  reintegrated {stats.reintegrated:>6}   (Phase 2/3 "
              "over border assets only)")
        print(f"  replanned    {stats.replanned:>6}   (fresh anchor: "
              "Phase 2/3 over the new rectangle's rows)\n")

        # A structural change always replans: vehicle 0 enters a tunnel
        # and its GPS covariance quadruples.
        resp = monitor.update(0, positions[0], 2.0 * np.eye(2))
        print("vehicle 0 covariance change (tunnel): outcome="
              f"{resp.outcome}, {len(resp.ids)} nearby assets\n")

        # A deadline-squeezed report degrades instead of blocking the
        # dispatcher: proven ids now, sound intervals for the rest.  A
        # survived update is free, so jump each vehicle until one needs
        # border re-integration — that is the work the deadline cuts off.
        target = None
        for vid in range(1, N_VEHICLES):
            target = positions[vid] + np.array([1.5, 0.0])
            resp = monitor.update(vid, target, deadline=0.0)
            if resp.status == "degraded":
                break
        print(f"vehicle {vid} jump with deadline=0: status={resp.status}, "
              f"outcome={resp.outcome}")
        print(f"  {len(resp.ids)} proven assets, {len(resp.bounds)} "
              "undecided with sound (lo, hi) probability bounds")
        note = monitor.notify(vid)
        print(f"  notify: stale={note.stale} (committed answer untouched)")
        # No deadline: the same report re-converges and clears the flag.
        resp = monitor.update(vid, target)
        note = monitor.notify(vid)
        print(f"  after unconstrained retry: outcome={resp.outcome}, "
              f"stale={note.stale}\n")

        for vid in range(N_VEHICLES):
            monitor.unsubscribe(vid)
        print(f"fleet retired; active subscriptions: {len(monitor)}")


if __name__ == "__main__":
    main()
