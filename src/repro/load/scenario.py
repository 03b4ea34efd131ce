"""Declarative workload scenarios for the open-loop load harness.

A :class:`ScenarioSpec` is the *what* of a load test — the request
population, not its rate: how many distinct query shapes exist, how
skewed the popularity distribution over them is (Zipf hot keys), which
query kinds the mix blends (exact ``prq`` / ``uncertain`` targets /
``mixture`` objects / probabilistic ``knn``), how often requests carry
deadlines or elevated priorities, and what fraction of traffic is
subscription *update* storms against standing monitors.  The *when* —
offered arrival rate and test duration — belongs to the runner, so one
spec sweeps cleanly across load steps.

:class:`ScenarioWorkload` materializes a spec against one concrete
:class:`~repro.core.database.SpatialDatabase`: query shapes are placed
inside the data's bounding box with sizes expressed as fractions of its
extent, so the same spec is meaningful on any dataset.  Its
:meth:`~ScenarioWorkload.schedule` then draws a Poisson arrival process
(exponential inter-arrival gaps from a seeded generator): the timestamps
are fixed *before* the run starts, which is what makes the harness
open-loop — a slow service cannot push its own arrivals into the future
and hide queueing delay (coordinated omission).

Everything here is deterministic: materialization derives from
``spec.seed`` alone, a schedule from ``(spec.seed, rate, duration,
salt)`` alone.  Two calls with equal inputs yield bit-identical request
streams, so two sweeps offer the same traffic and differ only in how
the service answered it (``docs/load.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.database import SpatialDatabase
from repro.core.kinds import (
    KNNQuery,
    MixtureRangeQuery,
    TargetCovarianceTable,
    UncertainTargetQuery,
)
from repro.core.query import ProbabilisticRangeQuery
from repro.errors import LoadError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.mixture import GaussianMixture
from repro.serve.request import PRQRequest

__all__ = [
    "ScenarioSpec",
    "ScenarioWorkload",
    "Arrival",
    "SCENARIOS",
    "OP_QUERY",
    "OP_UPDATE",
]

#: Arrival op: one PRQ submission through ``QueryService.submit``.
OP_QUERY = "query"
#: Arrival op: one location update against a standing subscription.
OP_UPDATE = "update"

#: Query kinds a scenario mix may blend (weights in ``kind_mix``).
QUERY_KINDS = ("prq", "uncertain", "mixture", "knn")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative workload mix (rate-free; see module docstring).

    Sizes are *fractions of the dataset extent* (the longest side of the
    data bounding box), so a spec ports across datasets: ``delta =
    delta_fraction * extent`` and query-object standard deviation
    ``sigma_fraction * extent``.

    ``kind_mix`` weights the four query kinds; zero-weight kinds never
    appear.  ``zipf_s`` shapes popularity over the ``n_shapes`` distinct
    query shapes (``P(rank) ∝ rank^-s``; 0 is uniform) — a skewed mix
    exercises the result cache and in-flight coalescing the way hot keys
    do in production.  ``monitor_fraction`` diverts that fraction of
    arrivals into location updates spread over ``n_subscriptions``
    standing queries (an *update storm* when pushed toward 1).
    """

    name: str = "default"
    seed: int = 0
    n_shapes: int = 64
    zipf_s: float = 1.1
    kind_mix: dict[str, float] = field(
        default_factory=lambda: {"prq": 1.0}
    )
    delta_fractions: tuple[float, ...] = (0.05, 0.1, 0.2)
    thetas: tuple[float, ...] = (0.3, 0.5, 0.8)
    sigma_fractions: tuple[float, ...] = (0.02, 0.05)
    deadline_fraction: float = 0.0
    deadline_ms: tuple[float, ...] = (5.0, 20.0)
    priority_fraction: float = 0.0
    priority_levels: tuple[int, ...] = (1, 2)
    monitor_fraction: float = 0.0
    n_subscriptions: int = 0
    update_step_fraction: float = 0.02
    target_sigma_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.n_shapes < 1:
            raise LoadError(f"n_shapes must be >= 1, got {self.n_shapes}")
        if self.zipf_s < 0:
            raise LoadError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if not self.kind_mix:
            raise LoadError("kind_mix must not be empty")
        unknown = sorted(set(self.kind_mix) - set(QUERY_KINDS))
        if unknown:
            raise LoadError(
                f"unknown query kinds {unknown}; choose from {QUERY_KINDS}"
            )
        if any(w < 0 for w in self.kind_mix.values()):
            raise LoadError("kind_mix weights must be >= 0")
        if sum(self.kind_mix.values()) <= 0:
            raise LoadError("kind_mix weights must sum to > 0")
        for frac_name in ("deadline_fraction", "priority_fraction",
                          "monitor_fraction"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise LoadError(f"{frac_name} must be in [0, 1], got {value}")
        for seq_name in ("delta_fractions", "thetas", "sigma_fractions",
                         "deadline_ms", "priority_levels"):
            seq = getattr(self, seq_name)
            if not seq:
                raise LoadError(f"{seq_name} must not be empty")
        if any(not 0.0 < t < 1.0 for t in self.thetas):
            raise LoadError(f"thetas must lie in (0, 1), got {self.thetas}")
        if self.monitor_fraction > 0 and self.n_subscriptions < 1:
            raise LoadError(
                "monitor_fraction > 0 needs n_subscriptions >= 1"
            )
        if self.n_subscriptions < 0:
            raise LoadError(
                f"n_subscriptions must be >= 0, got {self.n_subscriptions}"
            )

    @property
    def needs_target_table(self) -> bool:
        """True when the mix contains uncertain-target queries."""
        return self.kind_mix.get("uncertain", 0.0) > 0

    def to_dict(self) -> dict:
        """A JSON-serializable spec (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "n_shapes": self.n_shapes,
            "zipf_s": self.zipf_s,
            "kind_mix": dict(self.kind_mix),
            "delta_fractions": list(self.delta_fractions),
            "thetas": list(self.thetas),
            "sigma_fractions": list(self.sigma_fractions),
            "deadline_fraction": self.deadline_fraction,
            "deadline_ms": list(self.deadline_ms),
            "priority_fraction": self.priority_fraction,
            "priority_levels": list(self.priority_levels),
            "monitor_fraction": self.monitor_fraction,
            "n_subscriptions": self.n_subscriptions,
            "update_step_fraction": self.update_step_fraction,
            "target_sigma_fraction": self.target_sigma_fraction,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Build a spec from :meth:`to_dict` output (extra keys rejected)."""
        if not isinstance(payload, dict):
            raise LoadError(
                f"scenario spec must be a JSON object, got {type(payload).__name__}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(payload) - known)
        if unknown:
            raise LoadError(f"unknown scenario fields {unknown}")
        kwargs = dict(payload)
        for seq_name in ("delta_fractions", "thetas", "sigma_fractions",
                         "deadline_ms"):
            if seq_name in kwargs:
                kwargs[seq_name] = tuple(float(v) for v in kwargs[seq_name])
        if "priority_levels" in kwargs:
            kwargs["priority_levels"] = tuple(
                int(v) for v in kwargs["priority_levels"]
            )
        return cls(**kwargs)


#: Built-in scenario presets (``repro load --scenario <name>``).
SCENARIOS: dict[str, ScenarioSpec] = {
    # Uniform popularity, exact PRQs only: the cache-hostile baseline.
    "uniform": ScenarioSpec(name="uniform", zipf_s=0.0, n_shapes=256),
    # Heavy hot-key skew: exercises the result cache and coalescing.
    "hotkey": ScenarioSpec(name="hotkey", zipf_s=1.4, n_shapes=64),
    # All four kinds blended, with deadlines and priorities in play.
    "mixed": ScenarioSpec(
        name="mixed",
        zipf_s=1.1,
        n_shapes=96,
        kind_mix={"prq": 0.55, "uncertain": 0.2, "mixture": 0.15, "knn": 0.1},
        deadline_fraction=0.3,
        priority_fraction=0.2,
    ),
    # A monitoring-heavy storm: most arrivals are subscription updates.
    "storm": ScenarioSpec(
        name="storm",
        zipf_s=1.1,
        n_shapes=32,
        monitor_fraction=0.7,
        n_subscriptions=16,
        deadline_fraction=0.2,
    ),
}


@dataclass(frozen=True)
class Arrival:
    """One scheduled injection: a query submission or a monitor update.

    ``at`` is seconds from the start of the run on the wall clock.
    Query arrivals carry a ready-built :class:`PRQRequest`; update
    arrivals carry the subscription id and its new location (plus an
    optional per-update deadline).
    """

    at: float
    op: str
    request: PRQRequest | None = None
    subscription_id: str | None = None
    mean: np.ndarray | None = None
    deadline: float | None = None


class _Shape:
    """One materialized query shape (kind + prebuilt query object)."""

    __slots__ = ("kind", "query")

    def __init__(self, kind: str, query: ProbabilisticRangeQuery):
        self.kind = kind
        self.query = query


class ScenarioWorkload:
    """A :class:`ScenarioSpec` bound to one concrete database.

    Materialization (shape placement, subscription anchors, Zipf
    weights) happens once at construction from ``spec.seed``;
    :meth:`schedule` can then be called repeatedly with different rates
    and salts without re-deriving the population.
    """

    def __init__(self, spec: ScenarioSpec, database: SpatialDatabase):
        if spec.needs_target_table and database.targets is None:
            raise LoadError(
                "scenario mixes uncertain-target queries but the database "
                "has no target covariance table — wrap it with "
                "ScenarioWorkload.prepare_database first"
            )
        self.spec = spec
        self.database = database
        points = np.asarray(database.points, dtype=float)
        self._lo = points.min(axis=0)
        self._hi = points.max(axis=0)
        extent = float((self._hi - self._lo).max())
        self.extent = extent if extent > 0 else 1.0
        self._shapes = self._materialize_shapes()
        self._zipf = self._zipf_weights(spec.n_shapes, spec.zipf_s)
        self._subscriptions = self._materialize_subscriptions()

    @staticmethod
    def prepare_database(
        spec: ScenarioSpec, database: SpatialDatabase
    ) -> SpatialDatabase:
        """Attach a shared isotropic target table when the mix needs one.

        Uncertain-target queries integrate against per-object location
        laws N(point, Σ_o); stores carry exact points, so the harness
        (like the CLI) models Σ_o as ``(target_sigma_fraction * extent)²
        I`` shared across all objects.  Returns the database unchanged
        when no uncertain queries appear in the mix.
        """
        if not spec.needs_target_table or database.targets is not None:
            return database
        points = np.asarray(database.points, dtype=float)
        extent = float((points.max(axis=0) - points.min(axis=0)).max()) or 1.0
        sd = spec.target_sigma_fraction * extent
        ids = np.asarray(database.ids)
        table = TargetCovarianceTable.shared(
            (sd * sd) * np.eye(database.dim), ids
        )
        return SpatialDatabase(points, ids=ids, target_table=table)

    # ------------------------------------------------------------------
    # Materialization (spec.seed only)
    # ------------------------------------------------------------------

    @staticmethod
    def _zipf_weights(n: int, s: float) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-s)
        return weights / weights.sum()

    def _materialize_shapes(self) -> list[_Shape]:
        spec = self.spec
        rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, 0x5CA1E])
        )
        kinds = [k for k in QUERY_KINDS if spec.kind_mix.get(k, 0.0) > 0]
        kind_w = np.array([spec.kind_mix[k] for k in kinds], dtype=float)
        kind_w = kind_w / kind_w.sum()
        shapes: list[_Shape] = []
        for index in range(spec.n_shapes):
            kind = kinds[int(rng.choice(len(kinds), p=kind_w))]
            center = rng.uniform(self._lo, self._hi)
            sigma_f = float(rng.choice(spec.sigma_fractions))
            sd = sigma_f * self.extent
            sigma = (sd * sd) * np.eye(self.database.dim)
            delta = float(rng.choice(spec.delta_fractions)) * self.extent
            theta = float(rng.choice(spec.thetas))
            gaussian = Gaussian(center, sigma)
            if kind == "prq":
                query: ProbabilisticRangeQuery = ProbabilisticRangeQuery(
                    gaussian, delta, theta
                )
            elif kind == "uncertain":
                query = UncertainTargetQuery(gaussian, delta, theta)
            elif kind == "mixture":
                offset = rng.normal(0.0, sd, size=self.database.dim)
                components = [
                    Gaussian(center + offset, sigma),
                    Gaussian(center - offset, sigma),
                ]
                mixture = GaussianMixture(components, weights=[0.65, 0.35])
                query = MixtureRangeQuery.create(mixture, delta, theta)
            else:  # knn
                query = KNNQuery.create(
                    gaussian,
                    k=int(rng.integers(1, 4)),
                    theta=theta,
                    n_samples=256,
                    seed=index,
                )
            shapes.append(_Shape(kind, query))
        return shapes

    def _materialize_subscriptions(self) -> list[tuple[str, Gaussian, float, float]]:
        spec = self.spec
        if spec.n_subscriptions == 0:
            return []
        rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, 0x5B5])
        )
        subs = []
        for index in range(spec.n_subscriptions):
            center = rng.uniform(self._lo, self._hi)
            sd = float(rng.choice(spec.sigma_fractions)) * self.extent
            sigma = (sd * sd) * np.eye(self.database.dim)
            delta = float(rng.choice(spec.delta_fractions)) * self.extent
            theta = float(rng.choice(spec.thetas))
            subs.append(
                (f"{spec.name}-sub-{index}", Gaussian(center, sigma),
                 delta, theta)
            )
        return subs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shapes(self) -> int:
        """Number of distinct query shapes in the population."""
        return len(self._shapes)

    def subscriptions(self) -> Iterator[tuple[str, Gaussian, float, float]]:
        """``(subscription_id, gaussian, delta, theta)`` anchors to register.

        Standing subscriptions are always exact PRQs (the safe-region
        contract excludes kinded queries), independent of ``kind_mix``.
        """
        return iter(self._subscriptions)

    def kind_histogram(self) -> dict[str, int]:
        """Materialized shape counts per kind (diagnostics/reporting)."""
        counts: dict[str, int] = {}
        for shape in self._shapes:
            counts[shape.kind] = counts.get(shape.kind, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Scheduling (spec.seed + rate + duration + salt)
    # ------------------------------------------------------------------

    def schedule(
        self, rate: float, duration: float, *, salt: int = 0
    ) -> list[Arrival]:
        """Draw one Poisson arrival schedule at ``rate`` requests/second.

        The returned list is fully determined by ``(spec.seed, rate,
        duration, salt)`` and is sorted by ``at``.  Arrival timestamps
        are drawn *up front* — the open-loop property — and each arrival
        is independently classified as a query (popularity-weighted
        shape, optional deadline/priority) or, with probability
        ``monitor_fraction``, a subscription update whose target follows
        a bounded random walk from its anchor.
        """
        if rate <= 0:
            raise LoadError(f"rate must be > 0 requests/second, got {rate}")
        if duration <= 0:
            raise LoadError(f"duration must be > 0 seconds, got {duration}")
        spec = self.spec
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [spec.seed, 0xA221, int(salt) & 0xFFFFFFFF]
            )
        )
        step_sd = spec.update_step_fraction * self.extent
        positions = {
            sub_id: np.array(gaussian.mean, dtype=float)
            for sub_id, gaussian, _, _ in self._subscriptions
        }
        sub_ids = [sub_id for sub_id, _, _, _ in self._subscriptions]
        arrivals: list[Arrival] = []
        mean_gap = 1.0 / rate
        t = 0.0
        seq = 0
        while True:
            t += float(rng.exponential(mean_gap))
            if t >= duration:
                break
            deadline = None
            if spec.deadline_fraction > 0 and rng.random() < spec.deadline_fraction:
                deadline = float(rng.choice(spec.deadline_ms)) / 1e3
            if sub_ids and rng.random() < spec.monitor_fraction:
                sub_id = sub_ids[int(rng.integers(len(sub_ids)))]
                step = rng.normal(0.0, step_sd, size=self.database.dim)
                position = np.clip(positions[sub_id] + step, self._lo, self._hi)
                positions[sub_id] = position
                arrivals.append(
                    Arrival(
                        at=t,
                        op=OP_UPDATE,
                        subscription_id=sub_id,
                        mean=position.copy(),
                        deadline=deadline,
                    )
                )
                continue
            shape = self._shapes[int(rng.choice(spec.n_shapes, p=self._zipf))]
            priority = 0
            if (
                spec.priority_fraction > 0
                and rng.random() < spec.priority_fraction
            ):
                priority = int(rng.choice(spec.priority_levels))
            request = PRQRequest.from_query(
                shape.query,
                deadline=deadline,
                priority=priority,
                request_id=f"{spec.name}-{salt}-{seq}",
            )
            seq += 1
            arrivals.append(Arrival(at=t, op=OP_QUERY, request=request))
        return arrivals
