"""The three filtering strategies of Section IV behind one interface.

Every strategy is *prepared* once per query and then offers two services
to the engine:

1. a Phase-1 **search rectangle** — the engine intersects the rectangles
   of all active strategies and runs one R-tree range search;
2. a Phase-2 **classification** of candidate points into three classes:

   - ``REJECT`` — provably fails the query; dropped without integration;
   - ``ACCEPT`` — provably satisfies the query (only BF can do this, via
     its lower bounding function); added to the result without integration;
   - ``UNKNOWN`` — needs Phase-3 numerical integration.

Soundness of every REJECT/ACCEPT follows from the paper's Properties 1–5
together with the conservative catalog lookups.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from repro import kernels
from repro.catalog.bf import BFLookup, alpha_radii
from repro.catalog.rtheta import ExactRThetaLookup, RThetaLookup
from repro.errors import CatalogError, QueryError
from repro.geometry.mbr import Rect
from repro.geometry.minkowski import MinkowskiRegion
from repro.geometry.obliquebox import ObliqueBox
from repro.core.query import ProbabilisticRangeQuery

__all__ = [
    "ACCEPT",
    "REJECT",
    "UNKNOWN",
    "Strategy",
    "RectilinearStrategy",
    "ObliqueStrategy",
    "BoundingFunctionStrategy",
    "EllipsoidStrategy",
    "make_strategies",
    "STRATEGY_COMBINATIONS",
]

#: Classification codes returned by :meth:`Strategy.classify`.
REJECT: int = -1
UNKNOWN: int = 0
ACCEPT: int = 1


class Strategy(abc.ABC):
    """One filtering strategy, prepared per query."""

    #: Short name used in statistics and reports ("RR", "OR", "BF").
    name: str = "abstract"
    #: The Phase-1 rectangle; exists only once :meth:`prepare` has run.
    _rect: Rect | None

    @abc.abstractmethod
    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        """Derive per-query state (regions, radii) and the Phase-1
        rectangle ``self._rect``.  Must be called first."""

    def search_rect(self) -> Rect | None:
        """The Phase-1 rectangle :meth:`prepare` built — the same object on
        every call — or ``None`` if this strategy offers none."""
        try:
            return self._rect
        except AttributeError:
            raise QueryError(f"{self.name} strategy used before prepare()") from None

    @abc.abstractmethod
    def classify(self, points: np.ndarray) -> np.ndarray:
        """Phase-2 decision for a whole ``(n, d)`` candidate block.

        Returns one ``int8`` code per row — ACCEPT / REJECT / UNKNOWN — in
        one call; this is the only block contract a strategy implements.
        """

    def classify_candidates(
        self, ids: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Classify candidates given their object ids alongside the points.

        The stage pipeline's Phase 2 always calls this entry point.  The
        paper's strategies are pure functions of the candidate *location*,
        so the default ignores ``ids`` and delegates to :meth:`classify`;
        a strategy that keeps per-object state (the target covariance
        groups of :class:`repro.core.kinds.TargetGroupStrategy`) overrides
        it.
        """
        return self.classify(points)

    def clone(self) -> "Strategy":
        """An unprepared copy sharing configuration (lookups) but no
        per-query state.

        ``run_batch`` clones the engine's strategy templates once per
        query so concurrent workers never share mutable ``prepare`` state.
        The default shallow copy is correct for strategies whose only
        shared attributes are immutable configuration; override if a
        subclass holds mutable shared state.
        """
        return copy.copy(self)

    @property
    def proves_empty(self) -> bool:
        """True when preparation proved the whole result set is empty."""
        return False

    def _require_prepared(self, attr: str) -> None:
        if getattr(self, attr, None) is None:
            raise QueryError(f"{self.name} strategy used before prepare()")


def _r_theta_for(
    lookup: RThetaLookup | None, query: ProbabilisticRangeQuery
) -> float:
    """r_θ of the query's θ-region, from ``lookup`` or the exact closed form."""
    lookup = lookup or ExactRThetaLookup(query.dim)
    if lookup.dim != query.dim:
        raise QueryError(
            f"r_theta lookup is for dimension {lookup.dim}, query has {query.dim}"
        )
    return lookup.r_theta(query.region_theta)


class RectilinearStrategy(Strategy):
    """RR (Section IV-A): θ-region bounding box ⊕ δ-ball, with fringe filter.

    Parameters
    ----------
    lookup:
        Source of r_θ values; defaults to the exact closed form.  Pass an
        :class:`repro.catalog.RThetaCatalog` for the paper's table-driven
        behaviour.
    fringe_filter:
        ``"exact"`` applies the exact rounded-region membership test in any
        dimension; ``"paper"`` restricts the fringe filter to d = 2 as the
        paper does ("computation of fringe part is not easy for d >= 3").
    """

    name = "RR"

    def __init__(
        self, lookup: RThetaLookup | None = None, *, fringe_filter: str = "exact"
    ):
        if fringe_filter not in ("exact", "paper"):
            raise QueryError(
                f"fringe_filter must be 'exact' or 'paper', got {fringe_filter!r}"
            )
        self._lookup = lookup
        self.fringe_filter = fringe_filter
        self._region: MinkowskiRegion | None = None

    @property
    def region(self) -> MinkowskiRegion:
        self._require_prepared("_region")
        return self._region

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        r_theta = _r_theta_for(self._lookup, query)
        core_box = query.gaussian.contour(r_theta).bounding_rect()
        self._region = MinkowskiRegion(core_box, query.delta)
        self._rect = self._region.bounding_rect()

    def classify(self, points: np.ndarray) -> np.ndarray:
        region = self.region
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        codes = np.full(pts.shape[0], UNKNOWN, dtype=np.int8)
        if self.fringe_filter == "paper" and region.dim != 2:
            return codes
        contains = kernels.minkowski_contains(
            pts, region.core.lows, region.core.highs, region.delta
        )
        codes[~contains] = REJECT
        return codes


class ObliqueStrategy(Strategy):
    """OR (Section IV-B): eigenbasis-aligned box inflated by δ.

    Primarily a Phase-2 filter (the paper notes its world-axis bounding box
    is generally large), but the bounding rectangle is still offered to
    Phase 1 so an OR-only configuration remains executable.
    """

    name = "OR"

    def __init__(self, lookup: RThetaLookup | None = None):
        self._lookup = lookup
        self._box: ObliqueBox | None = None

    @property
    def box(self) -> ObliqueBox:
        self._require_prepared("_box")
        return self._box

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        r_theta = _r_theta_for(self._lookup, query)
        gaussian = query.gaussian
        # Eq. 20 in the eigenbasis the query's Gaussian already holds.
        self._box = ObliqueBox(
            gaussian.whitening.eigen,
            r_theta * np.sqrt(gaussian.eigenvalues) + query.delta,
        )
        self._rect = self._box.bounding_rect()

    def classify(self, points: np.ndarray) -> np.ndarray:
        box = self.box
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        codes = np.full(pts.shape[0], UNKNOWN, dtype=np.int8)
        contains = kernels.oblique_contains(
            pts, box.center, box.transform.basis, box.half_widths
        )
        codes[~contains] = REJECT
        return codes


class BoundingFunctionStrategy(Strategy):
    """BF (Section IV-C): spherical bounding functions give α∥ and α⊥.

    After preparation:

    - objects farther than ``alpha_upper`` from q are rejected — even the
      upper bounding function p∥ cannot reach mass θ there (Fig. 11);
    - objects nearer than ``alpha_lower`` are accepted without integration
      — already the lower bounding function p⊥ guarantees mass θ;
    - ``alpha_upper is None`` proves the result empty;
    - ``alpha_lower is None`` reproduces the missing "inner hole" of the
      ill-shaped high-dimensional case (Section VI).
    """

    name = "BF"

    def __init__(self, lookup: BFLookup | None = None):
        self._lookup = lookup
        self._center: np.ndarray | None = None
        self.alpha_upper: float | None = None
        self.alpha_lower: float | None = None

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        try:
            self.alpha_upper, self.alpha_lower = alpha_radii(
                query.gaussian, query.delta, query.theta, self._lookup
            )
        except CatalogError as exc:
            raise QueryError(str(exc)) from exc
        self._center = query.gaussian.mean
        self._rect = (
            None
            if self.alpha_upper is None
            else Rect.from_center(
                self._center, np.full(self._center.size, self.alpha_upper)
            )
        )

    @property
    def proves_empty(self) -> bool:
        self._require_prepared("_center")
        return self.alpha_upper is None

    def classify(self, points: np.ndarray) -> np.ndarray:
        self._require_prepared("_center")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.alpha_upper is None:
            return np.full(pts.shape[0], REJECT, dtype=np.int8)
        return kernels.bf_classify(
            pts, self._center, self.alpha_upper, self.alpha_lower
        )


class EllipsoidStrategy(Strategy):
    """EM (ours): filter directly with the θ-region ⊕ δ-ball region.

    The paper's Fig. 3 soundness argument never needs the bounding *box*:
    if ball(o, δ) misses the θ-region entirely, then (i) the two balls at
    o and its point reflection o′ through q are disjoint (overlap would
    put q inside ball(o, δ), contradicting q ∈ θ-region), and (ii) by
    point symmetry they carry equal mass, so each holds less than half of
    the 2θ outside the θ-region.  Hence ``dist(o, θ-region) > δ`` is a
    sound REJECT — a region contained in both the RR and OR regions, i.e.
    a strictly stronger geometric filter, at the cost of a per-candidate
    root find (:meth:`repro.geometry.ellipsoid.Ellipsoid.distance_to_surface`).
    """

    name = "EM"

    def __init__(self, lookup: RThetaLookup | None = None):
        self._lookup = lookup
        self._ellipsoid = None
        self._delta: float | None = None

    @property
    def ellipsoid(self):
        self._require_prepared("_ellipsoid")
        return self._ellipsoid

    def prepare(self, query: ProbabilisticRangeQuery) -> None:
        r_theta = _r_theta_for(self._lookup, query)
        self._ellipsoid = query.gaussian.contour(r_theta)
        self._delta = query.delta
        self._rect = self._ellipsoid.bounding_rect().expand(self._delta)

    def classify(self, points: np.ndarray) -> np.ndarray:
        ellipsoid = self.ellipsoid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        codes = np.full(pts.shape[0], UNKNOWN, dtype=np.int8)
        codes[ellipsoid.distance_to_surface(pts) > self._delta] = REJECT
        return codes


#: The six configurations evaluated in the paper (Section V-A), plus the
#: EM extensions of this library.
STRATEGY_COMBINATIONS: dict[str, tuple[str, ...]] = {
    "rr": ("RR",),
    "bf": ("BF",),
    "rr+bf": ("RR", "BF"),
    "rr+or": ("RR", "OR"),
    "bf+or": ("BF", "OR"),
    "all": ("RR", "BF", "OR"),
    "em": ("EM",),
    "em+bf": ("EM", "BF"),
}

#: The same table keyed by the order-insensitive form of the spec.
_NORMALIZED_COMBINATIONS: dict[str, tuple[str, ...]] = {
    "+".join(sorted(spec.split("+"))): names
    for spec, names in STRATEGY_COMBINATIONS.items()
}


def make_strategies(
    spec: str,
    *,
    rtheta_lookup: RThetaLookup | None = None,
    bf_lookup: BFLookup | None = None,
    fringe_filter: str = "exact",
) -> list[Strategy]:
    """Build the strategy list for one of the paper's six configurations.

    ``spec`` is one of ``rr``, ``bf``, ``rr+bf``, ``rr+or``, ``bf+or``,
    ``all`` (case-insensitive; order inside the spec does not matter).
    """
    key = "+".join(sorted(spec.lower().split("+")))
    if key not in _NORMALIZED_COMBINATIONS:
        raise QueryError(
            f"unknown strategy spec {spec!r}; choose from "
            f"{sorted(STRATEGY_COMBINATIONS)}"
        )
    built: list[Strategy] = []
    for name in _NORMALIZED_COMBINATIONS[key]:
        if name == "RR":
            built.append(
                RectilinearStrategy(rtheta_lookup, fringe_filter=fringe_filter)
            )
        elif name == "OR":
            built.append(ObliqueStrategy(rtheta_lookup))
        elif name == "EM":
            built.append(EllipsoidStrategy(rtheta_lookup))
        else:
            built.append(BoundingFunctionStrategy(bf_lookup))
    return built
