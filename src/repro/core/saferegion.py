"""Pre-approximated safe regions for standing (continuous) queries.

The paper's moving-object setting issues the *same* PRQ(q, δ, θ) from a
stream of nearby locations.  Re-running the pipeline per location wastes
nearly all of its work: the answer of a probabilistic range query is
remarkably stable under small query-object motion.  This module makes
that stability *provable* and *checkable in O(1)*, following the
pre-approximation idea of "A PRQ Search Method for Probabilistic
Objects" (arXiv:1210.4663): reduce the standing query once to a
simplified region whose answer is guaranteed to survive while the query
object stays inside it.

The construction reuses the paper's own bounding-function machinery
(Definition 6 / Eq. 21).  In the whitened frame of Σ the qualification
probability of a target at Mahalanobis distance ``m`` from the query
mean is sandwiched by two noncentral-χ² CDFs that depend on ``m`` alone
(:func:`repro.gaussian.quadform.chi2_sandwich_bounds_block`):

    F(δ²/λ_max; d, m²)  ≤  P(‖x − o‖ ≤ δ)  ≤  F(δ²/λ_min; d, m²).

Both curves are strictly decreasing in ``m``, so inverting them at θ
(:func:`repro.gaussian.radial.alpha_for_mass` — exactly the BF catalog
computation) yields two *alpha-shell* radii:

- ``r_accept`` — every target with ``m ≤ r_accept`` **provably
  qualifies** (the inner shell, the paper's α∥);
- ``r_reject`` — every target with ``m > r_reject`` **provably does
  not** (the outer shell, the paper's α⊥).

Because Mahalanobis distance obeys the triangle inequality (Σ fixed), a
query-mean shift of Mahalanobis length ``s`` moves every target's
distance by at most ``s``.  Each certain target therefore carries a
*slack* — how far the mean may travel before its decision could flip —
and the minimum slack is the subscription's safe radius.  Targets whose
probability lies strictly between the shells (the *border* objects,
decided at build time by full integration) carry no slack: any motion
re-opens them, but only them.

:meth:`SafeRegion.classify` turns one location/covariance update into a
:class:`RegionDecision`:

- ``DECISION_SURVIVED`` — the shift is covered by every slack; the
  anchor answer is provably still exact.  Cost: one d×d mat-vec and a
  binary search.
- ``DECISION_REINTEGRATE`` — only the listed cached rows (border
  objects plus slack-exhausted certains) need Phase 2/3 again; every
  other decision is proven to stand.
- ``DECISION_REPLAN`` — the covariance changed, the translated Phase-1
  rectangle escaped the cached candidate superset, or so many slacks
  broke that a fresh anchor is cheaper.  The region must be rebuilt
  around the new location.

Soundness of the candidate cache: the cached superset is an *expanded*
Phase-1 rectangle (margin-scaled).  With Σ, δ, θ fixed, every strategy's
Phase-1 rectangle is translation-equivariant in the mean, so the new
rectangle fits inside the cached one iff the Euclidean shift respects
the per-dimension margins — checked in O(d) without touching any
strategy.  The full subscription contract lives in
``docs/monitoring.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.query import ProbabilisticRangeQuery
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.gaussian.radial import alpha_for_mass
from repro.geometry.mbr import Rect

__all__ = [
    "SafeRegion",
    "RegionDecision",
    "alpha_shell_radii",
    "DECISION_SURVIVED",
    "DECISION_REINTEGRATE",
    "DECISION_REPLAN",
]

#: The shift is covered by every slack — the anchor answer is still exact.
DECISION_SURVIVED = "survived"
#: Only the listed cached rows need Phase 2/3 again.
DECISION_REINTEGRATE = "reintegrate"
#: The region no longer covers the update — rebuild around the new anchor.
DECISION_REPLAN = "replan"

#: Scale of the cached candidate superset: the anchor's Phase-1
#: rectangle 50 % wider per side, trading memory for how far the object
#: can roam before a cache rebuild.
MARGIN = 0.5
#: An update may re-decide up to max(REPLAN_MIN, REPLAN_FRACTION × cached
#: rows) slack-exhausted rows in place; beyond that a fresh anchor is
#: considered cheaper than patching the old one.
REPLAN_FRACTION = 0.35
REPLAN_MIN = 8


def alpha_shell_radii(
    gaussian: Gaussian, delta: float, theta: float
) -> tuple[float | None, float | None]:
    """The certain-accept / certain-reject Mahalanobis radii.

    Returns ``(r_accept, r_reject)``:

    - ``r_accept`` — targets at Mahalanobis distance ``m ≤ r_accept``
      from the mean have qualification probability provably ≥ θ
      (``None`` when not even a target at the mean can be *proven* to
      qualify through the sandwich lower bound);
    - ``r_reject`` — targets with ``m > r_reject`` provably have
      probability < θ (``None`` when not even the mean itself can reach
      θ under the sandwich upper bound — the query answer is then empty
      for *every* location, Σ and δ being what they are).

    Both come from inverting Eq. 21's noncentral-χ² mass curve, the same
    root-finding the BF catalog performs (λ∥ = 1/λ_max, λ⊥ = 1/λ_min).
    """
    if delta <= 0:
        raise QueryError(f"delta must be > 0, got {delta}")
    if not 0.0 < theta < 1.0:
        raise QueryError(f"theta must be in (0, 1), got {theta}")
    lam_max = float(gaussian.eigenvalues[0])
    lam_min = float(gaussian.eigenvalues[-1])
    r_accept = alpha_for_mass(gaussian.dim, delta / math.sqrt(lam_max), theta)
    r_reject = alpha_for_mass(
        gaussian.dim, delta / math.sqrt(lam_min), theta, prune=True
    )
    return r_accept, r_reject


@dataclass(frozen=True)
class RegionDecision:
    """What one location/covariance update requires of a subscription."""

    #: One of :data:`DECISION_SURVIVED` / :data:`DECISION_REINTEGRATE` /
    #: :data:`DECISION_REPLAN`.
    kind: str
    #: Why a replan is required (``"covariance"``, ``"cache-overrun"``,
    #: ``"anchor-empty"``, ``"slack-exhausted"``) — empty otherwise.
    reason: str = ""
    #: Mahalanobis length of the mean shift from the anchor.
    shift: float = 0.0
    #: Row indices (into the region's cached arrays) that must be
    #: re-decided by Phase 2/3; empty unless ``kind == "reintegrate"``.
    recheck: np.ndarray | None = None

    @property
    def n_recheck(self) -> int:
        return 0 if self.recheck is None else int(self.recheck.size)


class SafeRegion:
    """One standing query's pre-approximation, anchored at build time.

    Draw the candidate cache with :meth:`superset`, build with
    :meth:`build`; interrogate updates with :meth:`classify`;
    assemble the surviving part of the answer with
    :meth:`certain_accept_ids`.  Instances are immutable after
    construction and safe to share across reader threads.
    """

    __slots__ = (
        "query",
        "r_accept",
        "r_reject",
        "always_empty",
        "anchor_rect",
        "cached_rect",
        "ids",
        "points",
        "mahal",
        "accepted_mask",
        "slack",
        "answer",
        "_order",
        "_sorted_slack",
        "n_border",
    )

    def __init__(
        self,
        query: ProbabilisticRangeQuery,
        *,
        r_accept: float | None,
        r_reject: float | None,
        anchor_rect: Rect | None,
        cached_rect: Rect | None,
        ids: np.ndarray,
        points: np.ndarray,
        answer: tuple[int, ...],
    ):
        self.query = query
        self.r_accept = r_accept
        self.r_reject = r_reject
        #: With ``r_reject is None`` even a target at the mean provably
        #: misses θ: the answer is () for every location of this shape.
        self.always_empty = r_reject is None
        self.anchor_rect = anchor_rect
        self.cached_rect = cached_rect
        self.ids = np.asarray(ids, dtype=np.int64)
        self.points = np.asarray(points, dtype=float)
        self.answer = tuple(int(i) for i in answer)
        gaussian = query.gaussian
        if self.ids.size:
            self.mahal = gaussian.mahalanobis(self.points)
            self.accepted_mask = np.isin(
                self.ids, np.asarray(self.answer, dtype=np.int64)
            )
        else:
            self.mahal = np.empty(0)
            self.accepted_mask = np.empty(0, dtype=bool)
        # Per-row slack: how far (Mahalanobis) the mean may move before
        # this row's anchor decision could flip.  Accepted rows are
        # certain while m + s <= r_accept; rejected rows while
        # m - s > r_reject.  Border rows (slack <= 0) reopen on any
        # motion.
        accept_radius = -np.inf if r_accept is None else float(r_accept)
        reject_radius = np.inf if r_reject is None else float(r_reject)
        slack = np.where(
            self.accepted_mask,
            accept_radius - self.mahal,
            self.mahal - reject_radius,
        )
        if self.always_empty:
            # No row can ever qualify: every rejection is uncondition-
            # ally certain, whatever the (same-shape) location.
            slack = np.full(self.mahal.shape, np.inf)
        self.slack = slack
        self._order = np.argsort(slack, kind="stable")
        self._sorted_slack = slack[self._order]
        self.n_border = int(np.count_nonzero(slack <= 0.0))

    # -- construction ---------------------------------------------------

    @staticmethod
    def superset(
        anchor_rect: Rect | None, *, index, reuse: "SafeRegion | None" = None
    ) -> tuple[Rect | None, np.ndarray, np.ndarray]:
        """The cached candidate superset ``(cached_rect, ids, points)``.

        ``anchor_rect`` is the query's combined Phase-1 rectangle
        (``None`` when a strategy proved the result empty).  ``reuse``
        donates its superset when it still covers ``anchor_rect``;
        otherwise ``index`` (``db.index``) is searched once over
        ``anchor_rect`` scaled by :data:`MARGIN`.  Every row a cold run
        retrieves is a row of the superset inside ``anchor_rect``.
        """
        if (
            reuse is not None
            and reuse.cached_rect is not None
            and (anchor_rect is None or reuse.cached_rect.contains_rect(anchor_rect))
        ):
            return reuse.cached_rect, reuse.ids, reuse.points
        if anchor_rect is None:
            return None, np.empty(0, dtype=np.int64), np.empty((0, index.dim))
        cached_rect = Rect.from_center(
            anchor_rect.center, (anchor_rect.extents / 2.0) * (1.0 + MARGIN)
        )
        hits = index.range_search_rect(cached_rect)
        return cached_rect, hits.ids, hits.points

    @classmethod
    def build(
        cls,
        query: ProbabilisticRangeQuery,
        answer: tuple[int, ...],
        *,
        anchor_rect: Rect | None,
        superset: tuple[Rect | None, np.ndarray, np.ndarray],
    ) -> "SafeRegion":
        """Anchor a safe region at ``query`` whose full answer is ``answer``.

        ``anchor_rect`` is the query's combined Phase-1 rectangle and
        ``superset`` the :meth:`superset` drawn around it.  The shell
        radii depend only on (Σ spectrum, δ, θ), so a re-anchor after
        pure translation finds both in the inversion memo.
        """
        r_accept, r_reject = alpha_shell_radii(
            query.gaussian, query.delta, query.theta
        )
        cached_rect, ids, points = superset
        return cls(
            query,
            r_accept=r_accept,
            r_reject=r_reject,
            anchor_rect=anchor_rect,
            cached_rect=cached_rect,
            ids=ids,
            points=points,
            answer=answer,
        )

    # -- update classification ------------------------------------------

    def shift_of(self, mean: np.ndarray) -> float:
        """Mahalanobis length of ``mean``'s offset from the anchor mean."""
        return float(
            self.query.gaussian.mahalanobis(
                np.asarray(mean, dtype=float).reshape(1, -1)
            )[0]
        )

    def classify(
        self,
        mean: np.ndarray,
        sigma: np.ndarray | None = None,
    ) -> RegionDecision:
        """Decide what one location/covariance update requires.

        ``sigma=None`` means "covariance unchanged".  A changed
        covariance always replans: the shell radii, the whitening frame
        and the Phase-1 rectangle geometry all depend on Σ.
        ``REPLAN_FRACTION``/``REPLAN_MIN`` bound how many cached rows
        may be re-decided in place before a replan.
        """
        anchor = self.query.gaussian
        if sigma is not None and not np.array_equal(sigma, anchor.sigma):
            return RegionDecision(DECISION_REPLAN, reason="covariance")
        mean_arr = np.asarray(mean, dtype=float)
        if mean_arr.shape != anchor.mean.shape:
            raise QueryError(
                f"update mean shape {mean_arr.shape} does not match "
                f"anchor shape {anchor.mean.shape}"
            )
        offset = mean_arr - anchor.mean
        if not np.any(offset):
            return RegionDecision(DECISION_SURVIVED)
        if self.always_empty:
            return RegionDecision(DECISION_SURVIVED, shift=self.shift_of(mean_arr))
        if self.anchor_rect is None:
            # The anchor intersection proved empty position-dependently;
            # there is no translated rectangle to validate the cache
            # against, so any real motion needs a fresh look.
            return RegionDecision(DECISION_REPLAN, reason="anchor-empty")
        assert self.cached_rect is not None
        if not (
            np.all(self.anchor_rect.lows + offset >= self.cached_rect.lows)
            and np.all(self.anchor_rect.highs + offset <= self.cached_rect.highs)
        ):
            return RegionDecision(DECISION_REPLAN, reason="cache-overrun")
        shift = self.shift_of(mean_arr)
        # Rows whose slack does not strictly dominate the shift must be
        # re-decided (<=: boundary rows re-check, conservatively).
        k = int(np.searchsorted(self._sorted_slack, shift, side="right"))
        if k == 0:
            return RegionDecision(DECISION_SURVIVED, shift=shift)
        # Border rows are rechecked under *any* anchor with this Σ —
        # re-anchoring cannot shrink the indeterminate shell — so only
        # the slack-exhausted rows beyond them argue for a replan.
        if k - self.n_border > max(REPLAN_MIN, int(REPLAN_FRACTION * self.ids.size)):
            return RegionDecision(
                DECISION_REPLAN, reason="slack-exhausted", shift=shift
            )
        return RegionDecision(
            DECISION_REINTEGRATE, shift=shift, recheck=self._order[:k]
        )

    def certain_accept_ids(self, decision: RegionDecision) -> list[int]:
        """Accepted ids whose slack survives ``decision``'s shift.

        Together with the re-decided rows of ``decision.recheck`` this
        is the full answer at the shifted location: every other cached
        row is a proven reject, and everything outside the cached
        superset lies outside the (translated) Phase-1 rectangle.
        """
        if decision.recheck is None or decision.recheck.size == 0:
            return [int(i) for i in self.answer]
        keep = np.ones(self.ids.size, dtype=bool)
        keep[decision.recheck] = False
        mask = keep & self.accepted_mask
        return [int(i) for i in self.ids[mask]]
