"""Every input of the end-to-end benchmark, generated with NumPy only.

Nothing here imports ``repro``: the program under test receives plain
arrays (points, query parameters, arrival times) and nothing else, so a
change to the program cannot change its own inputs.

Two kinds of input:

- **datasets** — a fixed corpus (``DATASET_SEED``), the same for every
  ``--seed``, so a run-to-run difference is never a different database.
  Their SHA-256 digests are recorded in ``datasets.json`` and checked on
  every run ("input drift");
- **queries, arrival schedules and trajectories** — drawn from
  ``--seed``; the same seed gives the same inputs.

Query centres sit on data points, stratified by local density and issued
in van der Corput order, so that every prefix of a query list covers the
sparse-to-dense range evenly: a time-bounded run that completes fewer
operations still measures the same mix.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DATASET_SEED",
    "DATASETS",
    "PAPER_SIGMA",
    "BoxCounter",
    "PRQSpec",
    "array_digest",
    "balanced_order",
    "cascade_2d_queries",
    "cascade_9d_queries",
    "hotkey_requests",
    "light_2d_queries",
    "mc_2d_queries",
    "monitor_storm",
    "poisson_schedule",
    "stratified_pick",
]

#: The corpus seed.  Changing it (or a generator below) changes every
#: digest in ``datasets.json`` and is reported as input drift.
DATASET_SEED = 2009

#: The paper's 2-D covariance shape (Eq. 34): an ellipse tilted 30° with
#: a 3:1 axis ratio.  Queries scale it by γ.
PAPER_SIGMA = np.array(
    [[7.0, 2.0 * math.sqrt(3.0)], [2.0 * math.sqrt(3.0), 3.0]]
)


@dataclass(frozen=True)
class PRQSpec:
    """One PRQ(q, δ, θ) as plain data: centre, covariance, δ, θ."""

    center: np.ndarray
    sigma: np.ndarray
    delta: float
    theta: float


def array_digest(points: np.ndarray) -> str:
    """SHA-256 over the little-endian float64 bytes of ``points``."""
    return hashlib.sha256(
        np.ascontiguousarray(points, dtype="<f8").tobytes()
    ).hexdigest()


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------


def _chop(p0: np.ndarray, p1: np.ndarray, piece: float) -> np.ndarray:
    """Midpoints of the ≈``piece``-long segments of the line p0→p1."""
    n = max(1, int(round(float(np.linalg.norm(p1 - p0)) / piece)))
    ts = (np.arange(n) + 0.5) / n
    return p0 + np.outer(ts, p1 - p0)


def road50k(seed: int = DATASET_SEED) -> np.ndarray:
    """A Long-Beach-like road-midpoint set: 50,747 × 2 in [0, 1000]².

    Towns with power-law sizes carry jittered street grids clipped to a
    disc; each town is joined to its nearest earlier town by an arterial
    bent through one waypoint.  Strongly skewed and locally linear, as
    the paper's TIGER set is.
    """
    n, extent, n_towns = 50_747, 1000.0, 64
    rng = np.random.default_rng(seed)
    centres = rng.random((n_towns, 2)) * extent
    radii = np.clip(20.0 + 140.0 * rng.pareto(2.5, n_towns), 20.0, 220.0)
    parts: list[np.ndarray] = []
    for centre, radius in zip(centres, radii):
        spacing = rng.uniform(6.0, 14.0)
        for axis in (0, 1):
            offsets = np.arange(-radius, radius + spacing, spacing)
            offsets = offsets + rng.normal(0.0, 0.15 * spacing, offsets.size)
            for offset in offsets:
                half = math.sqrt(max(radius**2 - offset**2, 0.0))
                if half < 8.0:
                    continue
                lo, hi = centre.copy(), centre.copy()
                lo[axis] += offset
                hi[axis] += offset
                lo[1 - axis] -= half
                hi[1 - axis] += half
                parts.append(_chop(lo, hi, 8.0))
    for i in range(1, n_towns):
        gaps = np.linalg.norm(centres[:i] - centres[i], axis=1)
        j = int(np.argmin(gaps))
        waypoint = (centres[i] + centres[j]) / 2.0 + rng.normal(
            0.0, extent * 0.03, 2
        )
        parts.append(_chop(centres[i], waypoint, 10.0))
        parts.append(_chop(waypoint, centres[j], 10.0))
    points = np.concatenate(parts)
    points = points[np.all((points >= 0) & (points <= extent), axis=1)]
    if points.shape[0] < n:
        raise ValueError(f"road generator made only {points.shape[0]} points")
    keep = np.sort(rng.choice(points.shape[0], size=n, replace=False))
    points = points[keep]
    lo, hi = points.min(axis=0), points.max(axis=0)
    return (points - lo) * (extent / (hi - lo))


def corel68k(seed: int = DATASET_SEED) -> np.ndarray:
    """A Color-Moments-like feature set: 68,040 × 9.

    Anisotropic scene clusters of near-duplicate image groups, rescaled
    by one factor so that a δ = 0.7 range query around a data point
    returns ≈ 15 objects (the paper reports 15.3).
    """
    n, dim, n_clusters, group = 68_040, 9, 120, 5
    rng = np.random.default_rng(seed)
    dim_scales = np.array([1.0, 1.0, 1.0, 0.6, 0.6, 0.6, 0.35, 0.35, 0.35])
    centres = rng.standard_normal((n_clusters, dim)) * dim_scales * 2.0
    weights = 1.0 / np.arange(1, n_clusters + 1) ** 0.8
    weights /= weights.sum()
    n_groups = (n + group - 1) // group
    assign = rng.choice(n_clusters, size=n_groups, p=weights)
    spreads = 0.15 + 0.5 * rng.random((n_clusters, dim))
    bases = centres[assign] + (
        rng.standard_normal((n_groups, dim)) * spreads[assign] * dim_scales
    )
    rows = np.repeat(bases, group, axis=0)[:n]
    jitter = np.repeat(spreads[assign], group, axis=0)[:n] * dim_scales * 0.06
    points = rows + rng.standard_normal((n, dim)) * jitter
    # One-pass calibration: the median distance from a data point to its
    # 15th neighbour (itself included) becomes 0.7.
    picks = rng.choice(n, size=300, replace=False)
    kth = np.empty(picks.size)
    for slot, i in enumerate(picks):
        gaps = points - points[i]
        sq = np.einsum("ij,ij->i", gaps, gaps)
        kth[slot] = math.sqrt(float(np.partition(sq, 14)[14]))
    return points * (0.7 / float(np.median(kth)))


def cluster200k(seed: int = DATASET_SEED) -> np.ndarray:
    """24 Gaussian clusters plus 20 % uniform noise: 200,000 × 2."""
    n, extent, n_clusters = 200_000, 1000.0, 24
    rng = np.random.default_rng(seed)
    n_noise = n // 5
    centres = rng.uniform(0.1 * extent, 0.9 * extent, (n_clusters, 2))
    spreads = rng.uniform(15.0, 60.0, n_clusters)
    assign = rng.integers(0, n_clusters, n - n_noise)
    clustered = centres[assign] + (
        rng.standard_normal((n - n_noise, 2)) * spreads[assign, None]
    )
    points = np.concatenate([clustered, rng.random((n_noise, 2)) * extent])
    points = np.clip(points, 0.0, extent)
    return points[rng.permutation(n)]


#: name -> (generator, expected shape).
DATASETS = {
    "road50k": (road50k, (50_747, 2)),
    "corel68k": (corel68k, (68_040, 9)),
    "cluster200k": (cluster200k, (200_000, 2)),
}


# ----------------------------------------------------------------------
# Query centres
# ----------------------------------------------------------------------


def balanced_order(n: int) -> np.ndarray:
    """The permutation of ``range(n)`` by bit-reversed index.

    Every prefix is spread evenly over ``range(n)`` (the van der Corput
    sequence), so stopping a stratified list early keeps it stratified.
    """
    bits = max(1, (n - 1).bit_length())
    keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return np.argsort(np.asarray(keys), kind="stable")


class BoxCounter:
    """Approximate point counts in axis-aligned squares, O(1) each.

    A 2-D histogram with ``cell``-sized bins and its summed-area table;
    a query square is rounded outward to whole cells.  Only used to rank
    candidate queries by how much data they will touch.
    """

    def __init__(self, points: np.ndarray, cell: float = 10.0):
        self._cell = cell
        self._origin = points.min(axis=0)
        span = points.max(axis=0) - self._origin
        shape = np.floor(span / cell).astype(np.int64) + 1
        keys = np.floor((points - self._origin) / cell).astype(np.int64)
        hist = np.zeros(shape, dtype=np.int64)
        np.add.at(hist, (keys[:, 0], keys[:, 1]), 1)
        table = np.zeros(shape + 1, dtype=np.int64)
        table[1:, 1:] = hist.cumsum(axis=0).cumsum(axis=1)
        self._table = table
        self._shape = shape

    def count(self, centres: np.ndarray, half: np.ndarray) -> np.ndarray:
        """Points in the squares ``centres ± half`` (vectorised)."""
        lo = np.floor((centres - half[:, None] - self._origin) / self._cell)
        hi = np.floor((centres + half[:, None] - self._origin) / self._cell) + 1
        lo = np.clip(lo.astype(np.int64), 0, self._shape)
        hi = np.clip(hi.astype(np.int64), 0, self._shape)
        t = self._table
        return (
            t[hi[:, 0], hi[:, 1]]
            - t[lo[:, 0], hi[:, 1]]
            - t[hi[:, 0], lo[:, 1]]
            + t[lo[:, 0], lo[:, 1]]
        )


def stratified_pick(
    cost: np.ndarray,
    n: int,
    rng: np.random.Generator,
    band: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Indices of ``n`` of the ``len(cost)`` candidates, one per cost stratum.

    Candidates are ranked by ``cost``; the quantile range ``band`` of
    that ranking is cut into ``n`` equal strata, one candidate is drawn
    from each and the picks are returned in :func:`balanced_order`.  Two
    seeds then issue query lists whose cost distributions agree quantile
    by quantile, which is what keeps tail latencies comparable between
    runs.
    """
    order = np.argsort(cost, kind="stable")
    edges = np.linspace(
        band[0] * order.size, band[1] * order.size, n + 1
    ).astype(np.int64)
    picks = np.array(
        [order[rng.integers(a, max(b, a + 1))] for a, b in zip(edges, edges[1:])]
    )
    return picks[balanced_order(n)]


#: Candidate queries drawn per query kept by :func:`stratified_pick`.
OVERSAMPLE = 4


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _paper_queries(
    points: np.ndarray,
    n: int,
    rng: np.random.Generator,
    gammas: np.ndarray,
    deltas: np.ndarray,
    thetas: np.ndarray,
    *,
    jitter: float = 0.0,
    band: tuple[float, float] = (0.0, 1.0),
) -> list[PRQSpec]:
    """Keep ``n`` of the candidate (centre, γ, δ, θ) tuples, cost-stratified.

    The cost key is the number of points in the square that bounds the
    query's θ-region dilated by δ (half-width δ + √(−2 ln θ)·√(7γ)),
    times 16 for the queries whose border candidates have noncentrality
    δ²/λ_min beyond ≈1400: there a series expansion's leading weight
    e^(−nc/2) underflows and an exact evaluator has to fall back to
    scalar numerical inversion, tens of milliseconds a candidate.  The
    factor only moves those queries to the top strata, so every seed
    issues the same share of them, evenly spaced; what is drawn is
    unchanged.
    """
    m = gammas.size
    centres = points[rng.integers(0, points.shape[0], m)]
    if jitter:
        centres = centres + rng.normal(0.0, jitter, centres.shape)
    half = deltas + np.sqrt(-2.0 * np.log(thetas)) * np.sqrt(7.0 * gammas)
    cost = BoxCounter(points).count(centres, half).astype(float)
    cost[deltas**2 / gammas > 1400.0] *= 16.0
    return [
        PRQSpec(
            centres[i].copy(),
            gammas[i] * PAPER_SIGMA,
            float(deltas[i]),
            float(thetas[i]),
        )
        for i in stratified_pick(cost, n, rng, band)
    ]


def cascade_2d_queries(
    points: np.ndarray, n: int, seed: int
) -> list[PRQSpec]:
    """γ∈{1,10,100}, δ log-uniform [10,50], θ log-uniform [0.005,0.3]."""
    rng = np.random.default_rng([seed, 1])
    m = OVERSAMPLE * n
    return _paper_queries(
        points,
        n,
        rng,
        rng.choice([1.0, 10.0, 100.0], m),
        _log_uniform(rng, 10.0, 50.0, m),
        _log_uniform(rng, 0.005, 0.3, m),
    )


def mc_2d_queries(points: np.ndarray, n: int, seed: int) -> list[PRQSpec]:
    """Table I's setting: γ = 10, δ = 25, θ = 0.01.

    One query costs 0.3–3 s here (60–400 integrations of 100,000 draws),
    so a run completes a few dozen at most.  To keep so few queries
    comparable from seed to seed they are taken from a narrow band of
    the cost ranking of 64 candidates each (5th–8th percentile: ≈60–75
    integrations a query).
    """
    rng = np.random.default_rng([seed, 2])
    m = 64 * n
    return _paper_queries(
        points,
        n,
        rng,
        np.full(m, 10.0),
        np.full(m, 25.0),
        np.full(m, 0.01),
        band=(0.05, 0.08),
    )


def light_2d_queries(points: np.ndarray, n: int, seed: int) -> list[PRQSpec]:
    """The light serve/shard mix: γ∈{1,10}, δ∈[10,30], θ∈[0.01,0.3].

    Centres are jittered off their data point by a few units so that no
    two of the ``n`` specs are bit-identical (nothing to cache or dedup).
    """
    rng = np.random.default_rng([seed, 3])
    m = OVERSAMPLE * n
    return _paper_queries(
        points,
        n,
        rng,
        rng.choice([1.0, 10.0], m),
        rng.uniform(10.0, 30.0, m),
        _log_uniform(rng, 0.01, 0.3, m),
        jitter=2.0,
    )


def cascade_9d_queries(
    points: np.ndarray, n: int, seed: int, *, k: int = 20
) -> list[PRQSpec]:
    """Pseudo-feedback queries (Section VI-A, Table III).

    Σ = Σ̃(k-NN) + κI with κ = |Σ̃|^(1/d), δ = 0.7, θ = 0.4.  The cost key
    is the number of points within distance 2 of the centre, which the
    brute-force pass that finds the k neighbours yields for free.
    """
    rng = np.random.default_rng([seed, 4])
    dim = points.shape[1]
    pool = rng.choice(points.shape[0], size=2 * n, replace=False)
    specs: list[PRQSpec] = []
    cost = np.empty(pool.size)
    norms = np.einsum("ij,ij->i", points, points)
    for slot, i in enumerate(pool):
        centre = points[i]
        # ‖p − c‖² = ‖p‖² − 2 p·c + ‖c‖²: one mat-vec per candidate.
        sq = norms - 2.0 * (points @ centre) + norms[i]
        samples = points[np.argpartition(sq, k - 1)[:k]]
        centred = samples - samples.mean(axis=0)
        sigma = centred.T @ centred / k
        det = float(np.linalg.det(sigma))
        kappa = det ** (1.0 / dim) if det > 0 else float(np.trace(sigma)) / dim
        specs.append(
            PRQSpec(centre.copy(), sigma + kappa * np.eye(dim), 0.7, 0.4)
        )
        cost[slot] = np.count_nonzero(sq <= 4.0)
    return [specs[i] for i in stratified_pick(cost, n, rng)]


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------


def poisson_schedule(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Poisson arrival offsets in [0, duration), drawn up front."""
    n = int(rate * duration * 1.5) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, n))
    while times[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, n)) + times[-1]
        times = np.concatenate([times, more])
    return times[times < duration]


def hotkey_requests(
    n_keys: int, n_requests: int, rng: np.random.Generator, *, s: float = 1.1
) -> np.ndarray:
    """Key index per request: Zipf(s) over ``n_keys`` distinct keys."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** s
    weights /= weights.sum()
    return rng.choice(n_keys, size=n_requests, p=weights)


# ----------------------------------------------------------------------
# Monitor storm
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Subscription:
    """One standing query and whether its Σ is isotropic."""

    spec: PRQSpec
    isotropic: bool


def monitor_storm(
    points: np.ndarray, n_subs: int, n_steps: int, seed: int
) -> tuple[list[Subscription], np.ndarray]:
    """Standing queries plus their random-walk positions.

    Half the subscriptions are isotropic (5·I, 50·I), half use the
    paper's anisotropic shape (γ∈{1,10}); δ∈{10,25}, θ∈{0.1,0.3}.
    Returns the subscriptions and an ``(n_steps, n_subs, 2)`` array of
    positions: step ``t`` of subscription ``s`` is a Gaussian random
    walk with standard deviation 0.5 per step and axis.
    """
    rng = np.random.default_rng([seed, 5])
    m = OVERSAMPLE * n_subs
    centres = points[rng.integers(0, points.shape[0], m)]
    scales = rng.choice([1.0, 10.0], m)
    deltas = rng.choice([10.0, 25.0], m)
    thetas = rng.choice([0.1, 0.3], m)
    half = deltas + np.sqrt(-2.0 * np.log(thetas)) * np.sqrt(7.0 * scales)
    cost = BoxCounter(points).count(centres, half)
    subs: list[Subscription] = []
    for slot, i in enumerate(stratified_pick(cost, n_subs, rng)):
        isotropic = slot % 2 == 0
        sigma = (
            5.0 * scales[i] * np.eye(2) if isotropic else scales[i] * PAPER_SIGMA
        )
        spec = PRQSpec(
            centres[i].copy(), sigma, float(deltas[i]), float(thetas[i])
        )
        subs.append(Subscription(spec, isotropic))
    steps = rng.normal(0.0, 0.5, (n_steps, n_subs, 2))
    starts = np.stack([sub.spec.center for sub in subs])
    return subs, starts[None, :, :] + np.cumsum(steps, axis=0)
