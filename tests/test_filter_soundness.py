"""Oracle-backed soundness of every Phase-2 filter decision.

Properties 1–5 of the paper guarantee that a REJECT is only issued when
the true qualification probability is provably below θ, and an ACCEPT
(BF's lower bounding function) only when it is provably at least θ.
These tests replay that contract against a high-sample Monte-Carlo
oracle over seeded random Gaussians, δ and θ in d ∈ {2, 3}: no REJECTed
point may have oracle probability ≥ θ and every ACCEPTed point must
have oracle probability ≥ θ, up to the oracle's own sampling noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import ProbabilisticRangeQuery
from repro.core.strategies import (
    ACCEPT,
    REJECT,
    BoundingFunctionStrategy,
    EllipsoidStrategy,
    ObliqueStrategy,
    RectilinearStrategy,
)
from repro.gaussian.distribution import Gaussian

from tests.conftest import random_spd

#: Oracle sample budget.  At 300k samples the binomial standard error at
#: p = 0.05 is ~4e-4, far below the classification margins asserted.
ORACLE_SAMPLES = 300_000

#: Soundness slack in oracle standard errors.  A sound filter decision
#: can only be flagged if the oracle estimate crosses θ by more than
#: this many stderr — probability ~1e-6 per point under H0.
Z_SLACK = 5.0


def oracle_probabilities(
    gaussian: Gaussian, points: np.ndarray, delta: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo qualification probabilities with one shared sample set.

    Returns (estimates, stderrs) per candidate row.
    """
    rng = np.random.default_rng(seed)
    samples = gaussian.sample(ORACLE_SAMPLES, rng)
    threshold = delta * delta
    s_sq = np.einsum("ij,ij->i", samples, samples)
    estimates = np.empty(points.shape[0])
    for start in range(0, points.shape[0], 64):
        block = points[start : start + 64]
        o_sq = np.einsum("ij,ij->i", block, block)
        cross = samples @ block.T
        within = (s_sq[:, None] - 2.0 * cross + o_sq[None, :]) <= threshold
        estimates[start : start + 64] = (
            np.count_nonzero(within, axis=0) / ORACLE_SAMPLES
        )
    stderrs = np.sqrt(estimates * (1.0 - estimates) / ORACLE_SAMPLES)
    return estimates, stderrs


def seeded_case(dim: int, seed: int):
    """One random (query, candidate cloud) pair for a soundness check."""
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, dim, scale=1.0 + 3.0 * rng.random())
    center = 10.0 * rng.standard_normal(dim)
    gaussian = Gaussian(center, sigma)
    delta = float(0.5 + 2.5 * rng.random())
    theta = float(np.exp(rng.uniform(np.log(0.01), np.log(0.4))))
    query = ProbabilisticRangeQuery(gaussian, delta, theta)
    # Candidates spread from deep inside the region to well outside it so
    # every classification code actually occurs.
    spread = np.sqrt(gaussian.eigenvalues.max())
    radii = (0.2 + 4.0 * rng.random(160)) * (spread + delta)
    directions = rng.standard_normal((160, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = center + radii[:, None] * directions
    return query, points


STRATEGY_FACTORIES = {
    "RR": lambda: RectilinearStrategy(),
    "OR": lambda: ObliqueStrategy(),
    "BF": lambda: BoundingFunctionStrategy(),
    "EM": lambda: EllipsoidStrategy(),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
def test_filter_decisions_match_oracle(dim: int, name: str):
    for seed in (101, 202):
        query, points = seeded_case(dim, seed)
        strategy = STRATEGY_FACTORIES[name]()
        strategy.prepare(query)
        if strategy.proves_empty:
            # Empty proof == everything rejected; check below covers it.
            codes = np.full(points.shape[0], REJECT, dtype=np.int8)
        else:
            codes = strategy.classify(points)

        if name != "BF":
            assert not np.any(codes == ACCEPT), (
                f"{name} must never ACCEPT (only BF has a lower bound)"
            )
        rejected = np.nonzero(codes == REJECT)[0]
        accepted = np.nonzero(codes == ACCEPT)[0]
        if rejected.size == 0 and accepted.size == 0:
            continue
        checked = np.concatenate([rejected, accepted])
        est, err = oracle_probabilities(
            query.gaussian, points[checked], query.delta, seed=seed + 7
        )
        est_rej, err_rej = est[: rejected.size], err[: rejected.size]
        est_acc, err_acc = est[rejected.size :], err[rejected.size :]

        bad_rejects = est_rej - Z_SLACK * err_rej >= query.theta
        assert not np.any(bad_rejects), (
            f"{name} (d={dim}, seed={seed}) rejected points with oracle "
            f"probability >= theta={query.theta:g}: "
            f"{est_rej[bad_rejects][:5]}"
        )
        bad_accepts = est_acc + Z_SLACK * err_acc < query.theta
        assert not np.any(bad_accepts), (
            f"{name} (d={dim}, seed={seed}) accepted points with oracle "
            f"probability < theta={query.theta:g}: "
            f"{est_acc[bad_accepts][:5]}"
        )


def test_oracle_sees_all_three_codes():
    """The candidate clouds genuinely exercise REJECT and UNKNOWN (and
    ACCEPT for BF) — guarding against a vacuous soundness pass."""
    seen = set()
    for dim in (2, 3):
        for seed in (101, 202):
            query, points = seeded_case(dim, seed)
            bf = BoundingFunctionStrategy()
            bf.prepare(query)
            if not bf.proves_empty:
                seen.update(np.unique(bf.classify(points)).tolist())
    assert REJECT in seen and 0 in seen
    assert ACCEPT in seen, "no BF acceptance hole exercised; widen the cases"
