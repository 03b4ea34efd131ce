"""Answer verification: a brute-force oracle and the sampling rules.

The oracle for PRQ(q, δ, θ) looks at *every* stored point within
δ + √(λ_max · χ²_d(0.999)) of q — no index, no filter.  A point farther
away qualifies with probability below 0.001, which is below every θ the
benchmark issues (θ ≥ 0.005), so the scan is sufficient and an answer
may hold no id outside it.

Each scanned point is bracketed by the noncentral-χ² sandwich
λ_min·χ'² ≤ ‖x − o‖² ≤ λ_max·χ'², written here with SciPy alone.  A
point whose bracket clears θ must be in (or out of) the answer.  Points
whose bracket straddles θ need the program's exact evaluator
``qualification_probability_exact`` (Imhof inversion, 10–25 ms a point,
sharing nothing with the filters or the cascade under test); a seeded
sample of at most :data:`MAX_EXACT` of them per query is evaluated, so
that one query costs well under a second.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import stats

__all__ = ["TIE", "check_prq_answer", "verify_sample"]

#: |p − θ| below this is a tie: the cascade resolves probabilities to
#: 1e-9, the exact evaluator to 1e-10, so either side may claim the point.
TIE = 1e-7

#: Exact evaluations per verified query.
MAX_EXACT = 24


def check_prq_answer(
    points: np.ndarray,
    query,
    answer_ids,
    rng: np.random.Generator,
    *,
    slack: float = TIE,
) -> bool:
    """Does ``answer_ids`` agree with the brute-force oracle for ``query``?

    Ids are row numbers of ``points``.  ``slack`` is the half-width of
    the band around θ inside which either decision is accepted (a
    sampling integrator passes 4 standard errors).
    """
    from repro.gaussian.quadform import qualification_probability_exact

    gaussian = query.gaussian
    delta, theta = float(query.delta), float(query.theta)
    dim = gaussian.dim
    eig = np.asarray(gaussian.eigenvalues, dtype=float)
    lam_min, lam_max = float(eig.min()), float(eig.max())
    reach = delta + float(np.sqrt(lam_max * stats.chi2.ppf(0.999, dim)))
    gaps = points - np.asarray(gaussian.mean, dtype=float)
    rows = np.nonzero(np.einsum("ij,ij->i", gaps, gaps) <= reach * reach)[0]
    in_answer = np.isin(rows, np.asarray(answer_ids, dtype=np.int64))
    if int(np.count_nonzero(in_answer)) != len(answer_ids):
        return False  # an id beyond the sufficient scan, or a duplicate
    rotated = gaps[rows] @ np.asarray(gaussian.basis, dtype=float)
    nc = np.sum(rotated * rotated / eig, axis=1)
    lower = stats.ncx2.cdf(delta * delta / lam_max, dim, nc)
    upper = stats.ncx2.cdf(delta * delta / lam_min, dim, nc)
    # SciPy's ncx2 is good to ~1e-10 here; the margin keeps the bracket
    # from deciding a point the exact evaluator would call a tie.
    margin = slack + 1e-8
    must_be_in = lower >= theta + margin
    must_be_out = upper < theta - margin
    if np.any(must_be_in & ~in_answer) or np.any(must_be_out & in_answer):
        return False
    open_slots = np.nonzero(~must_be_in & ~must_be_out)[0]
    if open_slots.size > MAX_EXACT:
        open_slots = rng.choice(open_slots, size=MAX_EXACT, replace=False)
    for slot in open_slots.tolist():
        p = qualification_probability_exact(gaussian, points[rows[slot]], delta)
        if p >= theta + slack and not in_answer[slot]:
            return False
        if p < theta - slack and in_answer[slot]:
            return False
    return True


def verify_sample(order, check, *, budget: float, minimum: int = 2):
    """Run ``check(item)`` over ``order`` until ``budget`` seconds are spent.

    At least ``minimum`` items are checked whatever the budget.  Returns
    ``(checked, mismatched)``; ``check`` returns True for a match.
    """
    started = time.perf_counter()
    checked = mismatched = 0
    for item in order:
        if checked >= minimum and time.perf_counter() - started > budget:
            break
        checked += 1
        if not check(item):
            mismatched += 1
    return checked, mismatched
