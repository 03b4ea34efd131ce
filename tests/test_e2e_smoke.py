"""The CI ``e2e-smoke`` check (``benchmarks/e2e_smoke.py``) on canned lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "e2e_smoke", Path(__file__).parent.parent / "benchmarks" / "e2e_smoke.py"
)
e2e_smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_smoke)


def result_line(**metrics) -> dict:
    values = {"trace.unresolved_targets": 0, "index.range_search_calls": 212}
    values.update(metrics)
    return {
        "correct": True,
        "attempted": 212,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "count"} for k, v in values.items()},
    }


def test_healthy_line_has_no_problems():
    assert e2e_smoke.problems(result_line()) == []


def test_each_guard_fires():
    assert e2e_smoke.problems({**result_line(), "correct": False})
    assert e2e_smoke.problems({**result_line(), "failed": 2})
    assert e2e_smoke.problems(result_line(**{"trace.unresolved_targets": 1}))
    # Phase 1 moved off RStarTree.range_search_rect: the span reads no
    # calls (0) or does not resolve at all (None).
    for calls in (0, None):
        found = e2e_smoke.problems(result_line(**{"index.range_search_calls": calls}))
        assert len(found) == 1 and "Phase-1 span" in found[0]
    assert len(e2e_smoke.problems({})) == 4
