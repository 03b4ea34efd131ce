"""Self-test of the benchmark's own arithmetic (not collected by tier-1).

Run from the repository root::

    python -m pytest benchmarks/e2e/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import inputs, layers  # noqa: E402
from benchmarks.e2e.compare import judge  # noqa: E402
from benchmarks.e2e.measure import (  # noqa: E402
    percentile,
    quartile_spread,
    samples_beyond,
    tail_supported,
)
from benchmarks.e2e.trace import (  # noqa: E402
    Span,
    Tracer,
    self_times,
    total_by_name,
)
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent):
    return Span(name, start, end, parent, op=0, thread=0)


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has
    # a grandchild [6, 8].
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("child", 1.0, 4.0, 0),
        _span("child", 5.0, 9.0, 0),
        _span("leaf", 6.0, 8.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    table = total_by_name([spans])
    assert table["child"] == {"calls": 2, "total": 7.0, "self": 5.0, "size": 0}
    # Self times of a tree add up to the root's duration.
    assert sum(self_times(spans)) == spans[0].duration


def test_child_running_past_its_parent_is_clipped():
    spans = [_span("root", 0.0, 2.0, None), _span("child", 1.0, 3.0, 0)]
    assert self_times(spans) == [1.0, 2.0]


def test_tracer_records_nesting():
    tracer = Tracer()

    def inner():
        return [1, 2, 3]

    traced_inner = tracer.wrap("inner", inner, lambda args, result: len(result))

    def outer():
        return traced_inner()

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == [1, 2, 3]  # disabled: nothing recorded
    assert tracer.span_count() == 0
    tracer.enabled = True
    tracer.op = 7
    traced_outer()
    (spans,) = tracer.threads()
    assert [s.name for s in spans] == ["outer", "inner"]
    assert spans[1].parent == 0 and spans[1].size == 3
    assert {s.op for s in spans} == {7}
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end


def test_install_rebinds_where_callers_look_and_uninstall_restores():
    import repro.gaussian.quadform as quadform
    import repro.integrate.cascade as cascade
    from repro.core.stages import SearchStage

    originals = (quadform.imhof_cdf, SearchStage.run)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unresolved == []
        # A method is rebound on its class; a function in its own module
        # and in the module that imported it by name.
        assert SearchStage.run.__wrapped__ is originals[1]
        assert quadform.imhof_cdf.__wrapped__ is originals[0]
        assert cascade.imhof_cdf is quadform.imhof_cdf
    finally:
        tracer.uninstall()
    assert (quadform.imhof_cdf, SearchStage.run) == originals
    assert cascade.imhof_cdf is originals[0]


def test_a_vanished_target_is_counted_not_raised():
    from benchmarks.e2e.trace import Target

    tracer = Tracer()
    tracer.install((Target("gone", "repro.core.stages:NoSuchStage.run"),))
    assert tracer.unresolved == ["repro.core.stages:NoSuchStage.run"]
    tracer.uninstall()


def test_tenth_sample_beyond_rule():
    # p95 needs 200 samples, p50 needs 20, p99 needs 1000.
    assert not tail_supported(199, 0.95) and tail_supported(200, 0.95)
    assert not tail_supported(19, 0.50) and tail_supported(20, 0.50)
    assert not tail_supported(999, 0.99) and tail_supported(1000, 0.99)
    assert samples_beyond(16, 0.95) == 0
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 0.95) == 190.0
    assert sum(v > percentile(values, 0.95) for v in values) == 10


def test_poisson_schedule_is_a_function_of_the_seed():
    first = inputs.poisson_schedule(60.0, 4.0, np.random.default_rng([3, 6]))
    again = inputs.poisson_schedule(60.0, 4.0, np.random.default_rng([3, 6]))
    other = inputs.poisson_schedule(60.0, 4.0, np.random.default_rng([4, 6]))
    assert np.array_equal(first, again)
    assert not np.array_equal(first[:10], other[:10])
    assert np.all(np.diff(first) > 0) and first[-1] < 4.0
    assert abs(first.size - 240) < 5 * np.sqrt(240)


def test_balanced_order_keeps_every_prefix_spread_out():
    order = inputs.balanced_order(16)
    assert sorted(order) == list(range(16))
    assert list(order[:4]) == [0, 8, 4, 12]
    picks = inputs.stratified_pick(
        np.arange(400.0), 16, np.random.default_rng(0), band=(0.25, 0.75)
    )
    assert len(set(picks)) == 16 and 100 <= min(picks) and max(picks) < 300


def test_compare_bound_logic():
    steady_a = [100.0, 101.0, 99.0, 100.5]

    def verdict(a, b, better, bound=0.05):
        return judge(a, b, better, bound)["verdict"]

    assert verdict(steady_a, [103.0, 104.0, 102.0], "lower") == "within"
    assert verdict(steady_a, [110.0, 111.0, 112.0], "lower") == "REGRESSED"
    # For a higher-is-better metric the same numbers are an improvement.
    assert verdict(steady_a, [110.0, 111.0, 112.0], "higher") == "within"
    assert verdict(steady_a, [90.0, 89.0, 91.0], "higher") == "REGRESSED"
    # Spread wider than the bound: neither unchanged nor regressed ...
    noisy_a = [100.0, 80.0, 120.0, 95.0]
    assert quartile_spread(noisy_a) > 0.05
    assert verdict(noisy_a, [101.0, 99.0, 100.0], "lower") == "unresolved"
    assert verdict(noisy_a, [150.0, 155.0, 160.0], "lower") == "unresolved"
    # ... unless every run of B beats every run of A.
    assert verdict(noisy_a, [70.0, 75.0, 72.0], "lower") == "within"
    row = judge([10.0], [12.0], "lower", 0.25)
    assert row["spread"] is None and row["ratio"] == 1.2
    assert row["verdict"] == "within"


def test_benchmark_json_names_what_the_code_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [name for name, w in WORKLOADS.items() if w.gated]
    assert [w["name"] for w in spec["workloads"]] == gated
    assert set(WORKLOADS) - set(gated) == {"shard_batch_2d"}
    for section, registry in (
        ("end_to_end", layers.END_TO_END),
        ("per_layer", layers.PER_LAYER),
    ):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == registry
    assert spec["paths"] == ["benchmarks/e2e"]
