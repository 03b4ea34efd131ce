"""Spans taken from outside: wrap the program's public callables.

The traced pass replaces each callable in :data:`TARGETS` with a wrapper
that records one span per call — (name, start, end, parent, op id,
thread) — and calls through.  Nothing under ``src/`` changes: a class
attribute is rebound on the class, and a module-level function is
rebound in its own module *and* in every loaded ``repro`` module that
imported it by name (callers look a function up in their own globals).

Span stacks are thread-local, records stay in memory and are written as
JSON-lines when the workload ends.  A span's self time is its duration
minus the part of that interval its child spans cover.  A target that no
longer resolves is listed in :attr:`Tracer.unresolved`; the metrics that
depend on it read ``None``.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "KERNELS",
    "TARGETS",
    "Span",
    "Target",
    "Tracer",
    "self_times",
    "total_by_name",
]


def _size_of_result(args, result) -> int:
    return len(result)


def _rows_of_arg2(args, result) -> int:
    return len(args[2])


def _len_of_arg0(args, result) -> int:
    return len(args[0])


@dataclass(frozen=True)
class Target:
    """One callable to wrap: its span name and where it lives.

    ``path`` is ``"module:attr"`` for a module-level function or
    ``"module:Class.method"`` for a method.  ``size`` optionally derives
    a row count for the span from the call's positional arguments (self
    excluded for methods) and its result.
    """

    span: str
    path: str
    size: Callable | None = None


#: The seven entries of the ``repro.kernels`` dispatch layer.
KERNELS = (
    "squared_distance_noncentralities",
    "chi2_sandwich_block",
    "chi2_sandwich_block_f32",
    "ruben_block",
    "minkowski_contains",
    "oblique_contains",
    "bf_classify",
)

#: Every layer boundary the traced pass records, by layer (= module).
TARGETS: tuple[Target, ...] = (
    Target("storage.load", "repro.core.database:SpatialDatabase.load"),
    Target(
        "index.range_search",
        "repro.index.rtree:RStarTree.range_search_rect",
        _size_of_result,
    ),
    Target("planner.plan", "repro.core.planner:QueryPlanner.plan"),
    Target(
        "strategies.prepare",
        "repro.core.strategies:RectilinearStrategy.prepare",
    ),
    Target("strategies.prepare", "repro.core.strategies:ObliqueStrategy.prepare"),
    Target(
        "strategies.prepare",
        "repro.core.strategies:BoundingFunctionStrategy.prepare",
    ),
    Target(
        "strategies.classify",
        "repro.core.strategies:Strategy.classify_candidates",
    ),
    Target("stages.search", "repro.core.stages:SearchStage.run"),
    Target("stages.filter", "repro.core.stages:FilterStage.run"),
    Target("stages.integrate", "repro.core.stages:IntegrateStage.run"),
    Target(
        "integrate.decide",
        "repro.integrate.base:ProbabilityIntegrator.decide_candidates",
    ),
    *(
        Target(
            f"kernels.{name}",
            f"repro.kernels:{name}",
            _rows_of_arg2
            if name in ("chi2_sandwich_block", "ruben_block")
            else None,
        )
        for name in KERNELS
    ),
    Target("gaussian.imhof", "repro.gaussian.quadform:imhof_cdf"),
    Target("engine.run_batch", "repro.core.engine:QueryEngine.run_batch"),
    Target("serve.submit", "repro.serve.service:QueryService.submit"),
    Target("monitor.subscribe", "repro.serve.monitor:SubscriptionManager.subscribe"),
    Target("monitor.update", "repro.serve.monitor:SubscriptionManager.update"),
    Target("saferegion.build", "repro.core.saferegion:SafeRegion.build"),
    Target("saferegion.classify", "repro.core.saferegion:SafeRegion.classify"),
    Target("shard.pool_run", "repro.shard.engine:ShardPool.run", _len_of_arg0),
    Target("shard.run_batch", "repro.shard.engine:ShardedEngine.run_batch"),
)


@dataclass
class Span:
    """One recorded call.  ``parent`` indexes the same thread's list."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    size: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers and owns the recorded spans.

    ``enabled`` gates recording, so the wrappers can stay installed
    while set-up, warm-up and verification run unrecorded.  ``op`` is
    the id stamped on every span opened while it is set (the chunk index
    in closed-loop workloads); a root span opened with ``op`` unset gets
    the per-thread ordinal of that root instead (the coalesced batch on
    the service's scheduler thread).
    """

    def __init__(self):
        self.enabled = False
        self.op: int | None = None
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._threads: list[list[Span]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack, local.thread
        except AttributeError:
            with self._lock:
                local.thread = len(self._threads)
                local.spans = []
                self._threads.append(local.spans)
            local.stack = []
            local.roots = 0
            return local.spans, local.stack, local.thread

    def wrap(self, name: str, fn: Callable, size: Callable | None = None):
        """``fn`` with a span named ``name`` around every enabled call."""
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack, thread = tracer._thread_state()
            op = tracer.op
            if stack:
                parent = stack[-1]
                if op is None:
                    op = spans[parent].op
            else:
                parent = None
                if op is None:
                    op = tracer._local.roots
                    tracer._local.roots += 1
            span = Span(name, 0.0, 0.0, parent, op, thread)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if size is not None:
                span.size = size(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every resolvable target; note the ones that are gone."""
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError):
                self.unresolved.append(target.path)

    def _install_one(self, target: Target) -> None:
        module_name, _, attr_path = target.path.partition(":")
        module = importlib.import_module(module_name)
        owner: object = module
        *parents, leaf = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        is_method = bool(parents)
        # ``SpatialDatabase.load`` and ``SafeRegion.build`` are
        # classmethods: wrap the function inside, keep the descriptor.
        raw = vars(owner).get(leaf) if is_method else None
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else original
        size = target.size
        if is_method and size is not None:
            inner = size
            size = lambda args, result: inner(args[1:], result)  # noqa: E731
        wrapped = self.wrap(target.span, fn, size)
        replacement = classmethod(wrapped) if is_classmethod else wrapped
        self._set(owner, leaf, replacement)
        if not is_method:
            # Callers that did ``from module import fn`` hold their own
            # reference: rebind it wherever it is looked up.
            for name, other in list(sys.modules.items()):
                if (
                    other is not None
                    and other is not module
                    and name.startswith("repro")
                    and vars(other).get(leaf) is original
                ):
                    self._set(other, leaf, replacement)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading --------------------------------------------------------

    def threads(self) -> list[list[Span]]:
        """Recorded spans, one list per thread, in open order."""
        with self._lock:
            return [list(spans) for spans in self._threads]

    def span_count(self) -> int:
        with self._lock:
            return sum(len(spans) for spans in self._threads)

    def per_span_cost(self, calls: int = 20_000) -> float:
        """Seconds one recorded span adds to a call, measured here.

        Times a wrapped no-op against the bare no-op on a scratch
        tracer; the traced pass charges ``span_count × this`` as its own
        overhead.
        """
        scratch = Tracer()

        def noop():
            return None

        wrapped = scratch.wrap("calibrate", noop)
        scratch.enabled = True

        def loop(fn) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - start

        loop(wrapped)  # warm the thread state
        return max(loop(wrapped) - loop(noop), 0.0) / calls

    def write_jsonl(self, path, extra: list[dict] | None = None) -> None:
        """One JSON object per span; ids are ``thread:index``."""
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.threads():
                for index, span in enumerate(spans):
                    row = {
                        "id": f"{span.thread}:{index}",
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": (
                            None
                            if span.parent is None
                            else f"{span.thread}:{span.parent}"
                        ),
                        "op": span.op,
                        "thread": span.thread,
                    }
                    if span.size is not None:
                        row["size"] = span.size
                    fh.write(json.dumps(row) + "\n")
            for row in extra or ():
                fh.write(json.dumps(row) + "\n")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time for one thread's spans (open order).

    Self time is the span's duration minus the union of the intervals
    its direct children cover.  Children of one parent on one thread
    never overlap each other, so the union is their summed durations,
    clipped to the parent.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo = max(span.start, parent.start)
            hi = min(span.end, parent.end)
            if hi > lo:
                covered[span.parent] += hi - lo
    return [
        max(span.duration - cover, 0.0) for span, cover in zip(spans, covered)
    ]


def total_by_name(threads: list[list[Span]]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total`` and ``self`` seconds, ``size``."""
    table: dict[str, dict[str, float]] = {}
    for spans in threads:
        for span, own in zip(spans, self_times(spans)):
            row = table.setdefault(
                span.name, {"calls": 0, "total": 0.0, "self": 0.0, "size": 0}
            )
            row["calls"] += 1
            row["total"] += span.duration
            row["self"] += own
            row["size"] += span.size or 0
    return table
