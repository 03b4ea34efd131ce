"""The seven workloads: set-up, timed window, verification.

Each workload turns plain inputs (:mod:`benchmarks.e2e.inputs`) into the
program's own objects, sets the system up, drives it for ``seconds`` and
checks a sample of what came back.  Layers are never reached into: every
number is either a ``time.perf_counter`` delta taken here, a field of a
public result object (``QueryStats``, ``PRQResponse``,
``ServiceSnapshot``, ``MonitorResponse``), or a span recorded by
:mod:`benchmarks.e2e.trace` around a public callable.

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README; the constants below are part of those definitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from benchmarks.e2e import inputs as gen
from benchmarks.e2e.measure import cpu_seconds, peak_rss_mb
from benchmarks.e2e.verify import TIE, check_prq_answer, verify_sample

__all__ = ["WORKLOADS", "Measured", "Workload"]

#: Seconds of verification per workload (outside every timed window).
VERIFY_BUDGET = 2.0


@dataclass
class Measured:
    """What one timed window produced, before it becomes metrics."""

    #: Queries or updates completed (never chunks).
    ops: int = 0
    attempted: int = 0
    #: Ops that raised or came back failed/refused outside overload.
    failed: int = 0
    #: Wall seconds behind ``throughput``.
    wall: float = 0.0
    throughput: float = 0.0
    #: Per-op call seconds (closed loop) or steady-phase latency from the
    #: scheduled send time (serve).
    latencies: list[float] = field(default_factory=list)
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    #: Wall seconds of everything timed (what trace overhead is set against).
    window: float = 0.0
    #: Sums of ``QueryStats`` fields over every executed query.
    query_stats: dict = field(default_factory=dict)
    #: Workload-specific facts for the per-layer metrics.
    facts: dict = field(default_factory=dict)
    #: Answers kept for verification.
    answers: dict = field(default_factory=dict)
    #: Extra JSON-lines rows for the trace file (serve requests).
    trace_rows: list = field(default_factory=list)


def _absorb(totals: dict, stats) -> None:
    """Fold one ``QueryStats`` into running sums."""
    if stats is None:
        return
    totals["queries"] = totals.get("queries", 0) + 1
    for name in (
        "retrieved",
        "accepted_without_integration",
        "integrations",
        "integration_samples",
    ):
        totals[name] = totals.get(name, 0) + getattr(stats, name)
    totals["rejected"] = totals.get("rejected", 0) + stats.total_rejected
    tiers = totals.setdefault("tiers", {})
    for method, count in stats.tier_decisions.items():
        tiers[method] = tiers.get(method, 0) + count
    if stats.plan_strategies is not None:
        totals["planned"] = totals.get("planned", 0) + 1
        totals["plan_hits"] = totals.get("plan_hits", 0) + bool(
            stats.plan_cache_hit
        )
    totals["phase_seconds"] = totals.get("phase_seconds", 0.0) + (
        stats.total_seconds
    )


def _shuffled(answers: dict, rng) -> list:
    """The keys of the kept answers in a seeded random order."""
    keys = list(answers)
    return [keys[i] for i in rng.permutation(len(keys))]


def _queries(specs):
    from repro.core.query import ProbabilisticRangeQuery

    return [
        ProbabilisticRangeQuery.create(s.center, s.sigma, s.delta, s.theta)
        for s in specs
    ]


def _open(store_path, timings: dict):
    """Open the store and build the index, timing each."""
    from repro.core.database import SpatialDatabase

    start = time.perf_counter()
    database = SpatialDatabase.load(store_path)
    opened = time.perf_counter()
    database.index  # noqa: B018 - the first access builds the R*-tree
    built = time.perf_counter()
    timings["storage.open_s"] = opened - start
    timings["index.build_s"] = built - opened
    return database


class Workload:
    """Base class: the protocol :mod:`benchmarks.e2e.run` drives."""

    name = "abstract"
    dataset = "road50k"
    #: Closed loop (per-op call latency) or open loop (scheduled arrivals).
    loop = "closed"
    #: False for a workload the all-workload command reports but
    #: ``BENCHMARK.json`` does not list (see the README).
    gated = True

    def build_inputs(self, points: np.ndarray, seed: int, seconds: float):
        raise NotImplementedError

    def setup(self, store_path, inputs) -> tuple[object, dict]:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what :meth:`setup` started."""

    def measure(self, state, inputs, seconds: float, tracer) -> Measured:
        raise NotImplementedError

    def verify(self, state, inputs, points, measured, rng) -> tuple[int, int]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Closed-loop PRQ workloads (and the sharded one)
# ----------------------------------------------------------------------


@dataclass
class _EngineState:
    database: object
    engine: object
    sharded: object | None = None


class ClosedLoopPRQ(Workload):
    """``engine.run_batch(chunk, workers=1, base_seed=chunk_index)`` in a loop."""

    def __init__(
        self,
        name: str,
        dataset: str,
        make_queries,
        n_queries: int,
        *,
        strategies: str,
        integrator: str,
        chunk: int = 1,
        warmup_chunks: int = 16,
        shards: int = 0,
        gated: bool = True,
    ):
        self.name = name
        self.dataset = dataset
        self._make_queries = make_queries
        self._n_queries = n_queries
        self._strategies = strategies
        self._integrator = integrator
        self._chunk = chunk
        self._warmup_chunks = warmup_chunks
        self._shards = shards
        self.gated = gated

    def _build_integrator(self):
        if self._integrator == "cascade":
            from repro.integrate.cascade import CascadeIntegrator

            return CascadeIntegrator()
        from repro.integrate.importance import ImportanceSamplingIntegrator

        return ImportanceSamplingIntegrator(100_000)

    def build_inputs(self, points, seed, seconds):
        queries = _queries(self._make_queries(points, self._n_queries, seed))
        chunk = self._chunk
        return [queries[i : i + chunk] for i in range(0, len(queries), chunk)]

    def setup(self, store_path, inputs):
        timings: dict = {}
        database = _open(store_path, timings)
        sharded = None
        source = database
        if self._shards:
            start = time.perf_counter()
            sharded = database.shard(self._shards, workers=self._shards)
            timings["shard.pool_start_s"] = time.perf_counter() - start
            source = sharded
        engine = source.engine(
            strategies=self._strategies, integrator=self._build_integrator()
        )
        # Warm-up runs the tail of the list, which a timed window only
        # reaches after a full cycle.
        for chunk in inputs[-self._warmup_chunks :]:
            engine.run_batch(chunk, workers=1, base_seed=0)
        return _EngineState(database, engine, sharded), timings

    def teardown(self, state):
        if state.sharded is not None:
            state.sharded.close()

    def measure(self, state, inputs, seconds, tracer):
        engine = state.engine
        pids = (
            [p.pid for p in state.sharded.pool.processes]
            if state.sharded is not None
            else []
        )
        out = Measured()
        n_chunks = len(inputs)
        clock = time.perf_counter
        cpu0 = cpu_seconds(pids)
        start = clock()
        deadline = start + seconds
        issued = 0
        while True:
            slot = issued % n_chunks
            chunk = inputs[slot]
            tracer.op = issued
            began = clock()
            try:
                batch = engine.run_batch(chunk, workers=1, base_seed=slot)
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                batch = None
            ended = clock()
            issued += 1
            out.attempted += len(chunk)
            if batch is None:
                out.failed += len(chunk)
            else:
                out.latencies.append(ended - began)
                out.ops += len(chunk)
                for result in batch.results:
                    _absorb(out.query_stats, result.stats)
                if slot == issued - 1:
                    out.answers[slot] = batch.ids
            if ended >= deadline:
                break
        tracer.op = None
        out.wall = ended - start
        out.cpu = cpu_seconds(pids) - cpu0
        out.throughput = out.ops / out.wall
        out.peak_rss_mb = peak_rss_mb(pids)
        out.window = out.wall
        out.facts["workers"] = self._shards
        return out

    def verify(self, state, inputs, points, measured, rng):
        if self._shards:
            reference = state.database.engine(
                strategies=self._strategies,
                integrator=self._build_integrator(),
            )

            def check(slot) -> bool:
                cold = reference.run_batch(
                    inputs[slot], workers=1, base_seed=slot
                )
                return cold.ids == measured.answers[slot]

        else:

            def check(slot) -> bool:
                return all(
                    check_prq_answer(
                        points, query, ids, rng, slack=self._slack(query)
                    )
                    for query, ids in zip(inputs[slot], measured.answers[slot])
                )

        return verify_sample(
            _shuffled(measured.answers, rng), check, budget=VERIFY_BUDGET
        )

    def _slack(self, query) -> float:
        """Half-width of the band around θ where either decision passes."""
        if self._integrator == "cascade":
            return TIE
        # A sampling integrator may differ on objects within 4 standard
        # errors of θ (binomial, 100,000 draws).
        theta = query.theta
        return 4.0 * float(np.sqrt(theta * (1.0 - theta) / 100_000))


# ----------------------------------------------------------------------
# Open-loop serve workloads
# ----------------------------------------------------------------------


@dataclass
class _ServeInputs:
    #: phase -> (arrival offsets, requests), aligned.
    phases: dict
    warmup: list


class ServeWorkload(Workload):
    """Poisson arrivals against one ``QueryService(workers=1)``.

    Two phases inside the ``seconds`` window: ``steady`` (70 % of it, at
    about a quarter of capacity) gives the latency figures, ``overload``
    (15 %, at about three times capacity, followed by its drain tail)
    gives goodput.  Rates are fixed inputs, not adapted to the machine.
    """

    loop = "open"
    STEADY_SHARE = 0.70
    OVERLOAD_SHARE = 0.15

    def __init__(
        self,
        name: str,
        *,
        steady_qps: float,
        overload_qps: float,
        hot_keys: int = 0,
        warmup_requests: int,
    ):
        self.name = name
        self._rates = {"steady": steady_qps, "overload": overload_qps}
        self._hot_keys = hot_keys
        self._warmup_requests = warmup_requests

    def build_inputs(self, points, seed, seconds):
        from repro.gaussian.distribution import Gaussian
        from repro.serve.request import PRQRequest

        rng = np.random.default_rng([seed, 6])
        durations = {
            "steady": self.STEADY_SHARE * seconds,
            "overload": self.OVERLOAD_SHARE * seconds,
        }
        schedules = {
            phase: gen.poisson_schedule(self._rates[phase], durations[phase], rng)
            for phase in ("steady", "overload")
        }
        n_timed = sum(len(s) for s in schedules.values())
        n_total = n_timed + self._warmup_requests
        if self._hot_keys:
            specs = gen.light_2d_queries(points, self._hot_keys, seed)
            keys = gen.hotkey_requests(self._hot_keys, n_total, rng)
        else:
            specs = gen.light_2d_queries(points, n_total, seed)
            keys = np.arange(n_total)
        gaussians = {}

        def request(i: int, key: int):
            spec = specs[key]
            if key not in gaussians:
                gaussians[key] = Gaussian(spec.center, spec.sigma)
            return PRQRequest(
                gaussians[key], spec.delta, spec.theta, request_id=i
            )

        requests = [request(i, int(k)) for i, k in enumerate(keys)]
        phases = {}
        cursor = self._warmup_requests
        for phase, offsets in schedules.items():
            phases[phase] = (offsets, requests[cursor : cursor + len(offsets)])
            cursor += len(offsets)
        return _ServeInputs(phases, requests[: self._warmup_requests])

    def setup(self, store_path, inputs):
        from repro.serve.service import QueryService

        timings: dict = {}
        database = _open(store_path, timings)
        service = QueryService(database, workers=1)
        # Warm-up in closed-loop bursts: fills the planner-free engine's
        # lazy state and, on the hot-key stream, the result cache.
        burst = service.config.max_batch
        for i in range(0, len(inputs.warmup), burst):
            futures = [service.submit(r) for r in inputs.warmup[i : i + burst]]
            for future in futures:
                future.result(timeout=60.0)
        return service, timings

    def teardown(self, state):
        state.close()

    def measure(self, state, inputs, seconds, tracer):
        service = state
        out = Measured()
        clock = time.perf_counter
        before = service.snapshot()
        for phase, (offsets, requests) in inputs.phases.items():
            n = len(requests)
            completed = [0.0] * n
            responses: list = [None] * n
            sent = [0.0] * n

            def done(i, future, completed=completed, responses=responses):
                completed[i] = clock()
                responses[i] = future.result()

            cpu0 = cpu_seconds([])
            futures = []
            start = clock()
            for i in range(n):
                target = start + offsets[i]
                delay = target - clock()
                while delay > 0:
                    time.sleep(delay)
                    delay = target - clock()
                sent[i] = clock()
                future = service.submit(requests[i])
                future.add_done_callback(partial(done, i))
                futures.append(future)
            for future in futures:
                future.result(timeout=120.0)
            end = max(max(completed), clock()) if n else clock()
            out.cpu += cpu_seconds([]) - cpu0
            self._account(
                out, phase, start, end, offsets, sent, completed, responses
            )
        after = service.snapshot()
        out.facts["snapshot_delta"] = {
            key: getattr(after, key) - getattr(before, key)
            for key in (
                "submitted",
                "executed",
                "cache_hits",
                "cache_misses",
                "deduplicated",
                "batches",
                "overloaded",
            )
        }
        out.peak_rss_mb = peak_rss_mb([])
        out.window = sum(out.facts[phase]["elapsed"] for phase in inputs.phases)
        return out

    def _account(
        self, out, phase, start, end, offsets, sent, completed, responses
    ):
        n = len(responses)
        answered = [i for i in range(n) if responses[i].ok]
        # Latency is taken over the requests that reached the queue: a
        # cache hit is answered inside submit(), so its "latency" is the
        # generator's own lag (reported as load.*.generator_lag_p95_ms).
        latencies = [
            completed[i] - (start + offsets[i])
            for i in answered
            if not responses[i].cache_hit
        ]
        lag = sorted(sent[i] - (start + offsets[i]) for i in range(n))
        elapsed = end - start
        statuses: dict = {}
        for response in responses:
            statuses[response.status] = statuses.get(response.status, 0) + 1
        out.attempted += n
        out.ops += len(answered)
        if phase == "steady":
            # A refusal outside overload is a failure: it misses any limit.
            out.failed += n - len(answered)
            out.latencies = latencies
        else:
            out.failed += statuses.get("failed", 0)
            out.wall = elapsed
            out.throughput = len(answered) / elapsed
        waits = sorted(
            r.queued_seconds for r in responses if r.stats is not None
        )
        for response in responses:
            _absorb(out.query_stats, response.stats)
        out.facts[phase] = {
            "injected": n,
            "offered_qps": self._rates[phase],
            "elapsed": elapsed,
            "window": (start, end),
            "goodput_qps": len(answered) / elapsed,
            "lag": lag,
            "queue_waits": waits,
            "statuses": statuses,
            "latencies": sorted(latencies),
        }
        stride = max(n // 64, 1)
        for i in range(0, n, stride):
            if responses[i].status == "ok":
                out.answers[(phase, i)] = responses[i].ids
        # One row per request for the trace file: when execution began is
        # the key that maps a request to its coalesced batch.
        for i in range(n):
            response = responses[i]
            out.trace_rows.append(
                {
                    "name": "serve.request",
                    "phase": phase,
                    "request": i,
                    "scheduled": start + offsets[i],
                    "sent": sent[i],
                    "end": completed[i],
                    "status": response.status,
                    "cache_hit": response.cache_hit,
                    "batch_size": response.batch_size,
                    "exec_start": (
                        sent[i] + response.queued_seconds
                        if response.stats is not None
                        else None
                    ),
                }
            )

    def verify(self, state, inputs, points, measured, rng):
        from repro.integrate.cascade import CascadeIntegrator

        engine = state.database.engine(
            strategies=state.config.strategies, integrator=CascadeIntegrator()
        )
        def check(key) -> bool:
            phase, i = key
            request = inputs.phases[phase][1][i]
            cold = engine.run_batch([request.query], workers=1)
            return cold.results[0].ids == measured.answers[key]

        return verify_sample(
            _shuffled(measured.answers, rng), check, budget=VERIFY_BUDGET
        )


# ----------------------------------------------------------------------
# Monitor storm
# ----------------------------------------------------------------------


@dataclass
class _MonitorInputs:
    subscriptions: list
    gaussians: list
    positions: np.ndarray


@dataclass
class _MonitorState:
    database: object
    engine: object
    manager: object


class MonitorStorm(Workload):
    """Random-walk updates against 256 standing queries, closed loop."""

    name = "monitor_storm"
    N_SUBS = 256
    N_STEPS = 240

    def build_inputs(self, points, seed, seconds):
        from repro.gaussian.distribution import Gaussian

        subs, positions = gen.monitor_storm(
            points, self.N_SUBS, self.N_STEPS, seed
        )
        gaussians = [Gaussian(s.spec.center, s.spec.sigma) for s in subs]
        return _MonitorInputs(subs, gaussians, positions)

    def setup(self, store_path, inputs):
        from repro.integrate.cascade import CascadeIntegrator
        from repro.serve.monitor import SubscriptionManager

        timings: dict = {}
        database = _open(store_path, timings)
        engine = database.engine(
            strategies="all", integrator=CascadeIntegrator()
        )
        manager = SubscriptionManager(database, engine)
        start = time.perf_counter()
        for key, (sub, gaussian) in enumerate(
            zip(inputs.subscriptions, inputs.gaussians)
        ):
            manager.subscribe(
                gaussian, sub.spec.delta, sub.spec.theta, subscription_id=key
            )
        timings["monitor.subscribe_s"] = time.perf_counter() - start
        return _MonitorState(database, engine, manager), timings

    def measure(self, state, inputs, seconds, tracer):
        manager = state.manager
        positions = inputs.positions
        n_steps, n_subs, _ = positions.shape
        isotropic = [sub.isotropic for sub in inputs.subscriptions]
        out = Measured()
        outcomes = {
            shape: {"updates": 0, "rechecked": 0}
            for shape in ("iso", "aniso")
        }
        clock = time.perf_counter
        cpu0 = cpu_seconds([])
        start = clock()
        deadline = start + seconds
        issued = 0
        ended = start
        for step in range(n_steps):
            for key in range(n_subs):
                tracer.op = issued
                began = clock()
                try:
                    response = manager.update(key, positions[step, key])
                except Exception:  # noqa: BLE001 - counted, the loop goes on
                    response = None
                ended = clock()
                issued += 1
                if response is None or response.status != "ok":
                    out.failed += 1
                    continue
                out.latencies.append(ended - began)
                tally = outcomes["iso" if isotropic[key] else "aniso"]
                tally["updates"] += 1
                tally[response.outcome] = tally.get(response.outcome, 0) + 1
                tally["rechecked"] += response.rechecked
                if issued % 41 == 0:
                    out.answers[(step, key)] = response.ids
            if ended >= deadline:
                break
        tracer.op = None
        out.attempted = issued
        out.ops = len(out.latencies)
        out.wall = ended - start
        out.cpu = cpu_seconds([]) - cpu0
        out.throughput = out.ops / out.wall
        out.peak_rss_mb = peak_rss_mb([])
        out.window = out.wall
        out.facts["outcomes"] = outcomes
        return out

    def verify(self, state, inputs, points, measured, rng):
        from repro.core.query import ProbabilisticRangeQuery
        from repro.gaussian.distribution import Gaussian

        def check(key) -> bool:
            step, sub = key
            spec = inputs.subscriptions[sub].spec
            query = ProbabilisticRangeQuery(
                Gaussian(inputs.positions[step, sub], spec.sigma),
                spec.delta,
                spec.theta,
            )
            cold = state.engine.run_batch([query], workers=1)
            return cold.results[0].ids == measured.answers[key]

        return verify_sample(
            _shuffled(measured.answers, rng), check, budget=VERIFY_BUDGET
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ClosedLoopPRQ(
            "prq_cascade_2d",
            "road50k",
            gen.cascade_2d_queries,
            1024,
            strategies="auto",
            integrator="cascade",
        ),
        ClosedLoopPRQ(
            "prq_mc_2d",
            "road50k",
            gen.mc_2d_queries,
            32,
            strategies="all",
            integrator="importance",
            warmup_chunks=1,
        ),
        ClosedLoopPRQ(
            "prq_cascade_9d",
            "corel68k",
            gen.cascade_9d_queries,
            512,
            strategies="auto",
            integrator="cascade",
        ),
        ServeWorkload(
            "serve_uniform",
            steady_qps=30.0,
            overload_qps=400.0,
            warmup_requests=128,
        ),
        ServeWorkload(
            "serve_hotkey",
            steady_qps=150.0,
            overload_qps=1500.0,
            hot_keys=8192,
            warmup_requests=1000,
        ),
        MonitorStorm(),
        ClosedLoopPRQ(
            "shard_batch_2d",
            "cluster200k",
            gen.light_2d_queries,
            1024,
            strategies="all",
            integrator="cascade",
            chunk=32,
            warmup_chunks=2,
            shards=2,
            # Two worker processes on two shared vCPUs: run-to-run spread
            # (0.25-0.29) is beyond the largest bound the format allows.
            gated=False,
        ),
    )
}
