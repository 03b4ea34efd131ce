"""User-facing façade: a spatial database of exact points.

``SpatialDatabase`` owns the point set and a spatial index and exposes the
paper's query types with one call each:

- :meth:`range_query` — the classical distance range query;
- :meth:`knn` — k nearest neighbours;
- :meth:`probabilistic_range_query` — PRQ(q, δ, θ) with any strategy
  combination and integrator.

The default configuration matches the paper's experimental setup: an
R*-tree index, all three strategies combined, and importance sampling with
100,000 samples per candidate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core import storage
from repro.core.engine import QueryEngine, QueryResult
from repro.core.planner import QueryPlanner
from repro.core.query import ProbabilisticRangeQuery
from repro.core.stages import reject_only_candidates
from repro.core.strategies import Strategy, make_strategies
from repro.errors import DatabaseLoadError, QueryError
from repro.gaussian.distribution import Gaussian
from repro.index.base import SpatialIndex
from repro.index.rtree import RStarTree
from repro.integrate.base import ProbabilityIntegrator

__all__ = ["SpatialDatabase"]

_ArrayLike = Sequence[float] | np.ndarray


class SpatialDatabase:
    """A collection of exact d-dimensional points with spatial querying.

    Parameters
    ----------
    points:
        (n, d) array of object locations.
    ids:
        Optional object ids (default 0..n−1); must be unique.
    index:
        A pre-built empty index to load into; defaults to an R*-tree.
    target_table:
        Optional :class:`repro.core.kinds.TargetCovarianceTable` mapping
        object ids to target covariances.  Required for executing
        :class:`repro.core.kinds.UncertainTargetQuery` — every engine
        built from this database carries it.
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: Iterable[int] | None = None,
        index: SpatialIndex | None = None,
        *,
        defer_index: bool = False,
        target_table=None,
        _backing=None,
    ):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise QueryError(
                f"points must be a non-empty (n, d) array, got shape {pts.shape}"
            )
        if ids is None:
            id_arr = np.arange(pts.shape[0], dtype=np.int64)
        else:
            if not isinstance(ids, (np.ndarray, list, tuple)):
                ids = list(ids)
            id_arr = np.asarray(ids, dtype=np.int64)
        if id_arr.shape != (pts.shape[0],):
            raise QueryError(
                f"{id_arr.size} ids provided for {pts.shape[0]} points"
            )
        if index is not None:
            if len(index) != 0:
                raise QueryError(
                    "index must be empty; the database loads it itself"
                )
            if index.dim != pts.shape[1]:
                raise QueryError(
                    f"index dimension {index.dim} does not match points "
                    f"dimension {pts.shape[1]}"
                )
        if target_table is not None:
            if target_table.dim != pts.shape[1]:
                raise QueryError(
                    f"target covariance dimension {target_table.dim} does "
                    f"not match points dimension {pts.shape[1]}"
                )
            target_table.groups_for(id_arr)  # every object needs a group
        self._points = pts
        self._ids = id_arr
        self._target_table = target_table
        self._backing = _backing  # keeps a memory-mapped store file alive
        self._pending_index = index
        self._built_index: SpatialIndex | None = None
        if not defer_index:
            self._ensure_index()

    def _ensure_index(self) -> SpatialIndex:
        """Build the spatial index on first use (deferred for O(1) load)."""
        if self._built_index is None:
            index = self._pending_index
            if index is None:
                index = RStarTree(self._points.shape[1])
            index.bulk_load(self._ids, self._points)
            self._built_index = index
            self._pending_index = None
        return self._built_index

    @property
    def index(self) -> SpatialIndex:
        return self._ensure_index()

    @property
    def ids(self) -> np.ndarray:
        """Object ids, aligned with :attr:`points` rows.  Do not mutate."""
        return self._ids

    @property
    def points(self) -> np.ndarray:
        """(n, d) object locations (possibly memory-mapped).  Do not mutate."""
        return self._points

    @property
    def targets(self):
        """The registered target covariance table, or ``None``."""
        return self._target_table

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self._points.shape[0]

    def point(self, obj_id: int) -> np.ndarray:
        """Location of one object."""
        return self.index.get(obj_id)

    # ------------------------------------------------------------------
    # Classical queries
    # ------------------------------------------------------------------

    def range_query(self, center: _ArrayLike, radius: float) -> list[int]:
        """Ids within ``radius`` of ``center`` (the paper's baseline query)."""
        return self.index.range_search_sphere(center, radius)

    def knn(self, center: _ArrayLike, k: int) -> list[tuple[int, float]]:
        """The k nearest (id, distance) pairs, nearest first."""
        return self.index.knn(center, k)

    # ------------------------------------------------------------------
    # Probabilistic range queries
    # ------------------------------------------------------------------

    def probabilistic_range_query(
        self,
        gaussian: Gaussian | None = None,
        delta: float = 0.0,
        theta: float = 0.0,
        *,
        center: _ArrayLike | None = None,
        sigma: np.ndarray | None = None,
        strategies: str | list[Strategy] = "all",
        integrator: ProbabilityIntegrator | None = None,
        obs=None,
    ) -> QueryResult:
        """Run PRQ(q, δ, θ).

        Either pass a ready :class:`Gaussian` or ``center=``/``sigma=``.
        ``strategies`` is a spec string (``"rr"``, ``"bf"``, ``"rr+bf"``,
        ``"rr+or"``, ``"bf+or"``, ``"all"``), ``"auto"`` (ALL for range-shaped
        legs, the kind plan for k-NN), or an explicit strategy list.
        ``obs`` is an optional :class:`repro.obs.Observability` sink.
        """
        if gaussian is None:
            if center is None or sigma is None:
                raise QueryError(
                    "provide either a Gaussian or both center= and sigma="
                )
            gaussian = Gaussian(center, sigma)
        query = ProbabilisticRangeQuery(gaussian, delta, theta)
        engine = self.engine(
            strategies=strategies, integrator=integrator, obs=obs
        )
        return engine.execute(query)

    def engine(
        self,
        *,
        strategies: str | list[Strategy] = "all",
        integrator: ProbabilityIntegrator | None = None,
        obs=None,
    ) -> QueryEngine:
        """A reusable engine (hold on to it when running many queries).

        ``strategies="auto"`` attaches the database's
        :class:`QueryPlanner`: the paper's ALL (RR+BF+OR) for range-shaped
        legs, and the kind plan for k-NN.  ``obs`` attaches a
        :class:`repro.obs.Observability` sink: spans and metrics for every
        query the engine runs, with no effect on results.
        """
        planner, strategy_list = self._resolve_strategies(strategies)
        return QueryEngine(
            self.index,
            strategy_list,
            integrator,
            planner=planner,
            obs=obs,
            targets=self._target_table,
        )

    def _resolve_strategies(
        self, strategies: str | list[Strategy]
    ) -> tuple[QueryPlanner | None, list[Strategy]]:
        """The (planner, strategy list) an engine spec stands for:
        ``"auto"`` is the shared planner over the ``"all"`` list, any
        other spec string or explicit list runs unplanned."""
        if isinstance(strategies, str) and strategies.lower() == "auto":
            return self.planner(), make_strategies("all")
        if isinstance(strategies, str):
            return None, make_strategies(strategies)
        return None, list(strategies)

    def planner(self) -> QueryPlanner:
        """The database's ``"auto"`` planner: the paper's ALL (RR+BF+OR)
        for range-shaped legs, and the kind plan for k-NN."""
        return QueryPlanner()

    def top_k_by_probability(
        self,
        gaussian: Gaussian,
        delta: float,
        k: int,
        *,
        integrator: ProbabilityIntegrator | None = None,
        theta_floor: float = 1e-3,
    ) -> list[tuple[int, float]]:
        """The k objects most likely to lie within ``delta`` of the query.

        A ranking variant of PRQ: instead of a probability threshold, the
        caller asks for the top k objects by qualification probability,
        with the probabilities returned.  Processing starts from a
        generous region (θ = ``theta_floor``) and enlarges it geometrically
        until the k-th best probability provably dominates everything
        outside the region, so the ranking is exact (up to the integrator's
        own error).  Probabilities below 1e-12 are treated as zero; when
        fewer than k objects have non-negligible probability, fewer than k
        pairs are returned.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if not 0.0 < theta_floor < 0.5:
            raise QueryError(
                f"theta_floor must lie in (0, 1/2), got {theta_floor}"
            )
        evaluator = integrator
        if evaluator is None:
            from repro.integrate.exact import ExactIntegrator

            evaluator = ExactIntegrator()
        theta = theta_floor
        while True:
            query = ProbabilisticRangeQuery(gaussian, delta, theta)
            # RR+OR only: neither strategy ACCEPTs, so every surviving
            # candidate gets an actual probability for the ranking.
            ids, points = reject_only_candidates(
                self.index, query, make_strategies("rr+or")
            )
            estimates = evaluator.qualification_probabilities(
                gaussian, points, delta
            )
            scored = [
                (obj_id, result.estimate)
                for obj_id, result in zip(ids.tolist(), estimates)
            ]
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            kth_probability = scored[k - 1][1] if len(scored) >= k else 0.0
            # Everything outside the theta-region has probability < theta;
            # once the k-th in-region probability reaches theta the top-k
            # cannot change by enlarging further.  Below 1e-12 the tail is
            # numerically zero and expansion stops.
            if kth_probability >= theta or theta <= 1e-12:
                return scored[:k]
            theta = max(theta * theta, 1e-12)  # enlarge geometrically

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    def shard(self, n_shards: int, *, workers: int | None = None):
        """Partition this database across ``n_shards`` worker processes.

        Returns a :class:`repro.shard.ShardedDatabase`: every worker
        process maps this database's store file (an in-memory database
        writes a temporary one first), each shard gets its own R*-tree
        inside a long-lived worker process, and every engine built from
        it scatter-gathers queries across the shards whose MBR
        intersects the query's Phase-1 rectangle (``docs/sharding.md``).
        ``workers`` caps the process count (default: one per shard).
        Close the returned database (it is a context manager) to stop
        the pool and delete a temporary store::

            with db.shard(4) as sharded:
                batch = sharded.engine().run_batch(queries)
        """
        from repro.shard import ShardedDatabase

        return ShardedDatabase(self, n_shards, workers=workers)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve(self, **knobs):
        """Start an embedded :class:`repro.serve.QueryService` over this
        database.

        The service owns a warm engine plus a scheduler thread that
        coalesces concurrent :class:`repro.serve.PRQRequest` submissions
        into micro-batches, with admission control, deadline-aware
        degradation and a keyed result cache (see ``docs/serving.md``).
        The keyword knobs are :class:`repro.serve.ServiceConfig`'s::

            with db.serve(max_batch=16, batch_window=0.005) as service:
                future = service.submit(PRQRequest(gaussian, 10.0, 0.5))
                response = future.result()

        Close it (or use it as a context manager) to drain and stop.
        """
        from repro.serve import QueryService

        return QueryService(self, **knobs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist ids and points; the index is rebuilt lazily on load.

        Writes the versioned memory-mapped structure-of-arrays file of
        :mod:`repro.core.storage`, which :meth:`load` maps in O(1) without
        reading the data.
        """
        storage.write_soa(path, self._ids, self._points)

    @classmethod
    def load(cls, path, index: SpatialIndex | None = None) -> "SpatialDatabase":
        """Open a database saved with :meth:`save`.

        The file format is sniffed from the content: structure-of-arrays
        store files are memory-mapped — an O(1) operation with the index
        built lazily on first query — while legacy ``.npz`` archives load
        through the original decompress-and-copy migration path.

        Raises :class:`repro.errors.DatabaseLoadError` — naming the path
        and the underlying failure — when the file is missing, truncated
        or otherwise corrupt, instead of leaking a raw IO/unzip traceback
        from NumPy's archive reader.
        """
        if storage.is_soa_file(path):
            store = storage.open_soa(path)
            try:
                return cls(
                    store.points,
                    ids=store.ids,
                    index=index,
                    defer_index=True,
                    _backing=store,
                )
            except (QueryError, TypeError, ValueError) as exc:
                raise DatabaseLoadError(
                    path, f"store contents are invalid ({exc})"
                ) from exc
        return cls._load_npz(path, index)

    @classmethod
    def _load_npz(cls, path, index: SpatialIndex | None) -> "SpatialDatabase":
        """Migration shim for legacy compressed ``.npz`` archives."""
        import zipfile

        try:
            with np.load(path) as archive:
                try:
                    ids = archive["ids"]
                    points = archive["points"]
                except KeyError as exc:
                    raise DatabaseLoadError(
                        path, f"not a SpatialDatabase archive (missing {exc})"
                    ) from exc
        except DatabaseLoadError:
            raise
        except FileNotFoundError as exc:
            raise DatabaseLoadError(path, "file does not exist") from exc
        except (OSError, zipfile.BadZipFile, EOFError, ValueError) as exc:
            # np.load raises ValueError on truncated headers/pickles and
            # BadZipFile/EOFError/OSError on torn .npz containers.
            raise DatabaseLoadError(
                path, f"truncated or corrupt archive ({exc})"
            ) from exc
        try:
            return cls(points, ids=[int(i) for i in ids], index=index)
        except (QueryError, TypeError, ValueError) as exc:
            raise DatabaseLoadError(
                path, f"archive contents are invalid ({exc})"
            ) from exc
