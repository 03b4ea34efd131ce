"""Sharded scatter–gather execution for probabilistic range queries.

``db.shard(n)`` partitions a :class:`repro.SpatialDatabase` into ``n``
spatial shards (STR order), hands every worker *process* the database's
structure-of-arrays store file, builds one R*-tree per shard inside
long-lived workers, and returns a :class:`ShardedDatabase` whose engines
route each query only to the shards whose MBR intersects its Phase-1
search rectangle.  See ``docs/sharding.md`` for the partitioning scheme,
the routing soundness argument and the determinism contract.
"""

from repro.shard.database import ShardedDatabase
from repro.shard.engine import ShardedEngine, ShardPool
from repro.shard.partition import ShardSpec, partition_positions
from repro.shard.seeding import CandidateSeededIntegrator
from repro.shard.worker import ShardTask, ShardTaskResult

__all__ = [
    "ShardedDatabase",
    "ShardedEngine",
    "ShardPool",
    "ShardSpec",
    "partition_positions",
    "CandidateSeededIntegrator",
    "ShardTask",
    "ShardTaskResult",
]
