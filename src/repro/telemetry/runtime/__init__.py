"""Process-parallel shard runtime for the distributed telemetry tier.

Moves each shard's :class:`~repro.telemetry.distributed.replica.ReplicaSet`
into a worker process fed by shared-memory NumPy ring buffers with an
async, batched, backpressured ingest path — the scalable-collection
building block the paper's framework calls for, patterned on LDMS's
daemon-per-node aggregation topology.

Entry point for most users is ``ShardedStore(parallel=True, ...)`` (or
``repro simulate --parallel``); the classes here are the machinery behind
it.
"""

from repro.telemetry.runtime.parallel import (
    ParallelReplicaSet,
    ParallelShardRuntime,
    RemoteStoreProxy,
)
from repro.telemetry.runtime.ring import SampleRing
from repro.telemetry.runtime.worker import ShardWorker, worker_main

__all__ = [
    "ParallelShardRuntime",
    "ParallelReplicaSet",
    "RemoteStoreProxy",
    "SampleRing",
    "ShardWorker",
    "worker_main",
]
