"""Distributed telemetry storage: sharding, replication, federation.

The storage tier of a *distributed* ODA deployment, mirroring how DCDB and
LDMS federate per-node storage backends behind one query front-end:

* :mod:`~repro.telemetry.distributed.partition` — consistent series →
  shard assignment (CRC-32 by default, pluggable),
* :mod:`~repro.telemetry.distributed.replica` — one shard slot as primary
  + R replicas with write fan-out and read failover,
* :mod:`~repro.telemetry.distributed.shard` — :class:`ShardedStore`, the
  ``TimeSeriesStore``-compatible front door,
* :mod:`~repro.telemetry.distributed.federation` — the cross-shard
  query/align/select behind ``ShardedStore``'s read verbs, with the
  shared vectorized kernels,
* :mod:`~repro.telemetry.distributed.faults` — shard kill/degrade/revive
  injection, immediate or scheduled mid-run.
"""

from repro.telemetry.distributed.faults import (
    FAULT_TOPIC,
    ShardFault,
    ShardFaultEvent,
    ShardFaultKind,
)
from repro.telemetry.distributed.partition import HashPartitioner, Partitioner
from repro.telemetry.distributed.replica import ReplicaSet
from repro.telemetry.distributed.shard import ShardedStore

__all__ = [
    "FAULT_TOPIC",
    "HashPartitioner",
    "Partitioner",
    "ReplicaSet",
    "ShardFault",
    "ShardFaultEvent",
    "ShardFaultKind",
    "ShardedStore",
]
