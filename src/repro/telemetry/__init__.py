"""Telemetry pipeline: the monitoring substrate of the ODA platform.

Mirrors the architecture of production HPC monitoring stacks (LDMS, DCDB,
ExaMon): samplers scrape substrate components, a pub/sub bus transports
sample batches, a columnar time-series store archives them — optionally
tiered into materialized rollup cascades (:mod:`repro.telemetry.rollup`)
and a compressed columnar cold tier (:mod:`repro.telemetry.archive`) —
and an alert engine implements threshold-based descriptive alerting.  The pipeline is
fault-tolerant end to end — raising sources back off, raising sinks are
quarantined with failed deliveries parked in a dead-letter queue — and
publishes its own health metrics (:mod:`repro.telemetry.health`).
Durability comes from :mod:`repro.telemetry.durability`: a checksummed
write-ahead journal with crash-consistent recovery, checksummed archive
persistence, and anti-entropy replica repair.
"""

from repro.telemetry.archive import ArchiveTier, ColdChunk
from repro.telemetry.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    AlertSeverity,
    StaleDataRule,
)
from repro.telemetry.bus import DeadLetter, MessageBus, Subscription
from repro.telemetry.collector import CollectionAgent, Sampler, TelemetrySystem
from repro.telemetry.export import (
    load_spans_jsonl,
    to_csv,
    to_json,
    to_rows,
    write_chrome_trace,
    write_csv,
    write_prometheus,
    write_spans_jsonl,
)
from repro.telemetry.durability import (
    RecoveryStats,
    WriteAheadJournal,
    corrupt_artifact,
    scan_journal,
    tear_wal_tail,
)
from repro.telemetry.distributed import (
    HashPartitioner,
    ReplicaSet,
    ShardFault,
    ShardFaultKind,
    ShardedStore,
)
from repro.telemetry.faults import FaultySource, SensorFault, SensorFaultKind
from repro.telemetry.runtime import (
    ParallelShardRuntime,
    SampleRing,
)
from repro.telemetry.health import HEALTH_TOPIC, HealthMonitor
from repro.telemetry.metric import MetricKind, MetricRegistry, MetricSpec, Unit
from repro.telemetry.persistence import load_store, save_store
from repro.telemetry.rollup import SERVABLE_AGGREGATIONS, RollupEngine
from repro.telemetry.sample import SampleBatch, merge_batches
from repro.telemetry.serving import (
    AlignQuery,
    NamesQuery,
    QueryFrontend,
    QueryResult,
    RangeQuery,
    RejectReason,
    RejectedQuery,
    ResampleQuery,
    SelectQuery,
    TenantConfig,
)
from repro.telemetry.store import (
    AGGREGATIONS,
    VECTORIZED_AGGREGATIONS,
    SeriesBuffer,
    TimeSeriesStore,
    bucket_edges,
    forward_fill,
    resample_onto,
)

__all__ = [
    "ArchiveTier",
    "ColdChunk",
    "RollupEngine",
    "SERVABLE_AGGREGATIONS",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "AlertSeverity",
    "StaleDataRule",
    "MessageBus",
    "Subscription",
    "DeadLetter",
    "CollectionAgent",
    "Sampler",
    "TelemetrySystem",
    "HashPartitioner",
    "ReplicaSet",
    "ShardFault",
    "ShardFaultKind",
    "ShardedStore",
    "FaultySource",
    "SensorFault",
    "SensorFaultKind",
    "RecoveryStats",
    "WriteAheadJournal",
    "scan_journal",
    "tear_wal_tail",
    "corrupt_artifact",
    "ParallelShardRuntime",
    "SampleRing",
    "HealthMonitor",
    "HEALTH_TOPIC",
    "MetricKind",
    "MetricRegistry",
    "MetricSpec",
    "Unit",
    "SampleBatch",
    "merge_batches",
    "QueryFrontend",
    "TenantConfig",
    "NamesQuery",
    "SelectQuery",
    "RangeQuery",
    "ResampleQuery",
    "AlignQuery",
    "QueryResult",
    "RejectedQuery",
    "RejectReason",
    "load_store",
    "save_store",
    "AGGREGATIONS",
    "VECTORIZED_AGGREGATIONS",
    "SeriesBuffer",
    "TimeSeriesStore",
    "bucket_edges",
    "forward_fill",
    "resample_onto",
    "to_rows",
    "to_csv",
    "to_json",
    "write_csv",
    "write_chrome_trace",
    "write_spans_jsonl",
    "load_spans_jsonl",
    "write_prometheus",
]
