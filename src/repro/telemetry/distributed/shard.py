"""Hash-partitioned sharded store: the distributed archive tier.

A :class:`ShardedStore` spreads series across N independent
:class:`~repro.telemetry.store.TimeSeriesStore` shards by hashing the
series name (pluggable partitioner, CRC-32 by default so assignment is
consistent across runs and archives).  Each shard slot is a
:class:`~repro.telemetry.distributed.replica.ReplicaSet` — primary plus R
replicas with transparent read failover — and the read verbs go through
a :class:`~repro.telemetry.distributed.federation.FederatedQueryEngine`
built for each query.

The public surface is API-compatible with ``TimeSeriesStore`` (``ingest``,
``query``, ``resample``, ``align``, ``select``, ``names``, ``flush``,
``metric_registries``, …), so everything downstream — bus subscription,
streaming stages, alert evaluation, analytics, persistence — works
unchanged on a sharded deployment::

    store = ShardedStore(shards=8, replication=1, retention=86_400.0)
    bus.subscribe("#", store.ingest)
    grid, X = store.align(store.select("cluster.*"), 0.0, now, 60.0)

Ingest splits each bus batch into per-shard sub-batches with a cached
split plan: scrapes re-publish the same metric-name tuple every period, so
after the first batch the partitioner is never consulted again on the hot
path — one dict hit yields the (shard, names, index-array) plan and the
values are fancy-indexed straight into per-shard batches.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.distributed.federation import FederatedQueryEngine
from repro.telemetry.distributed.partition import HashPartitioner, Partitioner
from repro.telemetry.distributed.replica import ReplicaSet
from repro.telemetry.sample import SampleBatch
from repro.telemetry.store import (
    SeriesBuffer,
    TimeSeriesStore,
    check_tier_switches,
)

__all__ = ["ShardedStore"]

#: Bound on the cached batch split plans (keyed by the batch's name tuple).
_SPLIT_CACHE_CAP = 1024

#: One split-plan entry: (shard_id, names sub-tuple, value index array).
_SplitPlan = List[Tuple[int, Tuple[str, ...], np.ndarray]]


class ShardedStore:
    """N hash-partitioned, optionally replicated, time-series shards.

    Parameters
    ----------
    shards:
        Number of shard slots (>= 1).
    replication:
        Extra copies per shard: every write lands on the primary plus this
        many replicas, and reads fail over when the primary is down.
    partitioner:
        ``name -> shard_id`` callable; defaults to CRC-32 hashing
        (:class:`~repro.telemetry.distributed.partition.HashPartitioner`).
    retention:
        Per-member retention, identical in meaning to
        :class:`~repro.telemetry.store.TimeSeriesStore`.
    parallel:
        Run each replica set in its own worker process, fed by
        shared-memory ring buffers with async batched ingest
        (:mod:`repro.telemetry.runtime`).  The store API is unchanged and
        federated query results are bit-identical to the in-process path;
        call :meth:`close` (or use the owning system's ``close``) for a
        graceful drain at shutdown.
    rollups / archive:
        Per-member switches for the rollup cascade / compressed cold tier,
        identical in meaning to
        :class:`~repro.telemetry.store.TimeSeriesStore`: bools, kept as
        :attr:`rollups` / :attr:`archive`.
    journal:
        Base directory for write-ahead journaling, or ``None`` for none.
        Each member journals to ``<base>/shard<i>/member<j>``
        (:func:`~repro.telemetry.durability.journal_dir`); opening a
        new ``ShardedStore`` over the same base replays the journals, so
        acked ingest survives a crash of the owning process.  In parallel
        mode each worker instead journals the slots it applies to
        ``<base>/shard<i>/wal``, and a restarted worker recovers from that
        journal; without a journal a worker crash loses what it applied.
    """

    def __init__(
        self,
        shards: int = 4,
        replication: int = 0,
        partitioner: Optional[Partitioner] = None,
        retention: Optional[float] = None,
        parallel: bool = False,
        rollups: bool = False,
        archive: bool = False,
        journal=None,
    ):
        check_tier_switches(rollups, archive)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if replication < 0:
            raise ConfigurationError(
                f"replication must be >= 0, got {replication}"
            )
        self.shards = shards
        self.replication = replication
        self.retention = retention
        self.rollups = rollups
        self.archive = archive
        self.parallel = parallel
        self.runtime = None
        self.journal = os.fspath(journal) if journal is not None else None
        self.corrupt_artifacts = 0  # damaged artifacts degraded at load
        self.partitioner: Partitioner = (
            partitioner if partitioner is not None else HashPartitioner(shards)
        )
        store_kwargs = {
            "retention": retention,
            "rollups": rollups,
            "archive": archive,
        }
        if parallel:
            from repro.telemetry.runtime import (
                ParallelReplicaSet,
                ParallelShardRuntime,
            )

            self.runtime = ParallelShardRuntime(
                shards,
                replication,
                store_config={**store_kwargs, "journal": self.journal},
            )
            self.replica_sets = [
                ParallelReplicaSet(self.runtime, i) for i in range(shards)
            ]
        else:
            self.replica_sets: List[ReplicaSet] = [
                ReplicaSet(i, replication, journal=self.journal, **store_kwargs)
                for i in range(shards)
            ]
        self.batches_ingested = 0
        self.fanouts = 0  # federated reads that touched shards
        self._route: Dict[str, int] = {}
        self._split_cache: "OrderedDict[Tuple[str, ...], _SplitPlan]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, name: str) -> int:
        """Shard id owning ``name`` (cached, consistent for the run)."""
        shard = self._route.get(name)
        if shard is None:
            shard = self._route[name] = int(self.partitioner(name)) % self.shards
            if not 0 <= shard < self.shards:  # custom partitioner misbehaving
                raise ConfigurationError(
                    f"partitioner returned shard {shard} for {name!r} "
                    f"(valid: 0..{self.shards - 1})"
                )
        return shard

    def store_for(self, name: str) -> TimeSeriesStore:
        """The store currently serving reads for ``name``'s shard."""
        return self.replica_sets[self.shard_of(name)].read_store()

    def _split_plan(self, names: Tuple[str, ...]) -> _SplitPlan:
        plan = self._split_cache.get(names)
        if plan is None:
            by_shard: Dict[int, List[int]] = {}
            for i, name in enumerate(names):
                by_shard.setdefault(self.shard_of(name), []).append(i)
            plan = [
                (
                    shard,
                    tuple(names[i] for i in idx),
                    np.asarray(idx, dtype=np.intp),
                )
                for shard, idx in sorted(by_shard.items())
            ]
            if len(self._split_cache) >= _SPLIT_CACHE_CAP:
                # LRU: evict only the coldest entry.  A wholesale clear()
                # here forced every live scrape shape to re-consult the
                # partitioner on its next batch — a periodic latency spike.
                self._split_cache.popitem(last=False)
            self._split_cache[names] = plan
        else:
            self._split_cache.move_to_end(names)
        return plan

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, topic: str, batch: SampleBatch) -> None:
        """Bus-compatible sink: split the batch and write each sub-batch to
        its shard's replica set (primary + replicas)."""
        if _OBS.enabled:
            with _OBS.tracer.span(
                "shard.ingest", sim_time=batch.time, samples=len(batch)
            ):
                self._ingest(topic, batch)
            return
        self._ingest(topic, batch)

    def _ingest(self, topic: str, batch: SampleBatch) -> None:
        self.batches_ingested += 1
        plan = self._split_plan(batch.names)
        if len(plan) == 1:
            # Whole batch lands on one shard: forward it as-is, no copies.
            self.replica_sets[plan[0][0]].ingest(topic, batch)
            return
        time = batch.time
        values = batch.values
        for shard, names, idx in plan:
            self.replica_sets[shard].ingest(
                topic, SampleBatch(time, names, values[idx])
            )

    def append(self, name: str, time: float, value: float) -> None:
        self.append_many(name, (time,), (value,))

    def append_many(
        self, name: str, times: np.ndarray, values: np.ndarray
    ) -> None:
        self.replica_sets[self.shard_of(name)].append_many(name, times, values)

    def flush(self, name: Optional[str] = None) -> int:
        """Flush staged samples on every shard member; returns samples
        flushed on the primaries-and-replicas of the touched shard(s)."""
        if name is not None:
            return self.replica_sets[self.shard_of(name)].flush(name)
        return sum(rs.flush() for rs in self.replica_sets)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def anti_entropy(
        self, window_s: float = 3600.0, now: Optional[float] = None
    ) -> Dict[str, int]:
        """One anti-entropy sweep over every shard's replica set.

        Detects primary/replica divergence via per-(series, window)
        checksums and repairs only the differing windows; see
        :meth:`ReplicaSet.anti_entropy`.  In parallel mode the sweep runs
        inside each shard worker (the data never crosses the process
        boundary).  Returns the aggregated sweep summary.
        """
        totals = {
            "diverged_windows": 0,
            "repaired_windows": 0,
            "repaired_samples": 0,
            "checked_series": 0,
        }
        for rs in self.replica_sets:
            result = rs.anti_entropy(window_s, now)
            for key in totals:
                totals[key] += int(result.get(key, 0))
        return totals

    def sync_journal(self) -> int:
        """Group-commit every journal (fsync); returns max durable seq.

        In-process deployments sync each member's journal; parallel
        deployments sync the per-shard worker WALs.
        """
        return max((rs.sync_journal() for rs in self.replica_sets), default=0)

    @property
    def recovered_samples(self) -> int:
        """Samples replayed from journals when this store (or its current
        worker incarnations) opened."""
        return sum(rs.recovered_samples for rs in self.replica_sets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return FederatedQueryEngine(self).names()

    def select(self, pattern: str) -> List[str]:
        return FederatedQueryEngine(self).select(pattern)

    def __contains__(self, name: str) -> bool:
        return name in self.store_for(name)

    def __len__(self) -> int:
        return sum(len(rs.read_store()) for rs in self.replica_sets)

    def series(self, name: str) -> SeriesBuffer:
        """Read accessor on the owning shard (flushes + enforces retention)."""
        return self.store_for(name).series(name)

    @property
    def latest_time(self) -> float:
        """Largest timestamp across all serving members (-inf when empty)."""
        return max(
            (rs.read_store().latest_time for rs in self.replica_sets),
            default=float("-inf"),
        )

    @property
    def samples_ingested(self) -> int:
        """Logical samples stored (per-shard, counted once per sample —
        replica copies are not double-counted)."""
        return sum(rs.read_store().samples_ingested for rs in self.replica_sets)

    @property
    def staged_samples(self) -> int:
        return sum(rs.read_store().staged_samples for rs in self.replica_sets)

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed aggregate instruments on the ``telemetry.shard.*`` subtree,
        built on each access: every instrument reads through to the store."""
        r = MetricsRegistry()
        r.gauge("telemetry.shard.count", "configured shard slots",
                fn=lambda: float(self.shards))
        r.gauge("telemetry.shard.replication", "replica copies per shard",
                fn=lambda: float(self.replication))
        r.counter("telemetry.shard.batches", "bus batches ingested",
                  fn=lambda: float(self.batches_ingested))
        r.counter("telemetry.shard.fanouts", "federated cross-shard reads",
                  fn=lambda: float(self.fanouts))
        r.gauge("telemetry.shard.down_members",
                "members currently down across all shards",
                fn=lambda: float(sum(rs.down_members for rs in self.replica_sets)))
        r.counter("telemetry.shard.failover_reads",
                  "reads served by a non-primary across all shards",
                  fn=lambda: float(sum(rs.failover_reads for rs in self.replica_sets)))
        r.gauge("telemetry.shard.lost_samples",
                "written samples no member of their shard holds",
                fn=lambda: float(sum(rs.lost_samples for rs in self.replica_sets)))
        r.counter("telemetry.shard.resync_failed",
                  "revivals that found no healthy peer to resync from",
                  fn=lambda: float(sum(rs.resync_failures for rs in self.replica_sets)))
        r.counter("telemetry.replica.diverged_windows",
                  "divergent (series, window) pairs detected",
                  fn=lambda: float(sum(rs.diverged_windows for rs in self.replica_sets)))
        r.counter("telemetry.replica.repaired_windows",
                  "divergent windows repaired by anti-entropy",
                  fn=lambda: float(sum(rs.repaired_windows for rs in self.replica_sets)))
        r.counter("telemetry.replica.repaired_samples",
                  "samples copied to members by anti-entropy",
                  fn=lambda: float(sum(sum(rs.repaired_samples) for rs in self.replica_sets)))
        r.counter("telemetry.durability.corrupt_artifacts",
                  "damaged persisted artifacts degraded at load",
                  fn=lambda: float(self.corrupt_artifacts))
        return r

    def metric_registries(self) -> List[MetricsRegistry]:
        """Aggregate registry plus one per replica set (for exporters);
        a parallel deployment adds the ``telemetry.runtime.*`` registry."""
        registries = [self.metrics] + [rs.metrics for rs in self.replica_sets]
        if self.runtime is not None:
            registries.append(self.runtime.metrics)
        return registries

    # ------------------------------------------------------------------
    # Lifecycle (parallel mode)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Gracefully drain and stop shard workers; in-process deployments
        flush member staging and cleanly close member journals."""
        if self.runtime is not None:
            self.runtime.close()
            return
        for rs in self.replica_sets:
            for i, member in enumerate(rs.members):
                if not rs.is_down(i):
                    member.close()

    # ------------------------------------------------------------------
    # Queries (single-series routed, cross-series federated)
    # ------------------------------------------------------------------
    def query(
        self, name: str, since: float = float("-inf"), until: float = float("inf")
    ) -> Tuple[np.ndarray, np.ndarray]:
        return FederatedQueryEngine(self).query(name, since, until)

    def latest(self, name: str) -> Tuple[float, float]:
        return self.store_for(name).latest(name)

    def value_at(self, name: str, time: float) -> float:
        return self.store_for(name).value_at(name, time)

    def resample(
        self,
        name: str,
        since: float,
        until: float,
        step: float,
        agg: str = "mean",
    ) -> Tuple[np.ndarray, np.ndarray]:
        return FederatedQueryEngine(self).resample(
            name, since, until, step, agg=agg
        )

    def align(
        self,
        names: Sequence[str],
        since: float,
        until: float,
        step: float,
        agg: str = "mean",
        fill: str = "ffill",
    ) -> Tuple[np.ndarray, np.ndarray]:
        return FederatedQueryEngine(self).align(
            names, since, until, step, agg=agg, fill=fill
        )
