"""Replica sets: one storage shard as primary + R replicas with failover.

Production monitoring backends replicate each partition so a dead backend
node degrades capacity, not availability ("ODA in Practice": the storage
tier must stay queryable through maintenance and failures).  A
:class:`ReplicaSet` is that unit: ``replication + 1`` independent
:class:`~repro.telemetry.store.TimeSeriesStore` members that all receive
every write, with reads served by the primary and transparently failed
over to the first healthy replica when the primary is marked down.

Failure semantics mirror real collectors:

* **writes never raise** — a down member simply misses the write (counted
  in ``missed_writes``), a degraded member sheds it (``dropped_writes``);
  a write no member takes is lost and counted
  (``lost_batches``/``lost_samples``), exactly like a monitoring stack
  dropping data while its backend is offline.  ``ingest`` and
  ``append_many`` follow this one rule,
* **reads fail over** — served by the first healthy member in primary →
  replica order (``failover_reads`` counts reads served by a non-primary);
  only when no healthy member remains does a read raise
  :class:`~repro.errors.ShardDownError`,
* **revival resyncs** — a revived member missed writes while down, so by
  default it is rebuilt from a healthy peer before serving again.

Members are built by the set itself from the member stores' keyword
arguments.  With a ``journal`` base directory every member journals to
:func:`~repro.telemetry.durability.journal_dir` ``(journal, shard_id, j)``,
so a set rebuilt over the same base replays each journal into the member
that wrote it.

:class:`ReplicaSetBase` is what this class shares with the parallel tier's
``ParallelReplicaSet``: member topology, read routing, degrade validation,
and the ``telemetry.shard.<i>.*`` instruments with the stat helpers
behind them.  The two tiers differ only in where the
members and their counters live — here, in this process; there, in a shard
worker reached over a pipe.  The counter names are declared once, in
:data:`MEMBER_COUNTERS` and :data:`SET_COUNTERS`.
"""

from __future__ import annotations

import logging
import shutil
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShardDownError, StoreError
from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.durability import journal_dir
from repro.telemetry.sample import SampleBatch
from repro.telemetry.store import TimeSeriesStore

__all__ = ["MEMBER_COUNTERS", "ReplicaSet", "ReplicaSetBase", "SET_COUNTERS"]

log = logging.getLogger(__name__)

#: Write-loss and repair counters kept per member (lists, one per member).
MEMBER_COUNTERS = ("missed_writes", "dropped_writes", "repaired_samples")
#: Write-loss and repair counters kept per replica set (scalars).
#: :class:`ReplicaSet` holds both kinds as attributes of these names and
#: reports them in :meth:`ReplicaSet.stats`; a shard worker ships them in
#: its stats reply, the parallel runtime carries them across worker
#: restarts, and ``ParallelReplicaSet`` reads them back as attributes.
SET_COUNTERS = (
    "lost_batches", "lost_samples", "resync_failures", "anti_entropy_sweeps",
    "diverged_windows", "repaired_windows",
)


class ReplicaSetBase:
    """Topology, read routing and instruments shared by both tiers.

    A subclass supplies the members (stores, or proxies of stores in a
    worker process), the counters as attributes, ``stats()``,
    ``_member_stat(member, key)`` (one member's ``samples_ingested`` or
    ``series``) and ``_degrade(drop_fraction, rng, member)``, which applies
    a validated :meth:`degrade`.
    """

    def __init__(self, shard_id: int, members: list):
        self.shard_id = shard_id
        self.members = members
        self._down = [False] * len(members)
        self._drop_fraction = [0.0] * len(members)
        self.failover_reads = 0
        self._metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        return len(self.members) - 1

    @property
    def primary(self):
        return self.members[0]

    def is_down(self, member: int = 0) -> bool:
        return self._down[member]

    @property
    def down_members(self) -> int:
        return sum(self._down)

    @property
    def healthy_members(self) -> int:
        return len(self.members) - self.down_members

    def mark_down(self, member: int = 0) -> None:
        """Take one member offline (writes missed, reads fail over)."""
        self._down[member] = True

    def degrade(
        self,
        drop_fraction: float,
        rng: np.random.Generator,
        member: int = 0,
    ) -> None:
        """Degrade one member: drop this fraction of its writes (seeded).

        Pass ``0.0`` to restore the member to full write acceptance.  A
        degraded member silently diverges from its peers — the realistic
        failure mode of an overloaded backend shedding ingest load.
        """
        if not 0.0 <= drop_fraction <= 1.0:
            raise ConfigurationError(
                f"drop_fraction must be in [0, 1], got {drop_fraction}"
            )
        self._degrade(drop_fraction, rng, member)
        self._drop_fraction[member] = drop_fraction

    # ------------------------------------------------------------------
    # Reads: primary, else first healthy replica
    # ------------------------------------------------------------------
    def read_store(self):
        """The member currently serving reads; raises if none is healthy."""
        for i, store in enumerate(self.members):
            if not self._down[i]:
                if i != 0:
                    self.failover_reads += 1
                return store
        raise ShardDownError(
            f"shard {self.shard_id}: all {len(self.members)} members are down"
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _serving_stat(self, key: str) -> float:
        """One per-member stat of the serving member; NaN when none serves
        or the stats cannot be read.

        Scans ``_down`` directly (rather than via :meth:`read_store`) so a
        metrics snapshot never perturbs the ``failover_reads`` counter.
        """
        serving = next((i for i, down in enumerate(self._down) if not down), None)
        if serving is None:
            return float("nan")
        try:
            return float(self._member_stat(serving, key))
        except StoreError:
            return float("nan")

    def _summed_stat(self, key: str) -> float:
        """One counter summed over members (scalars pass through)."""
        try:
            value = getattr(self, key)
        except StoreError:
            return float("nan")
        return float(sum(value) if isinstance(value, list) else value)

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments under ``telemetry.shard.<shard_id>``."""
        if self._metrics is not None:
            return self._metrics
        prefix = f"telemetry.shard.{self.shard_id}"
        r = self._metrics = MetricsRegistry()
        r.counter(f"{prefix}.samples", "samples on the serving member",
                  fn=lambda: self._serving_stat("samples_ingested"))
        r.gauge(f"{prefix}.series", "series on the serving member",
                fn=lambda: self._serving_stat("series"))
        r.gauge(f"{prefix}.down_members", "members currently down",
                fn=lambda: float(self.down_members))
        r.counter(f"{prefix}.missed_writes", "writes missed by down members",
                  fn=lambda: self._summed_stat("missed_writes"))
        r.counter(f"{prefix}.dropped_writes", "writes shed by degraded members",
                  fn=lambda: self._summed_stat("dropped_writes"))
        r.counter(f"{prefix}.lost_samples", "samples lost with every member down",
                  fn=lambda: self._summed_stat("lost_samples"))
        r.counter(f"{prefix}.failover_reads",
                  "reads served by a non-primary member",
                  fn=lambda: float(self.failover_reads))
        r.counter(f"{prefix}.resync_failed",
                  "revivals that found no healthy peer to resync from",
                  fn=lambda: self._summed_stat("resync_failures"))
        r.counter(f"{prefix}.diverged_windows",
                  "divergent (series, window) pairs detected",
                  fn=lambda: self._summed_stat("diverged_windows"))
        r.counter(f"{prefix}.repaired_windows",
                  "divergent windows repaired by anti-entropy",
                  fn=lambda: self._summed_stat("repaired_windows"))
        r.counter(f"{prefix}.repaired_samples",
                  "samples copied to members by anti-entropy",
                  fn=lambda: self._summed_stat("repaired_samples"))
        return r


class ReplicaSet(ReplicaSetBase):
    """Primary + R replica stores for one shard, with read failover."""

    def __init__(
        self,
        shard_id: int,
        replication: int = 0,
        retention: Optional[float] = None,
        rollups=None,
        archive=None,
        journal=None,
    ):
        if replication < 0:
            raise ConfigurationError(
                f"replication must be >= 0, got {replication}"
            )
        self.shard_id = shard_id
        self._store_kwargs = {
            "retention": retention, "rollups": rollups, "archive": archive,
        }
        self._journal = journal
        super().__init__(
            shard_id, [self._new_member(i) for i in range(replication + 1)]
        )
        self._drop_rng: Optional[np.random.Generator] = None
        for key in MEMBER_COUNTERS:
            setattr(self, key, [0] * len(self.members))
        for key in SET_COUNTERS:
            setattr(self, key, 0)

    def _new_member(self, member: int) -> TimeSeriesStore:
        """Open member ``member``'s store (replaying its journal, if any)."""
        journal = None
        if self._journal is not None:
            journal = journal_dir(self._journal, self.shard_id, member)
        return TimeSeriesStore(**self._store_kwargs, journal=journal)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _degrade(
        self, drop_fraction: float, rng: np.random.Generator, member: int
    ) -> None:
        self._drop_rng = rng

    def revive(self, member: int = 0, resync: bool = True) -> None:
        """Bring a member back; by default rebuild it from a healthy peer.

        Without resync the member serves whatever (stale) data it held when
        it went down; with resync it is replaced by a fresh store populated
        from the first healthy peer, so failback reads see the full series.
        Reviving with ``resync=True`` when no peer is healthy keeps the
        member's own data (there is nothing better to copy from) — this is
        no longer silent: it counts as a ``resync_failure`` and logs a
        warning, because the member re-enters service with stale data.
        """
        self._drop_fraction[member] = 0.0
        if resync:
            source = next(
                (
                    m
                    for i, m in enumerate(self.members)
                    if i != member and not self._down[i]
                ),
                None,
            )
            if source is not None:
                source.flush()
                fresh = self._rebuild(member)
                # Encoded cold chunks can be adopted only by a journal-free
                # member (a shard worker's, whose shard WAL covers it): an
                # adopt is not journaled, so a journaled member takes its
                # peer's whole history through its journaled write path.
                adopt = (
                    fresh.journal is None
                    and source.archive is not None
                    and fresh.archive is not None
                )
                for name in source.names():
                    if adopt and name in source.archive:
                        # Ship cold history as already-encoded chunks (no
                        # decode/re-encode round trip), then copy only the
                        # hot tail; rollups rebuild from the merged tiers
                        # on observe, bit-identical by construction.
                        fresh.archive.adopt(name, source.archive.chunks(name))
                        buf = source.series(name)
                        fresh.append_many(
                            name, buf.times.copy(), buf.values.copy()
                        )
                    else:
                        # Cold-aware query: decoded archive history (if
                        # any) plus hot samples, replayed as raw.
                        times, values = source.query(name)
                        fresh.append_many(name, times, values)
                self.members[member] = fresh
                # The rebuilt member holds everything its peer holds:
                # writes it missed while down *and* writes it shed while
                # degraded are no longer missing, so both counters reset —
                # leaving either non-zero would double-count data that a
                # subsequent audit can see is present.
                self.missed_writes[member] = 0
                self.dropped_writes[member] = 0
            elif self._down[member] and self.replication > 0:
                # A resync was requested and would have mattered (the
                # member was down and has peers to copy from), but every
                # peer is down too: the member serves stale data.
                self.resync_failures += 1
                log.warning(
                    "shard %d: revive(member=%d, resync=True) found no "
                    "healthy peer; member re-enters service with stale data "
                    "(%d writes missed while down)",
                    self.shard_id, member, self.missed_writes[member],
                )
        self._down[member] = False

    def _rebuild(self, member: int) -> TimeSeriesStore:
        """An *empty* replacement for ``member``: its stale journal is
        wiped, since the peer copy re-journals everything it receives."""
        self.members[member].close()
        if self._journal is not None:
            shutil.rmtree(
                journal_dir(self._journal, self.shard_id, member),
                ignore_errors=True,
            )
        return self._new_member(member)

    # ------------------------------------------------------------------
    # Writes: fan out to every healthy member
    # ------------------------------------------------------------------
    def ingest(self, topic: str, batch: SampleBatch) -> int:
        """Deliver one batch to every member that takes it; returns copies
        written.  Faults never raise: :meth:`_fan_out` counts them."""
        if _OBS.enabled:
            with _OBS.tracer.span(
                "replica.write", sim_time=batch.time, shard=self.shard_id
            ) as sp:
                written = self._fan_out(len(batch), "ingest", topic, batch)
                sp.set_attr("written", written)
                return written
        return self._fan_out(len(batch), "ingest", topic, batch)

    def append_many(
        self, name: str, times: np.ndarray, values: np.ndarray
    ) -> None:
        """Deliver one series' samples as :meth:`ingest` delivers a batch."""
        samples = int(np.asarray(times).size)
        self._fan_out(samples, "append_many", name, times, values)

    def _fan_out(self, samples: int, op: str, *args) -> int:
        """Run one write on every member that takes it; returns copies written.

        The one fault rule of every write: a down member misses it, a
        degraded member sheds it with its drop probability, and a write no
        member took is lost — each counted in ``samples``.
        """
        written = 0
        for i, store in enumerate(self.members):
            if self._down[i]:
                self.missed_writes[i] += samples
                continue
            if (
                self._drop_fraction[i] > 0.0
                and self._drop_rng is not None
                and self._drop_rng.random() < self._drop_fraction[i]
            ):
                self.dropped_writes[i] += samples
                continue
            getattr(store, op)(*args)
            written += 1
        if written == 0:
            self.lost_batches += 1
            self.lost_samples += samples
        return written

    def flush(self, name: Optional[str] = None) -> int:
        """Flush staged samples (of ``name``, or all) on healthy members."""
        return sum(
            store.flush(name)
            for i, store in enumerate(self.members)
            if not self._down[i]
        )

    # ------------------------------------------------------------------
    # Anti-entropy: detect and repair divergence window by window
    # ------------------------------------------------------------------
    def anti_entropy(
        self, window_s: float = 3600.0, now: Optional[float] = None
    ) -> dict:
        """One repair sweep: compare per-(series, window) checksums across
        healthy members and copy only the differing windows from the best
        source (the member holding the most samples there — divergence
        here means *lost* writes, so more data wins; ties go to the
        lower-index member, i.e. the primary).

        Cheap by construction: agreement costs one checksum pass and a
        dict comparison per series; data moves only for windows that
        actually differ.  The window currently being filled is excluded
        (``now`` caps the comparison; by default the last complete window
        boundary below the newest healthy sample).  When retention is
        configured, windows old enough to be subject to trimming/demotion
        are also excluded — repairing inside the retention horizon would
        fight the sweeper and resurrect trimmed data.

        Repaired samples heal the loss accounting: a member's
        ``dropped_writes``/``missed_writes`` shrink by the net samples
        restored to it, so a fully repaired member no longer counts its
        healed windows as lost.

        Returns a summary dict (``diverged_windows``, ``repaired_windows``,
        ``repaired_samples``, ``checked_series``).
        """
        self.anti_entropy_sweeps += 1
        result = {
            "diverged_windows": 0,
            "repaired_windows": 0,
            "repaired_samples": 0,
            "checked_series": 0,
        }
        healthy = [i for i in range(len(self.members)) if not self._down[i]]
        if len(healthy) < 2:
            return result
        stores = [self.members[i] for i in healthy]
        latest = max(
            (s.latest_time for s in stores if np.isfinite(s.latest_time)),
            default=None,
        )
        if latest is None:
            return result
        until = float(now) if now is not None else (latest // window_s) * window_s
        floor_t = float("-inf")
        retentions = [s.retention for s in stores if s.retention is not None]
        if retentions:
            # One extra window of margin over the tightest retention so a
            # window being trimmed mid-sweep is never "repaired" back.
            floor_t = latest - min(retentions) + window_s
        names = sorted(set().union(*(s.names() for s in stores)))
        for name in names:
            result["checked_series"] += 1
            sums = [s.window_checksums(name, window_s, until=until) for s in stores]
            windows = set().union(*(cs.keys() for cs in sums))
            for w in sorted(windows):
                if w * window_s < floor_t:
                    continue
                per_member = [cs.get(w, (0, 0)) for cs in sums]
                if len({pm[0] for pm in per_member}) == 1:
                    continue
                result["diverged_windows"] += 1
                self.diverged_windows += 1
                src_pos = max(
                    range(len(healthy)),
                    key=lambda p: (per_member[p][1], -p),
                )
                times, values = stores[src_pos].window_data(name, window_s, w)
                for p, member_idx in enumerate(healthy):
                    if p == src_pos or per_member[p] == per_member[src_pos]:
                        continue
                    net = stores[p].replace_window(
                        name, w * window_s, (w + 1) * window_s, times, values
                    )
                    self.repaired_windows += 1
                    result["repaired_windows"] += 1
                    result["repaired_samples"] += int(times.size)
                    self.repaired_samples[member_idx] += int(times.size)
                    self._heal_loss_accounting(member_idx, net)
        return result

    def _heal_loss_accounting(self, member: int, net_samples: int) -> None:
        """Samples restored to a member are no longer dropped or missed."""
        heal = max(0, int(net_samples))
        take = min(self.dropped_writes[member], heal)
        self.dropped_writes[member] -= take
        self.missed_writes[member] = max(
            0, self.missed_writes[member] - (heal - take)
        )

    # ------------------------------------------------------------------
    # Durability and observability
    # ------------------------------------------------------------------
    def sync_journal(self) -> int:
        """Group-commit the healthy members' journals; max durable seq."""
        return max(
            (
                store.sync_journal()
                for i, store in enumerate(self.members)
                if not self._down[i]
            ),
            default=0,
        )

    @property
    def recovered_samples(self) -> int:
        """Samples the members replayed from their journals when opened."""
        return sum(
            m.recovery.replayed_samples
            for m in self.members
            if m.recovery is not None
        )

    def _member_stat(self, member: int, key: str):
        store = self.members[member]
        return len(store) if key == "series" else getattr(store, key)

    def stats(self) -> dict:
        """The counters of :data:`MEMBER_COUNTERS` and :data:`SET_COUNTERS`
        by name, plus each member's ``samples_ingested`` and ``series``."""
        out = {key: list(getattr(self, key)) for key in MEMBER_COUNTERS}
        out.update((key, getattr(self, key)) for key in SET_COUNTERS)
        for key in ("samples_ingested", "series"):
            out[key] = [
                self._member_stat(i, key) for i in range(len(self.members))
            ]
        return out
