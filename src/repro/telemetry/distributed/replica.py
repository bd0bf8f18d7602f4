"""Replica sets: one storage shard as primary + R replicas with failover.

Production monitoring backends replicate each partition so a dead backend
node degrades capacity, not availability ("ODA in Practice": the storage
tier must stay queryable through maintenance and failures).  A
:class:`ReplicaSet` is that unit: ``replication + 1`` independent
:class:`~repro.telemetry.store.TimeSeriesStore` members that all receive
every write, with reads served by the primary and transparently failed
over to the first healthy replica when the primary is marked down.

Failure semantics mirror real collectors:

* **writes never raise** — a down member simply misses the write, a
  degraded member sheds it, exactly like a monitoring stack dropping data
  while its backend is offline.  The set numbers its writes and keeps, per
  member, the ones it did not apply (its *holes*), from which the loss
  state of :data:`LOSS_COUNTERS` is derived (under retention without an
  archive, less the holes retention has aged out).  ``ingest`` and
  ``append_many`` follow this one rule,
* **reads fail over** — served by the first healthy member in primary →
  replica order (``failover_reads`` counts reads served by a non-primary);
  only when no healthy member remains does a read raise
  :class:`~repro.errors.ShardDownError`,
* **repairs only add** — a revived member is by default rebuilt from the
  merge of its own and its healthy peers' samples, and anti-entropy
  merges diverged windows, so a repair never deletes a sample's last copy.

Members are built by the set itself from the member stores' keyword
arguments.  With a ``journal`` base directory every member journals to
:func:`~repro.telemetry.durability.journal_dir` ``(journal, shard_id, j)``,
so a set rebuilt over the same base replays each journal into the member
that wrote it.  Member journals do not record holes, so a reopened set
starts with none.

:class:`ReplicaSetBase` is what this class shares with the parallel tier's
``ParallelReplicaSet``: member topology, read routing, degrade validation,
the counters of :data:`EVENT_COUNTERS` and the ``telemetry.shard.<i>.*``
instruments.  The two tiers differ only in where the members and their
holes live — here, in this process; there, in a shard worker reached over
a pipe, which rebuilds them when it restarts.
"""

from __future__ import annotations

import functools
import logging
import shutil
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShardDownError, StoreError
from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.durability import journal_dir, window_checksums
from repro.telemetry.sample import SampleBatch
from repro.telemetry.store import TimeSeriesStore

__all__ = ["EVENT_COUNTERS", "LOSS_COUNTERS", "ReplicaSet", "ReplicaSetBase"]

log = logging.getLogger(__name__)

#: Loss state, derived from the holes: the samples each member lacks from
#: writes it missed while down or shed while degraded (lists), and the
#: writes and samples no member holds.  Each falls when the data returns.
LOSS_COUNTERS = ("missed_writes", "dropped_writes", "lost_batches", "lost_samples")
#: Events, counted by :class:`ReplicaSetBase` from each ``revive`` and
#: ``anti_entropy`` result, so they never fall (``repaired_samples`` is a
#: list, one per member).
EVENT_COUNTERS = (
    "resync_failures", "anti_entropy_sweeps", "diverged_windows",
    "repaired_windows", "repaired_samples",
)


class _Hole(NamedTuple):
    """A write a member did not apply, ``missed`` or ``dropped``: its
    series, inclusive time span, samples per series, and the samples of it
    the member lacks."""

    kind: str
    names: Tuple[str, ...]
    t0: float
    t1: float
    each: int
    samples: int

    @classmethod
    def of(cls, kind: str, op: str, args: tuple) -> "_Hole":
        if op == "ingest":
            names, t = tuple(args[1].names), args[1].time
            return cls(kind, names, t, t, 1, len(names))
        times = np.asarray(args[1], dtype=np.float64)
        t0, t1 = float(times.min(initial=np.inf)), float(times.max(initial=-np.inf))
        return cls(kind, (args[0],), t0, t1, times.size, times.size)

    def lacked_in(self, store: TimeSeriesStore) -> int:
        """Samples of this write ``store`` does not hold (a series' writes
        are time-ordered, so what it holds in the span is this write's)."""
        return sum(
            self.each - min(self.each, store.query(name, self.t0, self.t1)[0].size)
            if name in store else self.each
            for name in self.names
        )


def _merge(parts: list) -> Tuple[np.ndarray, np.ndarray]:
    """The union of sorted ``(times, values)`` parts, in member order.  At
    a timestamp parts disagree on, the part holding more samples wins
    (divergence means *lost* writes); ties go to the earlier part."""
    parts = sorted(parts, key=lambda part: -part[0].size)  # stable: ties keep order
    times, first = np.unique(np.concatenate([t for t, _ in parts]), return_index=True)
    return times, np.concatenate([v for _, v in parts])[first]


class ReplicaSetBase:
    """Topology, read routing, event counters and instruments of both tiers.

    A subclass supplies the members (stores, or proxies of stores in a
    worker process), the loss state as attributes, ``stats()``,
    ``_member_stat(member, key)`` (one member's ``samples_ingested`` or
    ``series``), and the bodies of three verbs: ``_degrade(drop_fraction,
    rng, member)``, ``_revive(member, resync)`` (True when a wanted resync
    found no healthy peer) and ``_anti_entropy(window_s, now)``.
    """

    def __init__(self, shard_id: int, members: list):
        self.shard_id = shard_id
        self.members = members
        self._down = [False] * len(members)
        self._drop_fraction = [0.0] * len(members)
        self.failover_reads = 0
        for key in EVENT_COUNTERS:
            setattr(self, key, 0)
        self.repaired_samples = [0] * len(members)

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

    def revive(self, member: int = 0, resync: bool = True) -> bool:
        """Bring a member back; by default rebuild it with its peers' data.

        Without resync the member serves whatever (stale) data it held when
        it went down; with resync it is rebuilt through its (journaled) write
        path from the merge of its own and every healthy peer's samples, and
        its holes are re-measured.  Reviving a down member with
        ``resync=True`` when no peer is healthy keeps its own data, but
        counts a ``resync_failure``, logs a warning and returns True.
        """
        failed = bool(self._revive(member, resync))
        self.resync_failures += failed
        self._down[member] = False
        self._drop_fraction[member] = 0.0
        return failed

    def anti_entropy(
        self, window_s: float = 3600.0, now: Optional[float] = None
    ) -> dict:
        """One repair sweep: compare per-(series, window) checksums across
        healthy members, merge their samples of each differing window, and
        write the merge over each member that differs from it (where they
        disagree on a timestamp, the member holding more samples there
        wins; ties go to the lower-index member, i.e. the primary).

        Agreement costs one checksum pass and a dict comparison per series.
        The window being filled is excluded (``now`` caps the comparison;
        by default the last complete window boundary below the newest
        healthy sample), and so, under retention, are windows the sweeper
        may trim or demote, which a repair would resurrect.  A repaired
        member re-measures its own holes inside the repaired range; a merge
        only adds, so no other member's holes change.

        Returns a summary dict (``diverged_windows``,
        ``repaired_windows``, ``repaired_samples``, ``checked_series``, and
        ``member_repaired_samples``, the samples copied to each member).
        """
        result = self._anti_entropy(window_s, now)
        self.anti_entropy_sweeps += 1
        self.diverged_windows += result["diverged_windows"]
        self.repaired_windows += result["repaired_windows"]
        for member, samples in enumerate(result["member_repaired_samples"]):
            self.repaired_samples[member] += samples
        return result

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
        """One attribute summed over members (scalars pass through)."""
        try:
            value = getattr(self, key)
        except StoreError:
            return float("nan")
        return float(sum(value) if isinstance(value, list) else value)

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments under ``telemetry.shard.<shard_id>``, built on
        each access: every instrument reads through to the set."""
        prefix = f"telemetry.shard.{self.shard_id}"
        r = MetricsRegistry()
        serving, summed = self._serving_stat, self._summed_stat
        for kind, name, stat, key, description in (
            ("counter", "samples", serving, "samples_ingested",
             "samples on the serving member"),
            ("gauge", "series", serving, "series", "series on the serving member"),
            ("gauge", "down_members", summed, "down_members", "members currently down"),
            ("gauge", "missed_writes", summed, "missed_writes",
             "samples members lack from writes missed while down"),
            ("gauge", "dropped_writes", summed, "dropped_writes",
             "samples members lack from writes they shed"),
            ("gauge", "lost_samples", summed, "lost_samples",
             "written samples no member holds"),
            ("counter", "failover_reads", summed, "failover_reads",
             "reads served by a non-primary member"),
            ("counter", "resync_failed", summed, "resync_failures",
             "revivals that found no healthy peer to resync from"),
            ("counter", "diverged_windows", summed, "diverged_windows",
             "divergent (series, window) pairs detected"),
            ("counter", "repaired_windows", summed, "repaired_windows",
             "divergent windows repaired by anti-entropy"),
            ("counter", "repaired_samples", summed, "repaired_samples",
             "samples copied to members by anti-entropy"),
        ):
            getattr(r, kind)(
                f"{prefix}.{name}", description, fn=functools.partial(stat, key)
            )
        return r


class ReplicaSet(ReplicaSetBase):
    """Primary + R replica stores for one shard, with read failover."""

    def __init__(
        self,
        shard_id: int,
        replication: int = 0,
        retention: Optional[float] = None,
        rollups: bool = False,
        archive: bool = False,
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
        self._writes = 0  # position of the latest write
        self._holes: List[Dict[int, _Hole]] = [{} for _ in self.members]

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

    def _revive(self, member: int, resync: bool) -> bool:
        stores = [
            s for i, s in enumerate(self.members) if i == member or not self._down[i]
        ]
        if not resync or len(stores) == 1:
            # With no healthy peer, a resync that would have mattered (the
            # member was down and has peers) fails: it serves stale data.
            if not (resync and self._down[member] and self.replication > 0):
                return False
            log.warning(
                "shard %d: revive(member=%d, resync=True) found no "
                "healthy peer; member re-enters service with stale data "
                "(%d samples missed while down)",
                self.shard_id, member, self.missed_writes[member],
            )
            return True
        # Cold-aware queries: decoded archive history (if any) plus hot.
        merged = [
            (name, _merge([s.query(name) for s in stores if name in s]))
            for name in sorted(set().union(*(s.names() for s in stores)))
        ]
        fresh = self.members[member] = self._rebuild(member)
        for name, (times, values) in merged:
            fresh.append_many(name, times, values)
        self._remeasure_holes(member, -np.inf, np.inf)
        return False

    def _rebuild(self, member: int) -> TimeSeriesStore:
        """An *empty* replacement for ``member``: its stale journal is
        wiped, since the merged history is re-journaled as it is written."""
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
        written.  Faults never raise: :meth:`_fan_out` records them."""
        if _OBS.enabled:
            with _OBS.tracer.span(
                "replica.write", sim_time=batch.time, shard=self.shard_id
            ) as sp:
                written = self._fan_out("ingest", topic, batch)
                sp.set_attr("written", written)
                return written
        return self._fan_out("ingest", topic, batch)

    def append_many(
        self, name: str, times: np.ndarray, values: np.ndarray
    ) -> None:
        """Deliver one series' samples as :meth:`ingest` delivers a batch."""
        self._fan_out("append_many", name, times, values)

    def _fan_out(self, op: str, *args, shed: bool = True) -> int:
        """Run one write on every member that takes it; returns copies written.

        The one fault rule of every write: the write takes the next
        position, and a down member misses it and a degraded member sheds
        it with its drop probability (unless ``shed`` is off, as for a
        journal replay) — each recorded as a hole at that position.
        """
        self._writes += 1
        written = 0
        for i, store in enumerate(self.members):
            if self._down[i]:
                kind = "missed"
            elif (
                shed
                and self._drop_fraction[i] > 0.0
                and self._drop_rng is not None
                and self._drop_rng.random() < self._drop_fraction[i]
            ):
                kind = "dropped"
            else:
                getattr(store, op)(*args)
                written += 1
                continue
            hole = _Hole.of(kind, op, args)
            if hole.samples:
                self._holes[i][self._writes] = hole
        return written

    def flush(self, name: Optional[str] = None) -> int:
        """Flush staged samples (of ``name``, or all) on healthy members."""
        return sum(
            store.flush(name)
            for i, store in enumerate(self.members)
            if not self._down[i]
        )

    # ------------------------------------------------------------------
    # Loss state: derived from the holes
    # ------------------------------------------------------------------
    def _live_holes(self) -> List[Dict[int, _Hole]]:
        """The holes, less those retention has aged out: with retention and
        no archive, a hole wholly below the newest member's ``latest_time``
        minus ``retention`` is history no member is meant to hold."""
        store = self.members[0]
        if store.retention is not None and store.archive is None:
            cutoff = max(m.latest_time for m in self.members) - store.retention
            for holes in self._holes:
                for pos in [pos for pos, h in holes.items() if h.t1 < cutoff]:
                    del holes[pos]
        return self._holes

    def _lacking(self, kind: str) -> List[int]:
        return [
            sum(h.samples for h in holes.values() if h.kind == kind)
            for holes in self._live_holes()
        ]

    def _lost(self) -> List[int]:
        """Per write every member lacks, the samples none holds: the fewest
        any member lacks, since members' gaps in one write nest."""
        first, *rest = self._live_holes()
        everywhere = set(first).intersection(*rest)
        return [min(h[pos].samples for h in self._holes) for pos in everywhere]

    missed_writes = property(lambda self: self._lacking("missed"))
    dropped_writes = property(lambda self: self._lacking("dropped"))
    lost_batches = property(lambda self: len(self._lost()))
    lost_samples = property(lambda self: sum(self._lost()))

    # ------------------------------------------------------------------
    # Anti-entropy: detect and repair divergence window by window
    # ------------------------------------------------------------------
    def _anti_entropy(self, window_s: float, now: Optional[float]) -> dict:
        result = {
            "diverged_windows": 0,
            "repaired_windows": 0,
            "repaired_samples": 0,
            "checked_series": 0,
            "member_repaired_samples": [0] * len(self.members),
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
        repaired = set()
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
                times, values = _merge([
                    s.window_data(name, window_s, w)
                    for s, pm in zip(stores, per_member) if pm[1]
                ])
                merged = window_checksums(times, values, window_s).get(w)
                for p, member_idx in enumerate(healthy):
                    if per_member[p] == merged:
                        continue
                    stores[p].replace_window(
                        name, w * window_s, (w + 1) * window_s, times, values
                    )
                    result["repaired_windows"] += 1
                    result["repaired_samples"] += int(times.size)
                    result["member_repaired_samples"][member_idx] += int(times.size)
                    repaired.add(member_idx)
        for member in repaired:
            self._remeasure_holes(member, floor_t, until)
        return result

    def _remeasure_holes(self, member: int, lo: float, hi: float) -> None:
        """Re-measure against the member's store its holes inside the
        repaired range ``[lo, hi)``: a repair only adds samples, so they
        shrink or close, and no other member's holes are affected."""
        holes = self._holes[member]
        for pos, hole in list(holes.items()):
            if hole.t0 < hi and lo <= hole.t1:
                lacked = hole.lacked_in(self.members[member])
                if lacked:
                    holes[pos] = hole._replace(samples=lacked)
                else:
                    del holes[pos]

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
        """The loss state of :data:`LOSS_COUNTERS` by name, plus each
        member's ``samples_ingested`` and ``series``."""
        out = {key: getattr(self, key) for key in LOSS_COUNTERS}
        for key in ("samples_ingested", "series"):
            out[key] = [
                self._member_stat(i, key) for i in range(len(self.members))
            ]
        return out

