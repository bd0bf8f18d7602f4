"""Shard worker process: ring consumer, columnar stager, command server.

Each worker owns one real :class:`~repro.telemetry.distributed.replica.ReplicaSet`
(primary + replicas) and runs a single loop that

1. drains its :class:`~repro.telemetry.runtime.ring.SampleRing` — the hot
   path — staging samples into per-shape columnar blocks
   (:class:`BlockStager`) that are applied to member stores in one
   vectorized ``append_many`` per series instead of the per-sample Python
   loop of the in-process path (this is where the parallel runtime's
   throughput win comes from, even on one core),
2. serves commands from the parent over a pipe (reads, flushes, fault
   injection, checkpoints, shutdown).  Every command carries the ring
   sequence the parent had published when it sent the command; the worker
   drains the ring to that point and flushes stagers before executing, so
   a read observes every batch acknowledged to the producer before it —
   queries are linearized against ingest despite the async transport.

Durability is selected by the parent:

* ``"none"`` — a slot is acknowledged as soon as it is applied; a worker
  crash loses the shard's in-memory contents (replayed data is only what
  is still unreclaimed in the ring).  Fast, honest, counted.
* ``"wal"`` — every applied ring slot is framed into a per-shard
  write-ahead journal (:mod:`repro.telemetry.durability`) *before* it is
  staged, and ``acked`` advances (every ``checkpoint_interval`` slots)
  only after the journal buffer reaches the OS — so acknowledgement costs
  one buffered file write, the ring retains everything newer, and the
  columnar stager batches freely between acks.  A restarted worker
  replays the journal into its healthy members (periodic MARK records
  anchor journal records to ring sequences) and then resumes the ring
  from the journal frontier — no acknowledged batch is ever lost.
  Explicit checkpoints persist ``.npz`` snapshots when a
  ``checkpoint_dir`` is configured, and prune journal segments wholly
  covered by the snapshot; recovery then replays only the journal suffix
  on top of the reloaded snapshot.

When any member is down or degraded the stager is flushed and ingest falls
back to per-slot :meth:`ReplicaSet.ingest`, so fault bookkeeping
(``missed_writes``/``dropped_writes``/``lost_batches``) is sample-exact
and identical to the in-process tier.
"""

from __future__ import annotations

import gc
import json
import os
import traceback
from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ioutil import atomic_write_json
from repro.telemetry.distributed.replica import ReplicaSet
from repro.telemetry.durability import (
    JournalConfig,
    RecoveryStats,
    WriteAheadJournal,
    iter_records,
    read_watermark,
)
from repro.telemetry.persistence import load_store, save_store
from repro.telemetry.runtime.ring import SampleRing
from repro.telemetry.sample import SampleBatch
from repro.telemetry.store import TimeSeriesStore

__all__ = ["BlockStager", "ShardWorker", "worker_main"]

#: Flush a shape's block once it stages this many samples (rows × series).
_BLOCK_SAMPLE_CAP = 1 << 20
#: Hard row cap per block regardless of width.
_BLOCK_ROW_CAP = 8192


class _Block:
    """Columnar staging for one registered name-tuple: times + row matrix."""

    __slots__ = ("names", "times", "rows", "n", "overwrites")

    def __init__(self, names: Tuple[str, ...], capacity: int = 64):
        self.names = names
        self.times = np.empty(capacity, dtype=np.float64)
        self.rows = np.empty((capacity, len(names)), dtype=np.float64)
        self.n = 0
        self.overwrites = 0

    def push(self, time: float, values: np.ndarray) -> bool:
        """Stage one batch row; returns False on out-of-order time."""
        n = self.n
        if n:
            last = self.times[n - 1]
            if time == last:
                # Last writer wins, exactly like store staging.
                self.rows[n - 1] = values
                self.overwrites += len(self.names)
                return True
            if time < last:
                return False
        if n == self.times.shape[0]:
            cap = n * 2
            times = np.empty(cap, dtype=np.float64)
            rows = np.empty((cap, len(self.names)), dtype=np.float64)
            times[:n] = self.times[:n]
            rows[:n] = self.rows[:n]
            self.times, self.rows = times, rows
        self.times[n] = time
        self.rows[n] = values
        self.n = n + 1
        return True

    @property
    def staged_samples(self) -> int:
        return self.n * len(self.names)


class BlockStager:
    """Per-shape columnar staging with cross-shape conflict flushing.

    Scrapes re-publish the same name tuple every period, so staging by
    registered shape id turns ingest into one row write per batch.  Two
    shapes sharing a series name must not interleave unflushed (per-series
    order would be lost), so staging into shape X first flushes any active
    block whose name set overlaps X's — overlap is computed once per shape
    pair and cached.
    """

    def __init__(self, replica_set: ReplicaSet):
        self._rs = replica_set
        self._names: Dict[int, Tuple[str, ...]] = {}
        self._name_sets: Dict[int, frozenset] = {}
        self._blocks: Dict[int, _Block] = {}
        self._overlap: Dict[Tuple[int, int], bool] = {}
        self.errors = 0

    def register(self, names_id: int, names: Tuple[str, ...]) -> None:
        self._names[names_id] = tuple(names)
        self._name_sets[names_id] = frozenset(names)

    def knows(self, names_id: int) -> bool:
        return names_id in self._names

    def names_for(self, names_id: int) -> Tuple[str, ...]:
        return self._names[names_id]

    def _conflicts(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        hit = self._overlap.get(key)
        if hit is None:
            hit = self._overlap[key] = not self._name_sets[a].isdisjoint(
                self._name_sets[b]
            )
        return hit

    def stage(self, names_id: int, time: float, values: np.ndarray) -> None:
        """Stage one ring slot (hot path)."""
        block = self._blocks.get(names_id)
        if block is None:
            for other_id in [
                i for i in self._blocks if self._conflicts(names_id, i)
            ]:
                self.flush_block(other_id)
            block = self._blocks[names_id] = _Block(self._names[names_id])
        if not block.push(time, values):
            # Out-of-order inside the async path cannot propagate to the
            # publisher; count and drop rather than kill the worker.
            self.errors += 1
            return
        if (
            block.staged_samples >= _BLOCK_SAMPLE_CAP
            or block.n >= _BLOCK_ROW_CAP
        ):
            self.flush_block(names_id)

    def flush_block(self, names_id: int) -> None:
        block = self._blocks.pop(names_id, None)
        if block is None or not block.n:
            return
        times = block.times[: block.n]
        rows = block.rows[: block.n]
        rs = self._rs
        if any(rs._down):
            # Defensive: blocks never accumulate while a fault is active,
            # but if one is flushed into a degraded set anyway, go through
            # the replica layer so missed-write accounting stays exact.
            for j, name in enumerate(block.names):
                try:
                    rs.append_many(name, times, rows[:, j])
                except Exception:
                    self.errors += 1
        else:
            # All members healthy: one columnar apply per member replaces
            # len(names) per-series calls — the fleet-scrape fast path.
            for member in rs.members:
                try:
                    member.append_block(block.names, times, rows)
                except Exception:
                    self.errors += 1
        if block.overwrites:
            # append_many counts appended rows; the in-process staged path
            # counts every sample of every batch including last-writer-wins
            # overwrites.  Re-add the difference so samples_ingested agrees
            # with the in-process tier.
            for i, member in enumerate(rs.members):
                if not rs.is_down(i):
                    member.samples_ingested += block.overwrites

    def flush(self) -> None:
        for names_id in list(self._blocks):
            self.flush_block(names_id)

    @property
    def staged_samples(self) -> int:
        return sum(b.staged_samples for b in self._blocks.values())


class ShardWorker:
    """The event loop run inside each shard worker process."""

    def __init__(
        self,
        shard_id: int,
        ring: SampleRing,
        conn,
        replication: int,
        store_config: dict,
        durability: str = "none",
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 256,
        names_table: Optional[Dict[int, Tuple[str, ...]]] = None,
        fault_state: Optional[dict] = None,
    ):
        self.shard_id = shard_id
        self.ring = ring
        self.conn = conn
        self.durability = durability
        self.checkpoint_dir = checkpoint_dir
        # An ack must trigger well before the ring fills, or the producer
        # would block on unacked slots that can only be released by an ack
        # that never comes.
        self.checkpoint_interval = min(
            checkpoint_interval, max(1, ring.capacity // 2)
        )
        # The shard journal replaces per-member journaling inside workers:
        # one WAL covers the whole replica set (members hold identical
        # data), so the member stores are built journal-free.
        store_config = dict(store_config)
        journal = store_config.pop("journal", None)
        self.wal: Optional[WriteAheadJournal] = None
        self._wal_cfg: Optional[JournalConfig] = None
        self._wal_names: set = set()
        self.recovery: Optional[RecoveryStats] = None
        if durability == "wal":
            if journal is not None:
                wal_dir = os.path.join(
                    journal["base_dir"], f"shard{shard_id}", "wal"
                )
                tuning = {
                    k: journal[k]
                    for k in (
                        "segment_max_bytes",
                        "sync",
                        "sync_interval_s",
                        "group_bytes",
                    )
                    if k in journal
                }
            elif checkpoint_dir:
                wal_dir, tuning = os.path.join(checkpoint_dir, "wal"), {}
            else:
                raise ValueError(
                    "durability='wal' requires a journal base dir or a "
                    "checkpoint_dir"
                )
            self._wal_cfg = JournalConfig(dir=wal_dir, **tuning)
        self.rs = ReplicaSet(
            shard_id,
            replication,
            store_factory=lambda: TimeSeriesStore(**store_config),
        )
        self.stager = BlockStager(self.rs)
        self._degrade_rng: Optional[np.random.Generator] = None
        self.slots_applied = 0
        self.slots_replayed = 0
        self._running = True
        self._pending: deque = deque()
        # Restart support: a replacement worker receives the parent's full
        # name-interning table and fault-state mirror up front, because the
        # ring may already hold slots to replay that reference shapes (and
        # fault semantics) registered with the previous incarnation.
        for names_id, names in (names_table or {}).items():
            self.stager.register(names_id, tuple(names))
        if fault_state:
            for member, down in enumerate(fault_state.get("down", [])):
                if down:
                    self.rs.mark_down(member)
            fractions = fault_state.get("drop_fraction", [])
            if any(f > 0.0 for f in fractions):
                self._degrade_rng = np.random.default_rng(
                    fault_state.get("degrade_seed", 0)
                )
                for member, fraction in enumerate(fractions):
                    if fraction > 0.0:
                        self.rs.degrade(fraction, self._degrade_rng, member)

    # ------------------------------------------------------------------
    # Recovery / checkpointing
    # ------------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.checkpoint_dir, "manifest.json")

    def _member_path(self, member: int) -> str:
        return os.path.join(self.checkpoint_dir, f"member{member}.npz")

    def _load_manifest(self) -> Optional[dict]:
        if not self.checkpoint_dir:
            return None
        manifest = self._manifest_path()
        if not os.path.exists(manifest):
            return None
        with open(manifest) as fh:
            meta = json.load(fh)
        for i in range(len(self.rs.members)):
            path = self._member_path(i)
            if os.path.exists(path):
                self.rs.members[i] = load_store(path)
        return meta

    def recover(self) -> None:
        """Resume the consumer cursor; reload durable state if any exists.

        Under ``"wal"`` durability the journal is replayed on top of the
        (optional) checkpoint and ring replay resumes from
        ``max(acked, journal frontier)`` — this also covers a crash that
        landed between a journal flush and advancing ``acked``.
        """
        resume = self.ring.acked
        if self.durability == "wal":
            resume = max(resume, self._recover_wal())
            self.wal = WriteAheadJournal(self._wal_cfg)
            # Anchor this incarnation's records: batches that follow map to
            # ring sequences counted up from this mark.
            self.wal.append_mark(resume)
            self.wal.flush()
        if resume > self.ring.acked:
            self.ring.mark_acked(resume)
        self.slots_replayed = self.ring.head - resume
        self.ring.reset_consumer(resume)

    def _recover_wal(self) -> int:
        """Replay the shard journal into healthy members; return the ring
        sequence the journal covers.

        MARK records carry the ring sequence acknowledged when they were
        written; each BATCH record between marks advances the position by
        one slot, so the journal frontier is exact even after a torn tail.
        Records at or below the checkpoint's ``wal_seq`` are already inside
        the reloaded ``.npz`` snapshot and are skipped.  Replay stops at
        the first sequence gap (damage mid-journal): everything past it is
        left to the ring replay window, which still covers ``[acked, head)``.
        """
        stats = RecoveryStats()
        self.recovery = stats
        base_seq = 0
        wal_cut = read_watermark(self._wal_cfg.dir)
        meta = self._load_manifest()
        if meta is not None:
            base_seq = int(meta.get("seq", 0))
            wal_cut = max(wal_cut, int(meta.get("wal_seq", 0)))
        healthy = [
            m for i, m in enumerate(self.rs.members) if not self.rs.is_down(i)
        ]
        resume = base_seq
        pos: Optional[int] = None
        expected: Optional[int] = None
        pend_id: Optional[int] = None
        pend_times: list = []
        pend_rows: list = []

        def flush_pending() -> None:
            nonlocal pend_id
            if pend_id is None or not pend_times:
                pend_id = None
                return
            times = np.asarray(pend_times, dtype=np.float64)
            rows = np.vstack(pend_rows)
            names = self.stager.names_for(pend_id)
            for member in healthy:
                member.append_block(names, times, rows)
            pend_id = None
            pend_times.clear()
            pend_rows.clear()

        for rec in iter_records(
            self._wal_cfg.dir, stats=stats, min_seq=wal_cut
        ):
            kind, seq = rec[0], rec[1]
            if kind == "names" and seq <= wal_cut:
                # Interning records below the watermark are re-yielded so
                # later batches stay resolvable; they sit outside the
                # contiguous above-watermark chain, so register them
                # without touching the gap check.
                self.stager.register(rec[2], tuple(rec[3]))
                continue
            if expected is not None and seq != expected:
                break
            expected = seq + 1
            if kind == "names":
                self.stager.register(rec[2], tuple(rec[3]))
            elif kind == "mark":
                flush_pending()
                pos = int(rec[2])
                resume = max(resume, pos)
            elif kind == "batch":
                _, _, names_id, time, values = rec
                if pos is None:
                    # The anchoring mark was pruned with its segment at the
                    # last checkpoint; batches resume exactly at its seq.
                    pos = base_seq
                if pos >= base_seq:
                    if not self.stager.knows(names_id):
                        # The NAMES record for this id was lost with the
                        # damaged prefix: treat it like a sequence gap and
                        # stop, so the remaining slots fall back to ring
                        # replay instead of being advanced past as applied.
                        break
                    if pend_id != names_id:
                        flush_pending()
                        pend_id = names_id
                    pend_times.append(time)
                    pend_rows.append(values)
                pos += 1
                resume = max(resume, pos)
            elif kind == "many":
                flush_pending()
                _, _, name, times, values = rec
                for member in healthy:
                    member.append_many(name, times, values)
        flush_pending()
        return resume

    def _wal_ack(self) -> int:
        """Acknowledge everything applied: one MARK plus a buffer flush.

        The flush hands the journal to the OS, which survives a worker
        kill (the crash model restarts cover); the sync policy in the
        journal config governs fsync cadence for power-loss durability.
        """
        applied = self.ring.applied
        self.wal.append_mark(applied)
        self.wal.flush()
        self.ring.mark_acked(applied)
        return applied

    def checkpoint(self) -> int:
        """Flush everything and persist member stores; advance ``acked``.

        Returns the acknowledged sequence.  Under ``"wal"`` durability the
        journal is flushed first; the ``.npz`` snapshot is written only
        when a ``checkpoint_dir`` is configured, and only after its
        manifest (the commit record) is fully written are the journal
        segments it covers pruned, so a crash mid-checkpoint recovers from
        the previous snapshot plus the journal.
        """
        applied = self.ring.applied
        self.stager.flush()
        self.rs.flush()
        if self.wal is not None:
            self.wal.append_mark(applied)
            wal_seq = self.wal.flush()
            if self.checkpoint_dir:
                os.makedirs(self.checkpoint_dir, exist_ok=True)
                for i, member in enumerate(self.rs.members):
                    save_store(member, self._member_path(i))
                atomic_write_json(
                    self._manifest_path(),
                    {
                        "seq": applied,
                        "shard": self.shard_id,
                        "wal_seq": wal_seq,
                    },
                )
                # Pass the journaled interning table: pruning may delete
                # the segments holding the original NAMES records while
                # post-checkpoint batches still reference those ids.
                self.wal.mark_durable(
                    wal_seq,
                    names={
                        nid: self.stager.names_for(nid)
                        for nid in sorted(self._wal_names)
                    },
                )
        self.ring.mark_acked(applied)
        return applied

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @property
    def _fault_active(self) -> bool:
        return any(self.rs._down) or any(
            f > 0.0 for f in self.rs._drop_fraction
        )

    def _resolve_names(self, names_id: int) -> None:
        """Wait for an in-flight shape registration.

        The parent always sends ``("reg", …)`` down the pipe *before*
        pushing any slot that references the shape, but the ring drain can
        outrun the pipe read — so an unknown id means the registration is
        already in flight: pull pipe messages (stashing any command for the
        serve loop) until it lands.
        """
        while not self.stager.knows(names_id):
            if self.conn.poll(5.0):
                msg = self.conn.recv()
                if msg[0] == "reg":
                    self.stager.register(msg[1], tuple(msg[2]))
                else:
                    self._pending.append(msg)
            else:
                raise KeyError(
                    f"shard {self.shard_id}: names_id {names_id} was never "
                    "registered"
                )

    def _apply_slot(self, seq: int) -> None:
        names_id, time, values = self.ring.read_slot(seq)
        if not self.stager.knows(names_id):
            self._resolve_names(names_id)
        if self.wal is not None:
            # Journal before mutate: the WAL record is the durable copy of
            # this slot until the next checkpoint, including slots a down
            # member misses (replay only feeds healthy members, mirroring
            # the fault accounting taken below).
            if names_id not in self._wal_names:
                self.wal.append_names(
                    names_id, self.stager.names_for(names_id)
                )
                self._wal_names.add(names_id)
            self.wal.append_batch(names_id, time, values)
        if self._fault_active:
            # Exact per-batch fault bookkeeping: go through the replica
            # set's own ingest so missed/dropped/lost counters match the
            # in-process tier sample for sample.
            self.stager.flush()
            names = self.stager.names_for(names_id)
            try:
                self.rs.ingest("", SampleBatch(time, names, values.copy()))
            except Exception:
                self.stager.errors += 1
        else:
            self.stager.stage(names_id, time, values)
        self.slots_applied += 1

    def drain(self, upto: Optional[int] = None) -> int:
        """Apply ring slots up to ``upto`` (default: everything pushed)."""
        target = self.ring.head if upto is None else upto
        seq = self.ring.applied
        applied = 0
        instant_ack = self.durability == "none"
        while seq < target:
            self._apply_slot(seq)
            seq += 1
            self.ring.mark_applied(seq)
            if instant_ack:
                # Ack per slot so a producer blocked on a full ring sees
                # space free up mid-drain.
                self.ring.mark_acked(seq)
            applied += 1
        if (
            applied
            and not instant_ack
            and seq - self.ring.acked >= self.checkpoint_interval
        ):
            self._wal_ack()
        return applied

    # ------------------------------------------------------------------
    # Command server
    # ------------------------------------------------------------------
    def _stat(self, member: int, attr: str) -> float:
        store = self.rs.members[member]
        if attr == "len":
            return float(len(store))
        return float(getattr(store, attr))

    def _rs_stats(self) -> dict:
        return {
            "down": list(self.rs._down),
            "drop_fraction": list(self.rs._drop_fraction),
            "missed_writes": list(self.rs.missed_writes),
            "dropped_writes": list(self.rs.dropped_writes),
            "lost_batches": self.rs.lost_batches,
            "lost_samples": self.rs.lost_samples,
            "failover_reads": self.rs.failover_reads,
            "resync_failures": getattr(self.rs, "resync_failures", 0),
            "samples_ingested": [m.samples_ingested for m in self.rs.members],
            "series": [len(m) for m in self.rs.members],
            "latest_time": [m.latest_time for m in self.rs.members],
            "slots_applied": self.slots_applied,
            "slots_replayed": self.slots_replayed,
            "stager_errors": self.stager.errors,
            "staged_samples": self.stager.staged_samples,
            "anti_entropy_sweeps": self.rs.anti_entropy_sweeps,
            "diverged_windows": self.rs.diverged_windows,
            "repaired_windows": self.rs.repaired_windows,
            "repaired_samples": list(self.rs.repaired_samples),
            "recovered_samples": (
                self.recovery.replayed_samples if self.recovery else 0
            ),
            "wal_records": self.wal.records if self.wal else 0,
            "wal_bytes": self.wal.bytes_written if self.wal else 0,
        }

    def _execute(self, op: str, payload: tuple):
        rs = self.rs
        if op == "ping":
            return "pong"
        if op == "query":
            member, name, since, until = payload
            t, v = rs.members[member].query(name, since, until)
            return t.copy(), v.copy()
        if op == "series":
            member, name = payload
            buf = rs.members[member].series(name)
            return buf.times.copy(), buf.values.copy()
        if op == "names":
            return rs.members[payload[0]].names()
        if op == "select":
            member, pattern = payload
            return rs.members[member].select(pattern)
        if op == "contains":
            member, name = payload
            return name in rs.members[member]
        if op == "latest":
            member, name = payload
            return rs.members[member].latest(name)
        if op == "value_at":
            member, name, time = payload
            return rs.members[member].value_at(name, time)
        if op == "resample":
            member, name, since, until, step, agg = payload
            grid, vals = rs.members[member].resample(
                name, since, until, step, agg=agg
            )
            return grid, vals
        if op == "resample_column":
            member, name, since, until, step, agg, edges = payload
            return rs.members[member].resample_column(
                name, since, until, step, agg, edges
            )
        if op == "align":
            member, names, since, until, step, agg, fill = payload
            grid, matrix = rs.members[member].align(
                names, since, until, step, agg=agg, fill=fill
            )
            return grid, matrix
        if op == "stat":
            return self._stat(*payload)
        if op == "version":
            return tuple(rs.members[payload[0]].version_stamp())
        if op == "member_flush":
            member, name = payload
            return rs.members[member].flush(name)
        if op == "flush":
            return rs.flush()
        if op == "append":
            name, time, value = payload
            if self.wal is not None:
                self.wal.append_many(name, (float(time),), (float(value),))
            rs.append(name, time, value)
            return None
        if op == "append_many":
            name, times, values = payload
            if self.wal is not None:
                self.wal.append_many(name, times, values)
            rs.append_many(name, times, values)
            return None
        if op == "mark_down":
            self.stager.flush()
            rs.mark_down(payload[0])
            return None
        if op == "degrade":
            member, fraction, seed = payload
            self.stager.flush()
            if self._degrade_rng is None:
                self._degrade_rng = np.random.default_rng(seed)
            rs.degrade(fraction, self._degrade_rng, member)
            return None
        if op == "revive":
            member, resync = payload
            rs.revive(member, resync=resync)
            return None
        if op == "rs_stats":
            return self._rs_stats()
        if op == "anti_entropy":
            window_s, now = payload
            self.stager.flush()
            return rs.anti_entropy(window_s=window_s, now=now)
        if op == "sync_journal":
            if self.wal is None:
                return 0
            self.stager.flush()
            return self.wal.sync()
        if op == "checkpoint":
            return self.checkpoint()
        if op == "crash":
            # Chaos hook: die like a SIGKILLed daemon — no flush, no
            # checkpoint, no reply.
            os._exit(17)
        if op == "stop":
            self.checkpoint()
            if self.wal is not None:
                self.wal.close()
            self._running = False
            return self.slots_applied
        raise ValueError(f"unknown worker op {op!r}")

    def _serve_one(self, msg) -> None:
        kind = msg[0]
        if kind == "reg":
            _, names_id, names = msg
            self.stager.register(names_id, tuple(names))
            return
        _, seq, op, payload = msg
        # Linearize: apply everything the parent had pushed before this
        # command, then make it visible to reads.
        self.drain(upto=max(seq, self.ring.applied))
        self.stager.flush()
        try:
            result = self._execute(op, payload)
        except Exception as exc:  # propagate as (type, message)
            self.conn.send(
                ("err", type(exc).__name__, f"{exc}", traceback.format_exc())
            )
            return
        self.conn.send(("ok", result))

    def run(self) -> None:
        self.recover()
        conn = self.conn
        ring = self.ring
        while self._running:
            if self._pending:
                self._serve_one(self._pending.popleft())
                continue
            if ring.applied < ring.head:
                self.drain()
                if conn.poll(0):
                    self._serve_one(conn.recv())
                continue
            # Idle: the poll timeout doubles as the sleep — no busy wait.
            if conn.poll(0.002):
                self._serve_one(conn.recv())


def worker_main(
    shard_id: int,
    ring: SampleRing,
    conn,
    replication: int,
    store_config: dict,
    durability: str,
    checkpoint_dir: Optional[str],
    checkpoint_interval: int,
    names_table: Optional[Dict[int, Tuple[str, ...]]] = None,
    fault_state: Optional[dict] = None,
) -> None:
    """Process entry point for one shard worker."""
    # Freeze the heap inherited from the fork: the parent may be large, and
    # without this every worker's GC cycles walk (and copy-on-write dirty)
    # the whole inherited object graph — ruinous with many workers sharing
    # one core.  Frozen objects are permanent here; the worker's own
    # allocations are still collected normally.
    gc.freeze()
    worker = ShardWorker(
        shard_id,
        ring,
        conn,
        replication,
        store_config,
        durability=durability,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        names_table=names_table,
        fault_state=fault_state,
    )
    try:
        worker.run()
    except (KeyboardInterrupt, EOFError, BrokenPipeError):
        pass
