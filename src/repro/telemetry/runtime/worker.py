"""Shard worker process: ring consumer and command server.

Each worker owns one real :class:`~repro.telemetry.distributed.replica.ReplicaSet`
(primary + replicas) and runs a single loop that

1. drains its :class:`~repro.telemetry.runtime.ring.SampleRing` — the hot
   path — handing every slot to :meth:`ReplicaSet.ingest` as a
   :class:`~repro.telemetry.sample.SampleBatch`, so each member store
   stages it in its per-shape columnar block exactly like the in-process
   tier, and the holes a down or degraded member leaves are the replica
   set's own, sample for sample,
2. serves commands from the parent over a pipe.  The command set is
   :data:`OPS`: one ``member`` command reads a member store (it calls or
   reads one attribute named in :data:`MEMBER_CALLS` on one member and
   replies with the result), and the rest drive the replica set itself —
   flush, journaled appends, fault injection, anti-entropy, stats, journal
   sync and shutdown.  Every command carries the ring sequence the parent
   had published when it sent the command; the worker drains the ring to
   that point before executing, and member stores flush staged rows on
   read, so a read observes every batch acknowledged to the producer
   before it — queries are linearized against ingest despite the async
   transport.  A failed command replies with its exception, which the
   parent raises as it is (an error outside :mod:`repro.errors` arrives as
   a :class:`~repro.errors.StoreError` carrying its message).

Without a journal in the store config a slot is acknowledged as soon as
it is applied, and a worker crash loses the shard's in-memory contents
(only what is still unreclaimed in the ring replays, and only that is in
the replacement's holes).  With a journal every applied ring slot is
framed into a per-shard write-ahead journal
(:mod:`repro.telemetry.durability`) *before* it is ingested, and
``acked`` advances only after the journal buffer reaches the OS — so
acknowledgement costs one buffered file write, the ring retains
everything newer, and member stores stage freely between acks.  Acks
fall at fixed ring positions (every :data:`ACK_INTERVAL` slots from where
the worker resumed), so the journal's records do not depend on how the
ring happened to be drained.  A restarted worker replays the journal
through the replica set's fan-out with shedding off (MARK records anchor
batch records to ring sequences), which leaves a member down at the
restart a hole for each write, and then resumes the ring from the journal
frontier — no acknowledged batch is ever lost.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError, StoreError
from repro.telemetry.distributed.replica import ReplicaSet
from repro.telemetry.durability import (
    RecoveryStats,
    WriteAheadJournal,
    iter_records,
    journal_dir,
)
from repro.telemetry.runtime.ring import SampleRing
from repro.telemetry.sample import SampleBatch

__all__ = ["ACK_INTERVAL", "MEMBER_CALLS", "OPS", "ShardWorker", "worker_main"]

#: Applied slots between journal acknowledgements (journaled shards only).
ACK_INTERVAL = 64

#: The commands a worker serves; ``op`` runs ``ShardWorker._<op>`` with the
#: command's payload as its arguments.  (``reg`` is not a command: it
#: carries no ring sequence and gets no reply.)
OPS = (
    "ping", "member", "flush", "append_many", "mark_down", "degrade",
    "revive", "rs_stats", "anti_entropy", "sync_journal", "crash", "stop",
)

#: What the ``member`` command may call or read on a member store: the read
#: surface, ``flush``, the stat attributes and ``retention``.  Anything else
#: is refused, so the pipe never reaches a member's write or repair path
#: around the replica set's fault bookkeeping.  This is the one declaration
#: of the member surface: the parent's ``RemoteStoreProxy`` is generated
#: from it.
MEMBER_CALLS = frozenset({
    "query", "series", "names", "select", "latest", "value_at", "resample",
    "resample_column", "align", "flush", "__len__", "__contains__",
    "version_stamp", "retention", "samples_ingested", "staged_samples",
    "latest_time",
})


class ShardWorker:
    """The event loop run inside each shard worker process.

    ``names_table`` and ``fault_state`` are passed to a replacement for a
    dead worker; a first start gets neither and finds its ring fresh.
    """

    def __init__(
        self,
        shard_id: int,
        ring: SampleRing,
        conn,
        replication: int,
        store_config: dict,
        names_table: Optional[Dict[int, Tuple[str, ...]]] = None,
        fault_state: Optional[dict] = None,
    ):
        self.shard_id = shard_id
        self.ring = ring
        self.conn = conn
        self._fresh_ring = names_table is None
        # An ack must trigger well before the ring fills, or the producer
        # would block on unacked slots that can only be released by an ack
        # that never comes.
        self.ack_interval = min(ACK_INTERVAL, max(1, ring.capacity // 2))
        # The shard journal replaces per-member journaling inside workers:
        # one WAL covers the whole replica set (members hold identical
        # data), so the member stores are built journal-free.
        store_config = dict(store_config)
        journal = store_config.pop("journal", None)
        self.wal: Optional[WriteAheadJournal] = None
        self._wal_dir: Optional[str] = None
        self._wal_names: set = set()
        self.recovery: Optional[RecoveryStats] = None
        if journal is not None:
            self._wal_dir = journal_dir(journal, shard_id)
        self.rs = ReplicaSet(shard_id, replication, **store_config)
        self._degrade_rng: Optional[np.random.Generator] = None
        self.slots_applied = 0
        self._resumed_at = 0
        self.slots_replayed = 0
        self.ingest_errors = 0
        self._running = True
        self._pending: deque = deque()
        # Restart support: a replacement worker receives the parent's full
        # name-interning table and fault-state mirror up front, because the
        # ring may already hold slots to replay that reference shapes (and
        # fault semantics) registered with the previous incarnation.
        self._names: Dict[int, Tuple[str, ...]] = dict(names_table or {})
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
    # Recovery / acknowledgement
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Replay the journal (if any) and resume the consumer cursor.

        Ring replay resumes from ``max(acked, journal frontier)`` — this
        also covers a crash that landed between a journal flush and
        advancing ``acked``.  A fresh ring continues the journal's
        sequence, so ring positions stay comparable across restarts of
        the owning process; the parent pushes nothing into a journaled
        ring before this has run.
        """
        resume = self.ring.acked
        if self._wal_dir is not None:
            resume = max(resume, self._recover_wal())
            if self._fresh_ring:
                self.ring.rebase(resume)
            self.wal = WriteAheadJournal(self._wal_dir)
            # Anchor this incarnation's records: batches that follow map to
            # ring sequences counted up from this mark.
            self.wal.append_mark(resume)
            self.wal.flush()
        if resume > self.ring.acked:
            self.ring.mark_acked(resume)
        self._resumed_at = resume
        self.slots_replayed = self.ring.head - resume
        self.ring.reset_consumer(resume)

    def _recover_wal(self) -> int:
        """Replay the shard journal through the replica set; return the
        ring sequence the journal covers.

        A MARK record carries a ring sequence and each BATCH record after
        it is the next slot, so a batch's position is known while no
        sequence gap separates it from a mark.  Damage mid-journal leaves
        a gap, and positions stay unknown until the next MARK: if that
        mark is at or below ``acked`` (or the ring is fresh) the ring no
        longer holds those slots and replay continues from it; otherwise
        replay stops, because the ring still holds every slot from
        ``acked`` on.  A mark below the replayed frontier — a later
        incarnation journaling the slots it replayed from the ring —
        skips the batches already applied.  A batch whose position is
        unknown is never applied.  Records go through the replica set's
        fan-out with shedding off, so replay accepts and refuses exactly
        what live ingest did; a refused record is counted in
        ``replay_conflicts``.
        """
        stats = RecoveryStats()
        self.recovery = stats
        reachable = float("inf") if self._fresh_ring else self.ring.acked
        resume = 0  # every slot below this is applied (or unrecoverable)
        pos: Optional[int] = None  # ring position of the next batch record
        expected: Optional[int] = None
        for rec in iter_records(self._wal_dir, stats=stats):
            kind, seq = rec[0], rec[1]
            if expected is not None and seq != expected:
                pos = None
            expected = seq + 1
            write = None
            if kind == "names":
                # Ids are global to the parent's interning table.
                self._names[rec[2]] = tuple(rec[3])
            elif kind == "mark":
                mark = int(rec[2])
                if pos is None and mark > reachable:
                    break
                pos = mark
                resume = max(resume, pos)
            elif pos is None:
                continue
            elif kind == "batch":
                if pos >= resume:
                    _, _, names_id, time, values = rec
                    names = self._names.get(names_id)
                    if names is None:
                        # The NAMES record for this id was lost with
                        # damage: stop, so the remaining slots fall back
                        # to ring replay instead of being passed over.
                        break
                    write = ("ingest", "", SampleBatch(time, names, values))
                pos += 1
                resume = max(resume, pos)
            elif kind == "many":
                _, _, name, times, values = rec
                write = ("append_many", name, times, values)
            if write is not None:
                try:
                    self.rs._fan_out(*write, shed=False)
                except StoreError:
                    stats.replay_conflicts += 1
        return resume

    def _wal_ack(self) -> None:
        """Acknowledge everything applied: one MARK plus a buffer flush.

        The flush hands the journal to the OS, which survives a worker
        kill (the crash model restarts cover); the journal's own fsync
        cadence governs power-loss durability.
        """
        applied = self.ring.applied
        self.wal.append_mark(applied)
        self.wal.flush()
        self.ring.mark_acked(applied)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _resolve_names(self, names_id: int) -> Tuple[str, ...]:
        """The names of a registered shape, waiting for an in-flight
        registration if needed.

        The parent always sends ``("reg", …)`` down the pipe *before*
        pushing any slot that references the shape, but the ring drain can
        outrun the pipe read — so an unknown id means the registration is
        already in flight: pull pipe messages (stashing any command for the
        serve loop) until it lands.
        """
        while names_id not in self._names:
            if self.conn.poll(5.0):
                msg = self.conn.recv()
                if msg[0] == "reg":
                    self._names[msg[1]] = tuple(msg[2])
                else:
                    self._pending.append(msg)
            else:
                raise KeyError(
                    f"shard {self.shard_id}: names_id {names_id} was never "
                    "registered"
                )
        return self._names[names_id]

    def _apply_slot(self, seq: int) -> None:
        names_id, time, values = self.ring.read_slot(seq)
        names = self._resolve_names(names_id)
        if self.wal is not None:
            # Journal before mutate: the WAL record is the durable copy of
            # this slot, including slots a down member misses.
            if names_id not in self._wal_names:
                self.wal.append_names(names_id, names)
                self._wal_names.add(names_id)
            self.wal.append_batch(names_id, time, values)
        try:
            # Member stores copy the row out of the ring slot when staging.
            self.rs.ingest("", SampleBatch(time, names, values))
        except StoreError:
            # Out-of-order inside the async path cannot propagate to the
            # publisher; count and drop rather than kill the worker.
            self.ingest_errors += 1
        self.slots_applied += 1

    def drain(self, upto: Optional[int] = None) -> None:
        """Apply ring slots up to ``upto`` (default: everything pushed).

        A journaled worker acknowledges inside the loop at fixed ring
        positions, every ``ack_interval`` slots from where it resumed, so
        the same slots give the same journal records however they were
        drained, and a producer blocked on a full ring sees space free up
        mid-drain.
        """
        target = self.ring.head if upto is None else upto
        seq = self.ring.applied
        while seq < target:
            self._apply_slot(seq)
            seq += 1
            self.ring.mark_applied(seq)
            if self.wal is None:
                self.ring.mark_acked(seq)
            elif (seq - self._resumed_at) % self.ack_interval == 0:
                self._wal_ack()

    # ------------------------------------------------------------------
    # Command server
    # ------------------------------------------------------------------
    def _rs_stats(self) -> dict:
        return {
            **self.rs.stats(),
            "slots_applied": self.slots_applied,
            "slots_replayed": self.slots_replayed,
            "ingest_errors": self.ingest_errors,
            "recovered_samples": (
                self.recovery.replayed_samples if self.recovery else 0
            ),
            "wal_records": self.wal.records if self.wal else 0,
            "wal_bytes": self.wal.bytes_written if self.wal else 0,
        }

    def _ping(self) -> str:
        return "pong"

    def _member(
        self, member: int, attr: str, args: tuple, kwargs: Optional[dict] = None
    ):
        if attr not in MEMBER_CALLS:
            raise StoreError(
                f"shard {self.shard_id}: member attribute {attr!r} is not "
                "served over the command pipe"
            )
        value = getattr(self.rs.members[member], attr)
        return value(*args, **(kwargs or {})) if callable(value) else value

    def _flush(self, name: Optional[str] = None) -> int:
        return self.rs.flush(name)

    def _append_many(self, name: str, times, values) -> None:
        if self.wal is not None:
            # The ring does not hold this write, so the journal must reach
            # the OS before the reply acknowledges it.
            self.wal.append_many(name, times, values)
            self.wal.flush()
        self.rs.append_many(name, times, values)

    def _mark_down(self, member: int) -> None:
        self.rs.mark_down(member)

    def _degrade(self, member: int, fraction: float, seed: int) -> None:
        if self._degrade_rng is None:
            self._degrade_rng = np.random.default_rng(seed)
        self.rs.degrade(fraction, self._degrade_rng, member)

    def _revive(self, member: int, resync: bool) -> bool:
        return self.rs.revive(member, resync=resync)

    def _anti_entropy(self, window_s: float, now: Optional[float]) -> dict:
        return self.rs.anti_entropy(window_s=window_s, now=now)

    def _sync_journal(self) -> int:
        return self.wal.sync() if self.wal is not None else 0

    def _crash(self) -> None:
        # Chaos hook: die like a SIGKILLed daemon — no flush, no ack, no
        # reply.
        os._exit(17)

    def _stop(self) -> int:
        self.rs.flush()
        if self.wal is not None:
            self._wal_ack()
            self.wal.close()
        self._running = False
        return self.slots_applied

    def _execute(self, op: str, payload: tuple):
        if op not in OPS:
            raise ValueError(f"unknown worker op {op!r}")
        return getattr(self, f"_{op}")(*payload)

    def _serve_one(self, msg) -> None:
        kind = msg[0]
        if kind == "reg":
            _, names_id, names = msg
            self._names[names_id] = tuple(names)
            return
        _, seq, op, payload = msg
        # Linearize: apply everything the parent had pushed before this
        # command; member stores flush staged rows on read.
        self.drain(upto=max(seq, self.ring.applied))
        try:
            reply = ("ok", self._execute(op, payload))
        except ReproError as exc:
            reply = ("err", exc)
        except Exception as exc:  # the worker keeps serving; the caller raises
            reply = ("err", StoreError(f"{exc}"))
        self.conn.send(reply)

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
        names_table=names_table,
        fault_state=fault_state,
    )
    try:
        worker.run()
    except (KeyboardInterrupt, EOFError, BrokenPipeError):
        pass
