"""Parent-side parallel shard runtime: producers, proxies, lifecycle.

:class:`ParallelShardRuntime` owns one worker process per shard (LDMS-style
daemon-per-partition aggregation), each fed by a shared-memory
:class:`~repro.telemetry.runtime.ring.SampleRing` and controlled over a
pipe.  The tier is a transport over the in-process classes: the worker
runs a real :class:`~repro.telemetry.distributed.replica.ReplicaSet`, and
the parent-side pieces only carry calls to it.

* :class:`ParallelReplicaSet` — the parent-side replica set.  Topology,
  read failover, degrade validation and the ``telemetry.shard.<i>.*``
  metrics are :class:`~repro.telemetry.distributed.replica.ReplicaSetBase`'s,
  shared with ``ReplicaSet``; writes go down the ring, and faults, flushes,
  journal syncs and repair sweeps are one command each.  The loss state is
  the worker replica set's (which a restarted worker rebuilds), read back
  by the names the replica module declares; the event counters are
  counted here, from each command's result, so no restart resets them.
* :class:`RemoteStoreProxy` — read-side stand-in for a member
  :class:`~repro.telemetry.store.TimeSeriesStore`, generated from the
  worker's ``MEMBER_CALLS`` allow-list.  Each member is one ``member``
  command that runs the same method on the worker's member store, so
  validation, errors, the rollup planner and the kernels are the store's
  own and federated results are bit-identical to the in-process path by
  construction; ``resample``/``align`` ship only the reduced buckets
  across the pipe.

Backpressure is explicit: a full ring makes the producer wait (bounded by
:data:`PUSH_TIMEOUT_S`) and then *drop and count* rather than raise — the
same never-raise write contract as the in-process replica tier — and every
state of the pipeline is observable via the ``telemetry.runtime.*``
registry (pushed/dropped batches, waits, backlog, worker crashes/restarts,
replayed slots).

Worker death is detected by :meth:`ParallelShardRuntime.check_workers`
(polled by the :class:`~repro.oda.supervision.Supervisor` watchdog once
wired via ``watch_runtime``) and heals by restarting the worker: the
replacement inherits the name-interning table and fault mirror, replays
its journal when the store config carries one, and replays the ring
window ``[acked, head)`` that the producer never reclaimed.

The runtime has no settings of its own: the constants below are what
every deployment runs with.
"""

from __future__ import annotations

import copy
import functools
import gc
import logging
import multiprocessing as mp
import threading
import time as _time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShardDownError, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.distributed.replica import LOSS_COUNTERS, ReplicaSetBase
from repro.telemetry.runtime.ring import SampleRing
from repro.telemetry.runtime.worker import MEMBER_CALLS, worker_main
from repro.telemetry.sample import SampleBatch
from repro.telemetry.store import TimeSeriesStore

__all__ = [
    "ParallelShardRuntime",
    "ParallelReplicaSet",
    "RemoteStoreProxy",
]

log = logging.getLogger(__name__)

#: Sleep while waiting out ring backpressure / command replies.
_POLL_S = 0.0005

#: Slots per shard ring: the backpressure horizon.
RING_CAPACITY = 256
#: Values per ring slot; wider batches chunk across slots.
SLOT_WIDTH = 4096
#: Seconds a push waits on a full ring before dropping the batch.
PUSH_TIMEOUT_S = 5.0
#: Seconds a command waits for its worker's reply.
COMMAND_TIMEOUT_S = 60.0


class RemoteStoreProxy:
    """Read-side view of one member store living in a worker process.

    Its surface is generated below from
    :data:`~repro.telemetry.runtime.worker.MEMBER_CALLS`: a name that is a
    :class:`~repro.telemetry.store.TimeSeriesStore` method becomes a method
    with that method's signature, any other name a read-only property.
    Each is one ``member`` command, run in the worker on its actual store —
    validation, errors and the rollup planner included — so anything
    computed from a proxy is bit-identical to computing it in-process.
    """

    def __init__(self, runtime: "ParallelShardRuntime", shard: int, member: int):
        self._runtime = runtime
        self._shard = shard
        self._index = member

    def _member(self, attr: str, args: tuple = (), kwargs: Optional[dict] = None):
        return self._runtime._call(
            self._shard, "member", (self._index, attr, args, kwargs)
        )


def _member_method(name: str):
    @functools.wraps(getattr(TimeSeriesStore, name))
    def call(self, *args, **kwargs):
        return self._member(name, args, kwargs)

    call.__qualname__ = f"RemoteStoreProxy.{name}"
    return call


def _member_property(name: str) -> property:
    return property(
        lambda self: self._member(name),
        doc=f"``{name}`` of the worker's member store.",
    )


for _name in sorted(MEMBER_CALLS):
    setattr(
        RemoteStoreProxy,
        _name,
        _member_method(_name)
        if callable(getattr(TimeSeriesStore, _name, None))
        else _member_property(_name),
    )


class ParallelReplicaSet(ReplicaSetBase):
    """Parent-side stand-in for one shard's :class:`ReplicaSet`.

    Routes by the runtime's mirror of the shard's fault topology
    (down/degraded members), so read routing and chaos targeting work
    without a round trip; every other
    operation is one command to the worker, whose real ``ReplicaSet``
    keeps the members' holes.  The loss state derived from them surfaces
    through the runtime's cached :meth:`ParallelShardRuntime.shard_stats`,
    under the attribute names :class:`ReplicaSet` keeps it under.
    """

    def __init__(self, runtime: "ParallelShardRuntime", shard_id: int):
        super().__init__(
            shard_id,
            [
                RemoteStoreProxy(runtime, shard_id, m)
                for m in range(runtime.replication + 1)
            ],
        )
        # Route by the runtime's fault mirror, which a restarted worker
        # inherits; the runtime keeps no reference back to this set.
        self._down = runtime._down[shard_id]
        self._drop_fraction = runtime._drop_fraction[shard_id]
        self._runtime = runtime

    def _call(self, op: str, *payload):
        return self._runtime._call(self.shard_id, op, payload)

    def _mutate(self, op: str, *payload):
        """A command that changes the worker's state (stats go stale)."""
        out = self._call(op, *payload)
        self._runtime._bump()
        return out

    # -- faults (mirrored here, forwarded to the worker) ----------------
    def mark_down(self, member: int = 0) -> None:
        self._mutate("mark_down", member)
        super().mark_down(member)

    def _degrade(
        self, drop_fraction: float, rng: np.random.Generator, member: int
    ) -> None:
        # The worker owns its own generator; hand it a seed drawn from the
        # caller's so chaos stays reproducible per run.
        seed = int(rng.integers(np.iinfo(np.int64).max))
        self._mutate("degrade", member, drop_fraction, seed)
        self._runtime._register_degrade_seed(self.shard_id, seed)

    def _revive(self, member: int, resync: bool) -> bool:
        return self._mutate("revive", member, resync)

    def _anti_entropy(self, window_s: float, now: Optional[float]) -> dict:
        # The sweep runs inside the worker; member data never crosses the
        # process boundary, only the summary does.
        return self._mutate("anti_entropy", window_s, now)

    # -- writes --------------------------------------------------------
    def ingest(self, topic: str, batch: SampleBatch) -> int:
        self._runtime.push(self.shard_id, batch)
        return self.healthy_members

    def append_many(
        self, name: str, times: np.ndarray, values: np.ndarray
    ) -> None:
        self._mutate(
            "append_many", name, np.asarray(times, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
        )

    def flush(self, name: Optional[str] = None) -> int:
        return self._call("flush", name)

    # -- durability and observability ----------------------------------
    def sync_journal(self) -> int:
        """Group-commit the shard's worker journal; its durable seq."""
        return self._call("sync_journal")

    @property
    def recovered_samples(self) -> int:
        """Samples the current worker incarnation replayed from its WAL."""
        return self.stats()["recovered_samples"]

    def stats(self) -> dict:
        """The worker's :meth:`ReplicaSet.stats` and slot/WAL counters."""
        return self._runtime.shard_stats(self.shard_id)

    def _member_stat(self, member: int, key: str):
        return self.stats()[key][member]


def _worker_loss(key: str) -> property:
    return property(
        lambda self: copy.copy(self.stats()[key]),
        doc=f"``{key}`` of the worker's replica set.",
    )


for _key in LOSS_COUNTERS:
    setattr(ParallelReplicaSet, _key, _worker_loss(_key))


class ParallelShardRuntime:
    """One worker process per shard, fed by shared-memory sample rings.

    ``store_config`` holds the member stores' keyword arguments; a
    ``journal`` entry (a base directory) makes every worker journal its
    slots to ``<base>/shard<i>/wal``
    (:func:`~repro.telemetry.durability.journal_dir`).

    The runtime holds no replica set: the owning ``ShardedStore`` builds
    one :class:`ParallelReplicaSet` per shard over it.  What those sets
    route by, the per-shard fault mirror, is the runtime's, because a
    restarted worker inherits it.  A runtime dropped without :meth:`close`
    is freed at once, and its finalizer ends the workers.
    """

    def __init__(
        self,
        shards: int,
        replication: int,
        store_config: dict,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.replication = replication
        self.store_config = dict(store_config)
        self._ctx = mp.get_context()
        self.rings: List[SampleRing] = [
            SampleRing(RING_CAPACITY, SLOT_WIDTH) for _ in range(shards)
        ]
        self._conns: List = [None] * shards
        self._procs: List = [None] * shards
        # One RPC lock per shard pipe: a command is a send-then-recv pair on
        # a Connection shared by every reader thread (the serving front
        # door's worker pool), so the pair must be atomic or replies
        # interleave across callers.  Per-shard, so fan-outs to different
        # shards still overlap.
        self._rpc_locks: List[threading.Lock] = [
            threading.Lock() for _ in range(shards)
        ]
        # Name interning: one global names-tuple table, lazily announced to
        # each worker the first time a shape heads its way.
        self._intern: Dict[Tuple[str, ...], int] = {}
        self._names_by_id: Dict[int, Tuple[str, ...]] = {}
        self._registered: List[set] = [set() for _ in range(shards)]
        self._chunks: Dict[Tuple[str, ...], List[Tuple[Tuple[str, ...], slice]]] = {}
        self._degrade_seeds: Dict[int, int] = {}
        # The fault mirror per shard: the down flags and drop fractions the
        # parent-side replica sets route by and a restarted worker inherits.
        self._down: List[List[bool]] = [
            [False] * (replication + 1) for _ in range(shards)
        ]
        self._drop_fraction: List[List[float]] = [
            [0.0] * (replication + 1) for _ in range(shards)
        ]
        # Counters behind the telemetry.runtime.* registry.
        self.pushed_batches = 0
        self.pushed_slots = 0
        self.backpressure_waits = 0
        self.dropped_batches = 0
        self.dropped_samples = 0
        self.worker_crashes = 0
        self.worker_restarts = 0
        self.replayed_slots = 0
        self._counted_dead: set = set()
        self._stats_cache: List[Optional[dict]] = [None] * shards
        self._stats_key: List[Tuple[int, int]] = [(-1, -1)] * shards
        self._mutations = 0
        self._closed = False
        for shard in range(shards):
            self._spawn(shard)
        if self.store_config.get("journal"):
            # A journaled worker first rebases its fresh ring onto the
            # journal's sequence; nothing may be pushed before it has.
            self.drain()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard: int, names_table: Optional[dict] = None) -> None:
        # Collect before forking so the child inherits as little garbage as
        # possible (the worker freezes the inherited heap at startup).
        gc.collect()
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                shard,
                self.rings[shard],
                child_conn,
                self.replication,
                self.store_config,
                names_table,
                self._fault_state(shard) if names_table is not None else None,
            ),
            name=f"repro-shard-worker-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc
        self._counted_dead.discard(shard)

    def _fault_state(self, shard: int) -> dict:
        return {
            "down": list(self._down[shard]),
            "drop_fraction": list(self._drop_fraction[shard]),
            "degrade_seed": self._degrade_seeds.get(shard, 0),
        }

    def _register_degrade_seed(self, shard: int, seed: int) -> None:
        self._degrade_seeds.setdefault(shard, seed)

    def worker_alive(self, shard: int) -> bool:
        proc = self._procs[shard]
        return proc is not None and proc.is_alive()

    def restart_worker(self, shard: int) -> None:
        """Replace a dead worker; the ring window ``[acked, head)`` replays.

        The replacement gets the complete interning table and the fault
        mirror up front (slots already in the ring reference them), and —
        when the store config carries a journal — replays it before the
        ring, so no acknowledged batch is lost.
        """
        proc = self._procs[shard]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        ring = self.rings[shard]
        self.replayed_slots += ring.head - ring.acked
        names_table = {
            i: self._names_by_id[i] for i in self._registered[shard]
        }
        self._spawn(shard, names_table=names_table)
        self.worker_restarts += 1
        self._bump()

    def check_workers(self, now: float = 0.0) -> List[int]:
        """Detect dead workers and restart them.

        Returns the shard ids found crashed on this sweep (the supervisor
        watchdog calls this every tick and traces what it returns).
        """
        if self._closed:
            return []
        crashed = []
        for shard in range(self.shards):
            if not self.worker_alive(shard):
                if shard in self._counted_dead:
                    continue  # already reported, not yet replaced
                self._counted_dead.add(shard)
                crashed.append(shard)
                self.worker_crashes += 1
                log.warning(
                    "shard %d worker died (exitcode %s)",
                    shard,
                    self._procs[shard].exitcode,
                )
                self.restart_worker(shard)
        if crashed:
            self._bump()
        return crashed

    def crash_worker(self, shard: int) -> None:
        """Chaos hook: make a worker die abruptly (no flush, no reply)."""
        if not self.worker_alive(shard):
            return
        conn = self._conns[shard]
        conn.send(("cmd", self.rings[shard].head, "crash", ()))
        self._procs[shard].join(timeout=5.0)
        self._bump()

    # ------------------------------------------------------------------
    # Ingest (producer side)
    # ------------------------------------------------------------------
    def _chunk_plan(
        self, names: Tuple[str, ...]
    ) -> List[Tuple[Tuple[str, ...], slice]]:
        plan = self._chunks.get(names)
        if plan is None:
            width = self.rings[0].slot_width
            plan = [
                (names[i : i + width], slice(i, i + width))
                for i in range(0, len(names), width)
            ]
            self._chunks[names] = plan
        return plan

    def _intern_names(self, shard: int, names: Tuple[str, ...]) -> int:
        names_id = self._intern.get(names)
        if names_id is None:
            names_id = self._intern[names] = len(self._intern)
            self._names_by_id[names_id] = names
        if names_id not in self._registered[shard]:
            # Sent down the FIFO pipe *before* any slot referencing the id
            # can be pushed; the worker pulls pending registrations when it
            # meets an unknown id mid-drain, so ordering is airtight.
            self._registered[shard].add(names_id)
            try:
                self._call(shard, "reg", (names_id, names))
            except (ShardDownError, OSError):
                # Dead consumer must not fail a write (same contract as
                # ReplicaSet.ingest).  The parent-side table stays the
                # authority: a replacement worker receives every
                # registered id at spawn, so slots already in the ring
                # resolve after the restart.
                pass
        return names_id

    def push(self, shard: int, batch: SampleBatch) -> bool:
        """Queue one batch for a shard worker; returns False if dropped.

        Blocks up to :data:`PUSH_TIMEOUT_S` while the ring is full
        (backpressure), then drops and counts — writes never raise, the
        same contract as :meth:`ReplicaSet.ingest`.
        """
        ring = self.rings[shard]
        values = batch.values
        pushed_any = False
        for chunk_names, sl in self._chunk_plan(batch.names):
            names_id = self._intern_names(shard, chunk_names)
            chunk_values = values[sl]
            if not ring.try_push(names_id, batch.time, chunk_values):
                deadline = _time.monotonic() + PUSH_TIMEOUT_S
                self.backpressure_waits += 1
                while not ring.try_push(names_id, batch.time, chunk_values):
                    if not self.worker_alive(shard):
                        # Dead consumer: give the supervisor a chance to
                        # restart it, but don't spin past the timeout.
                        self.check_workers()
                    if _time.monotonic() > deadline:
                        self.dropped_batches += 1
                        self.dropped_samples += len(chunk_names)
                        log.warning(
                            "shard %d ring full for %.1fs: dropping batch "
                            "(%d samples)",
                            shard,
                            PUSH_TIMEOUT_S,
                            len(chunk_names),
                        )
                        break
                    _time.sleep(_POLL_S)
                else:
                    pushed_any = True
                    self.pushed_slots += 1
                continue
            pushed_any = True
            self.pushed_slots += 1
        if pushed_any:
            self.pushed_batches += 1
        return pushed_any

    # ------------------------------------------------------------------
    # Command RPC
    # ------------------------------------------------------------------
    def _call(self, shard: int, op: str, payload: tuple):
        if self._closed:
            raise StoreError("parallel runtime is closed")
        with self._rpc_locks[shard]:
            if not self.worker_alive(shard):
                # One repair attempt before declaring the shard unreadable.
                self.check_workers()
                if not self.worker_alive(shard):
                    raise ShardDownError(f"shard {shard}: worker process is dead")
            conn = self._conns[shard]
            if op == "reg":
                conn.send(("reg",) + payload)
                return None
            conn.send(("cmd", self.rings[shard].head, op, payload))
            deadline = _time.monotonic() + COMMAND_TIMEOUT_S
            while not conn.poll(0.01):
                if not self.worker_alive(shard):
                    raise ShardDownError(
                        f"shard {shard}: worker died executing {op!r}"
                    )
                if _time.monotonic() > deadline:
                    raise StoreError(
                        f"shard {shard}: worker timed out executing {op!r}"
                    )
            status, result = conn.recv()
        if status == "err":
            raise result
        return result

    def _bump(self) -> None:
        self._mutations += 1

    def shard_stats(self, shard: int) -> dict:
        """The worker's replica-set stats, cached per (ring, mutation) state
        so a metrics snapshot costs at most one round trip."""
        key = (self.rings[shard].head, self._mutations)
        if self._stats_key[shard] != key:
            self._stats_cache[shard] = self._call(shard, "rs_stats", ())
            self._stats_key[shard] = key
        return self._stats_cache[shard]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        return sum(r.backlog for r in self.rings)

    @property
    def unacked(self) -> int:
        return sum(r.unacked for r in self.rings)

    def drain(self) -> None:
        """Block until every pushed slot has been applied by its worker."""
        for shard in range(self.shards):
            self._call(shard, "ping", ())

    def close(self, timeout: float = 10.0) -> None:
        """Graceful drain and shutdown: stop workers after they apply,
        flush and acknowledge everything pushed so far."""
        if self._closed:
            return
        for shard in range(self.shards):
            if not self.worker_alive(shard):
                continue
            try:
                self._call(shard, "stop", ())
            except (ShardDownError, StoreError, OSError):
                pass
        for shard in range(self.shards):
            proc = self._procs[shard]
            if proc is None:
                continue
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            conn = self._conns[shard]
            if conn is not None:
                conn.close()
        self._closed = True

    def __del__(self):  # best-effort cleanup; daemon workers die anyway
        try:
            if not self._closed:
                for proc in self._procs:
                    if proc is not None and proc.is_alive():
                        proc.terminate()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``telemetry.runtime.*`` subtree, built on
        each access: every instrument reads through to the runtime."""
        r = MetricsRegistry()
        r.gauge("telemetry.runtime.workers", "live shard workers",
                fn=lambda: float(
                    sum(self.worker_alive(s) for s in range(self.shards))
                    if not self._closed else 0.0
                ))
        r.counter("telemetry.runtime.pushed_batches",
                  "batches queued to workers",
                  fn=lambda: float(self.pushed_batches))
        r.counter("telemetry.runtime.pushed_slots",
                  "ring slots written (batches after chunking)",
                  fn=lambda: float(self.pushed_slots))
        r.counter("telemetry.runtime.backpressure_waits",
                  "pushes that blocked on a full ring",
                  fn=lambda: float(self.backpressure_waits))
        r.counter("telemetry.runtime.dropped_batches",
                  "batches dropped after backpressure timeout",
                  fn=lambda: float(self.dropped_batches))
        r.counter("telemetry.runtime.dropped_samples",
                  "samples dropped after backpressure timeout",
                  fn=lambda: float(self.dropped_samples))
        r.gauge("telemetry.runtime.backlog",
                "slots pushed but not yet applied",
                fn=lambda: float(self.backlog if not self._closed else 0))
        r.gauge("telemetry.runtime.unacked",
                "slots not yet acknowledged (ring occupancy)",
                fn=lambda: float(self.unacked if not self._closed else 0))
        r.counter("telemetry.runtime.worker_crashes",
                  "worker processes found dead",
                  fn=lambda: float(self.worker_crashes))
        r.counter("telemetry.runtime.worker_restarts",
                  "worker processes restarted",
                  fn=lambda: float(self.worker_restarts))
        r.counter("telemetry.runtime.replayed_slots",
                  "ring slots replayed after worker restarts",
                  fn=lambda: float(self.replayed_slots))
        return r

