"""In-memory span tracer installed over the stack's entry points from outside.

The traced run wraps the functions named in :data:`TARGETS` with a closure
that records one span per call (name, start, end, parent span, op id) and
keeps running self-time totals, so nothing under ``src/`` is edited and the
untraced run executes the original functions.  A span's *self time* is its
duration minus the part its child spans cover; :data:`LAYER_SPANS` sums
self times into per-layer rows that, with ``unattributed_s``, add up to the
timed wall.

Targets are resolved by dotted path when the tracer is installed.  A path a
later refactor removed is skipped and listed in ``Tracer.missing`` — its
layer metric then reads 0 — so restructuring the program cannot break the
benchmark, only blind one row of the table until the table is corrected.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Public entry points,
#: except ``ParallelShardRuntime._call``: the command pipe has no public
#: seam narrower than "every RemoteStoreProxy method", and those run the
#: resample kernels locally after the round trip, which is not RPC time.
TARGETS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.simulation.engine", "Simulator", "step", "simulation.step"),
    ("repro.telemetry.collector", "CollectionAgent", "collect_once", "collector.collect"),
    ("repro.telemetry.collector", "Sampler", "scrape", "collector.scrape"),
    ("repro.telemetry.health", "HealthMonitor", "collect", "health.collect"),
    ("repro.telemetry.bus", "MessageBus", "publish", "bus.publish"),
    ("repro.telemetry.distributed.shard", "ShardedStore", "ingest", "shard.ingest"),
    ("repro.telemetry.distributed.shard", "ShardedStore", "flush", "shard.flush"),
    ("repro.telemetry.distributed.shard", "ShardedStore", "sync_journal", "shard.sync_journal"),
    ("repro.telemetry.distributed.shard", "ShardedStore", "anti_entropy", "replica.anti_entropy"),
    ("repro.telemetry.distributed.replica", "ReplicaSet", "ingest", "replica.ingest"),
    ("repro.telemetry.runtime.parallel", "ParallelReplicaSet", "ingest", "replica.ingest"),
    ("repro.telemetry.store", "TimeSeriesStore", "ingest", "store.ingest"),
    ("repro.telemetry.store", "TimeSeriesStore", "append_many", "store.append_many"),
    ("repro.telemetry.store", "TimeSeriesStore", "append_block", "store.append_block"),
    ("repro.telemetry.store", "TimeSeriesStore", "flush", "store.flush"),
    ("repro.telemetry.store", "TimeSeriesStore", "close", "store.close"),
    ("repro.telemetry.store", "SeriesBuffer", "append_many", "store.buffer_append"),
    ("repro.telemetry.store", "SeriesBuffer", "trim_before", "store.buffer_trim"),
    ("repro.telemetry.store", "TimeSeriesStore", "query", "store.query"),
    ("repro.telemetry.store", "TimeSeriesStore", "resample", "store.resample"),
    ("repro.telemetry.store", "TimeSeriesStore", "resample_column", "store.resample_column"),
    ("repro.telemetry.store", "TimeSeriesStore", "align", "store.align"),
    ("repro.telemetry.store", "TimeSeriesStore", "names", "store.names"),
    ("repro.telemetry.store", "TimeSeriesStore", "select", "store.select"),
    ("repro.telemetry.store", "TimeSeriesStore", "version_stamp", "serving.version_stamp"),
    ("repro.telemetry.runtime.parallel", "RemoteStoreProxy", "version_stamp", "serving.version_stamp"),
    ("repro.telemetry.rollup", "RollupEngine", "observe", "rollup.observe"),
    ("repro.telemetry.rollup", "RollupEngine", "repair", "rollup.repair"),
    ("repro.telemetry.rollup", "RollupEngine", "serve", "rollup.serve"),
    ("repro.telemetry.archive", "ArchiveTier", "demote", "archive.demote"),
    ("repro.telemetry.archive", "ArchiveTier", "compact", "archive.compact"),
    ("repro.telemetry.archive", "ArchiveTier", "scan", "archive.scan"),
    ("repro.telemetry.archive", "ColdChunk", "decode", "archive.decode"),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_names", "durability.append"),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_batch", "durability.append"),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_many", "durability.append"),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_block", "durability.append"),
    ("repro.telemetry.durability", "WriteAheadJournal", "flush", "durability.commit"),
    ("repro.telemetry.durability", "WriteAheadJournal", "sync", "durability.commit"),
    ("repro.telemetry.durability", "WriteAheadJournal", "mark_durable", "durability.commit"),
    ("repro.telemetry.durability", "WriteAheadJournal", "close", "durability.commit"),
    ("repro.telemetry.persistence", None, "save_store", "persistence.save"),
    ("repro.telemetry.persistence", None, "load_store", "persistence.load"),
    ("repro.telemetry.runtime.parallel", "ParallelShardRuntime", "push", "runtime.push"),
    ("repro.telemetry.distributed.federation", "FederatedQueryEngine", "query", "federation.query"),
    ("repro.telemetry.distributed.federation", "FederatedQueryEngine", "resample", "federation.resample"),
    ("repro.telemetry.distributed.federation", "FederatedQueryEngine", "align", "federation.align"),
    ("repro.telemetry.distributed.federation", "FederatedQueryEngine", "names", "federation.names"),
    ("repro.telemetry.distributed.federation", "FederatedQueryEngine", "select", "federation.select"),
    ("repro.telemetry.serving.frontend", "QueryFrontend", "serve", "serving.serve"),
    ("repro.telemetry.serving.frontend", "QueryFrontend", "submit", "serving.submit"),
    ("repro.telemetry.serving.frontend", "QueryFrontend", "pump", "serving.pump"),
    ("repro.telemetry.serving.cache", "ResultCache", "get", "serving.cache_get"),
    ("repro.telemetry.serving.cache", "ResultCache", "put", "serving.cache_put"),
    ("repro.telemetry.serving.frontend", None, "freeze_payload", "serving.cache_freeze"),
]

#: Calls counted (no span) while the innermost open span's name starts with
#: the prefix: (module, class, attribute, counter, prefix).
PROBES: List[Tuple[str, str, str, str, str]] = [
    # ShardedStore consults shard_of per name only when a batch shape has
    # no cached split plan, so calls under an ingest span are plan misses.
    ("repro.telemetry.distributed.shard", "ShardedStore", "shard_of",
     "shard.names_routed_uncached", "shard.ingest"),
    # A fan-out pins each shard it touches exactly once per query.
    ("repro.telemetry.distributed.replica", "ReplicaSet", "read_store",
     "federation.shards_touched", "federation."),
    ("repro.telemetry.runtime.parallel", "ParallelReplicaSet", "read_store",
     "federation.shards_touched", "federation."),
]

_FLUSH_SIDE = (
    "store.flush", "shard.flush", "store.buffer_append", "store.buffer_trim",
    "rollup.observe", "rollup.repair", "archive.demote", "archive.compact",
)

#: Span-derived per-layer metrics: name -> (kind, span names).  Units and
#: directions are declared once, in ``BENCHMARK.json``; the rows not listed
#: here come from the workload's counters or the harness.  ``self`` rows sum
#: self time over the span names (time inside those calls that no traced
#: callee accounts for; a phase like save or replay reads "what this layer
#: itself cost", the appends it drives are the store's), ``total`` rows
#: inclusive time, ``calls`` rows call counts.  A span name sits under at
#: most one ``self`` row, so the ``self`` rows plus ``other_self_s`` (the
#: harness's own spans: verify, compare, drain) plus ``unattributed_s`` add
#: up to the timed wall.
LAYER_SPANS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "simulation.tick_self_s": ("self", ("simulation.step",)),
    "collector.scrape_self_s": ("self", ("collector.collect", "collector.scrape")),
    "bus.publish_self_s": ("self", ("bus.publish",)),
    "shard.split_self_s": ("self", ("shard.ingest",)),
    "replica.fanout_self_s": ("self", ("replica.ingest",)),
    "replica.anti_entropy_s": ("self", ("replica.anti_entropy",)),
    "store.stage_self_s": (
        "self",
        ("store.ingest", "store.append_many", "store.append_block"),
    ),
    "store.flush_self_s": (
        "self",
        ("store.flush", "shard.flush", "store.close", "store.buffer_append",
         "store.buffer_trim"),
    ),
    "store.read_self_s": (
        "self",
        ("store.query", "store.resample", "store.resample_column", "store.align",
         "store.names", "store.select"),
    ),
    "rollup.maintain_self_s": ("self", ("rollup.observe", "rollup.repair")),
    "rollup.serve_self_s": ("self", ("rollup.serve",)),
    "archive.demote_self_s": ("self", ("archive.demote",)),
    "archive.compact_self_s": ("self", ("archive.compact",)),
    "archive.scan_self_s": ("self", ("archive.scan", "archive.decode")),
    "archive.chunks_decoded": ("calls", ("archive.decode",)),
    "durability.append_self_s": ("self", ("durability.append",)),
    "durability.commit_self_s": ("self", ("durability.commit", "shard.sync_journal")),
    "durability.fsync_s": ("self", ("durability.fsync",)),
    "durability.fsyncs": ("calls", ("durability.fsync",)),
    "durability.replay_s": ("self", ("durability.replay",)),
    "persistence.save_s": ("self", ("persistence.save", "persistence.fsync")),
    "persistence.load_s": ("self", ("persistence.load",)),
    "runtime.push_self_s": ("self", ("runtime.push",)),
    "runtime.barrier_wait_s": ("self", ("runtime.rpc_barrier",)),
    "runtime.rpc_s": ("self", ("runtime.rpc",)),
    "runtime.rpc_calls": ("calls", ("runtime.rpc", "runtime.rpc_barrier")),
    "runtime.drain_s": ("total", ("runtime.drain",)),
    "federation.merge_self_s": (
        "self",
        ("federation.query", "federation.resample", "federation.align",
         "federation.names", "federation.select"),
    ),
    "serving.admission_self_s": ("self", ("serving.submit",)),
    "serving.cache_lookup_self_s": (
        "self",
        ("serving.cache_get", "serving.cache_put", "serving.cache_freeze"),
    ),
    "serving.version_stamp_s": ("self", ("serving.version_stamp",)),
    "serving.frontend_self_s": ("self", ("serving.serve", "serving.pump")),
    "health.publish_self_s": ("self", ("health.collect",)),
}


class Tracer:
    """Nested spans with running self-time totals.

    Wrappers are pass-through until :attr:`active` is set, so set-up (and
    any worker process forked during it) runs untraced.
    """

    def __init__(self, span_cap: int = 250_000):
        self.active = False
        self.op = -1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (span id, parent id, name, start, end, op) for the first
        #: ``span_cap`` spans; the totals above cover every span.
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.span_cap = span_cap
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------
    def _enter(self, name: str) -> list:
        stack = self._stack
        frame = [name, 0.0, 0.0, self._next_id, stack[-1][3] if stack else -1]
        self._next_id += 1
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id, parent_id = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, name, start, end, self.op))

    @contextmanager
    def span(self, name: str):
        """Span around harness code (phases that have no single callee)."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _traced(
        self, fn: Callable, name: str, choose: Optional[Callable[..., str]] = None
    ) -> Callable:
        """``fn`` recorded as a span called ``name`` — or, for the two
        targets whose layer depends on the call, ``choose(*args)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name if choose is None else choose(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _probed(self, fn: Callable, counter: str, prefix: str) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and stack and stack[-1][0].startswith(prefix):
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def _owner(self, module: str, cls: Optional[str], attr: str):
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(".".join(p for p in (module, cls, attr) if p))
            return None
        return owner

    def install(self) -> None:
        """Wrap every resolvable target (once per process)."""
        for module, cls, attr, name in TARGETS:
            owner = self._owner(module, cls, attr)
            if owner is not None:
                setattr(owner, attr, self._traced(getattr(owner, attr), name))
        for module, cls, attr, counter, prefix in PROBES:
            owner = self._owner(module, cls, attr)
            if owner is not None:
                setattr(owner, attr, self._probed(getattr(owner, attr), counter, prefix))
        # A command sent while the shard's ring still holds unapplied slots
        # first waits for the worker to apply them: that wait is the
        # read-after-write barrier, and is kept apart from plain RPC time.
        owner = self._owner("repro.telemetry.runtime.parallel", "ParallelShardRuntime", "_call")
        if owner is not None:
            owner._call = self._traced(
                owner._call, "runtime.rpc",
                lambda rt, shard, op, payload: (
                    "runtime.rpc_barrier" if rt.rings[shard].backlog else "runtime.rpc"
                ),
            )
        # fsync is charged to the journal only under a journal span; the
        # atomic-write fsyncs of save_store stay inside persistence.save.
        stack = self._stack
        os.fsync = self._traced(
            os.fsync, "persistence.fsync",
            lambda fd: (
                "durability.fsync"
                if any(f[0].startswith(("durability.", "shard.sync")) for f in stack)
                and not any(f[0] == "persistence.save" for f in stack)
                else "persistence.fsync"
            ),
        )

    # -- reading -------------------------------------------------------
    def flush_side_s(self) -> float:
        """Cumulative self time of flush, rollup maintenance and demotion;
        differenced around one op it gives that op's flush stall."""
        self_s = self.self_s
        return sum(self_s[name] for name in _FLUSH_SIDE)

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def layer_values(self) -> Dict[str, float]:
        """The :data:`LAYER_SPANS` rows, and ``other_self_s``."""
        totals = {"self": self.self_s, "total": self.total_s, "calls": self.calls}
        out = {
            name: float(sum(totals[kind][s] for s in spans))
            for name, (kind, spans) in LAYER_SPANS.items()
        }
        out["other_self_s"] = self.attributed_s() - sum(
            out[name] for name, (kind, _) in LAYER_SPANS.items() if kind == "self"
        )
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Chrome ``chrome://tracing`` / Perfetto JSON of the kept spans."""
        if not self.spans:
            return
        origin = min(s[3] for s in self.spans)
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent_id, "op": op},
            }
            for span_id, parent_id, name, start, end, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
