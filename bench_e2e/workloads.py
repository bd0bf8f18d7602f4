"""The four benchmark workloads.

Each workload is one closed-loop client on the harness thread doing a fixed
amount of seeded work, so operation counts, cache hits, recovered samples
and journal bytes repeat exactly for a seed and only the clock varies.
``--seconds`` sizes that work (the counts in :data:`SIZES` are for the
``run_seconds`` of ``BENCHMARK.json`` on the 2-core box the benchmark was
calibrated on); it never cuts a run short.

A workload drives the stack only through its public entry points and
exposes five things to ``run.py``: ``make_inputs`` (seeded, once),
``setup``/``teardown`` (system state; timed as ``setup_s``, repeatable),
``timed`` (the measured section), ``answers``/``expected`` (what the system
said against a plain single ``TimeSeriesStore`` fed the same inputs) and
the system's own failure and work counters.
"""

from __future__ import annotations

import collections
import dataclasses
import fnmatch
import gc
import math
import os
import shutil
import time
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.generator import WorkloadGenerator
from repro.oda.datacenter import DataCenter
from repro.telemetry import (
    QueryFrontend,
    SampleBatch,
    ShardedStore,
    TenantConfig,
    TimeSeriesStore,
    persistence,
    tear_wal_tail,
)
from repro.telemetry.serving.workload import (
    WorkloadSpec,
    heavy_tailed_workload,
    tenant_names,
)

#: ``TelemetrySystem``'s (not configurable through ``DataCenter``) staging
#: threshold: every series flushes on the same tick, once per this many.
FLUSH_THRESHOLD = 256

DAY = 86_400.0
PERIOD = 60.0
TENANTS = 6

#: Seed of everything that decides *how much work* a run does: the job trace
#: of ingest_fleet and the query stream (kinds, windows, fan-outs, hot pool,
#: tenants) of serve_tenants and live_mixed.  ``--seed`` decides the *values*
#: — weather and sensor readings, every sample of every series — so answers
#: differ from seed to seed while the work does not.  Drawing the shapes
#: from ``--seed`` as well was tried first: sixteen hot queries are a
#: lottery, and five seeds spread live_mixed p50 from 0.48 to 1.17 ms and
#: serve_tenants throughput by 12 %, wider than any bound worth having.
SHAPE_SEED = 2021

SIZES: Dict[str, Dict[str, dict]] = {
    "ingest_fleet": {
        "full": dict(racks=2, nodes_per_rack=24, jobs_per_day=120.0,
                     warm_ticks=640, flush_cycles=12),
        "smoke": dict(racks=1, nodes_per_rack=8, jobs_per_day=60.0,
                      warm_ticks=16, flush_cycles=1),
    },
    "serve_tenants": {
        "full": dict(series=192, days=14, queries=50_000, oracle_sample=400),
        "smoke": dict(series=32, days=9, queries=600, oracle_sample=48),
    },
    "live_mixed": {
        "full": dict(series=512, preload_ticks=1_440, warm_ticks=16, ticks=200,
                     queries_per_tick=8, oracle_sample=400),
        "smoke": dict(series=64, preload_ticks=300, warm_ticks=2, ticks=12,
                      queries_per_tick=8, oracle_sample=48),
    },
    "crash_recover": {
        "full": dict(series=16, big_series=64, big_every=10, acked_ticks=576,
                     unsynced_ticks=24, warm_cycles=16, cycles=130),
        "smoke": dict(series=8, big_series=16, big_every=5, acked_ticks=96,
                      unsynced_ticks=24, warm_cycles=1, cycles=10),
    },
}

#: Key of each workload's timed count, the one ``--seconds`` scales.
_TIMED_KEY = {
    "ingest_fleet": "flush_cycles",
    "serve_tenants": "queries",
    "live_mixed": "ticks",
    "crash_recover": "cycles",
}


def sizes_for(workload: str, smoke: bool, scale: float = 1.0) -> dict:
    """The sizes of one run: ``SIZES`` as written at ``scale`` 1 (``--seconds``
    equal to the benchmark's ``run_seconds``), the timed count in proportion
    otherwise; smoke sizes are not scaled."""
    if smoke:
        return dict(SIZES[workload]["smoke"])
    sizes = dict(SIZES[workload]["full"])
    key = _TIMED_KEY[workload]
    floor = 10 if key == "cycles" else 1  # the tail is the slowest tenth
    sizes[key] = max(floor, round(sizes[key] * scale))
    return sizes


@dataclasses.dataclass
class Timed:
    """What one timed section did: ops completed and one latency per
    latency op (the caller measures the section's wall and CPU)."""

    ops: int
    op_unit: str
    latencies_s: List[float]
    latency_op: str


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def series_names(n: int) -> Tuple[str, ...]:
    return tuple(
        f"cluster.rack{i // 64:02d}.node{i % 64:02d}.power_w" for i in range(n)
    )


def series_matrix(seed: int, series: int, ticks: int) -> np.ndarray:
    """``[series, ticks]`` node-power-like signals: a per-series level, a
    daily cycle with a per-series phase, and sensor noise at 10 mW."""
    rng = np.random.default_rng([seed, series, ticks])
    level = rng.uniform(80.0, 400.0, size=(series, 1))
    phase = rng.uniform(0.0, 2 * np.pi, size=(series, 1))
    t = np.arange(ticks, dtype=np.float64) * (2 * np.pi * PERIOD / DAY)
    signal = level * (1.0 + 0.2 * np.sin(t + phase))
    return np.round(signal + rng.normal(0.0, 2.0, size=(series, ticks)), 2)


def open_tenants() -> Dict[str, TenantConfig]:
    """Admission on, with envelopes one closed-loop client cannot reach:
    the token bucket, queue bounds and fair dispatch all run, none bites."""
    return {
        name: TenantConfig(rate=1e6, burst=1e6, max_concurrency=64, max_queue=1024)
        for name in tenant_names(TENANTS)
    }


def shifted(query, delta: float):
    """The same query moved ``delta`` seconds later (catalog queries have
    no window and are returned as they are)."""
    if hasattr(query, "since"):
        return dataclasses.replace(
            query, since=query.since + delta, until=query.until + delta
        )
    return query


#: Bucket widths a dashboard offers, in seconds.
GRID_STEPS = (60.0, 300.0, 900.0, 3600.0, 21_600.0)


def on_dashboard_grid(query):
    """``query`` as a dashboard would ask it: the bucket width rounded (in
    ratio) to the nearest of :data:`GRID_STEPS` and both ends of the window
    moved down to a bucket edge (never up: live_mixed ends a window at the
    newest sample, and a window reaching past it would make the oracle, which
    holds the whole series, count samples not yet ingested).
    ``heavy_tailed_workload`` draws ``step = length / buckets``, which is
    never a multiple of a rollup tier's width, so as generated not one query
    can be answered from a tier; on the grid the planner serves min/max from
    the 1 min tier and hourly means from the 1 h tier, and falls back to raw
    for the other means."""
    if not hasattr(query, "step"):
        return query
    step = min(GRID_STEPS, key=lambda g: abs(math.log(g / query.step)))
    until = math.floor(query.until / step) * step
    since = min(math.floor(query.since / step) * step, until - step)
    return dataclasses.replace(query, step=step, since=since, until=until)


def oracle_answer(store: TimeSeriesStore, all_names: Sequence[str], query):
    """The payload ``QueryFrontend`` owes for ``query``, from a plain store."""
    kind = query.kind
    if kind == "names":
        return tuple(all_names)
    if kind == "select":
        return tuple(n for n in all_names if fnmatch.fnmatchcase(n, query.pattern))
    if kind == "range":
        return store.query(query.name, query.since, query.until)
    if kind == "resample":
        return store.resample(
            query.name, query.since, query.until, query.step, agg=query.agg
        )
    grid, matrix = store.align(
        query.names, query.since, query.until, query.step,
        agg=query.agg, fill=query.fill,
    )
    return (grid, matrix, query.names)


def query_series(query) -> Tuple[str, ...]:
    if query.kind in ("range", "resample"):
        return (query.name,)
    if query.kind == "align":
        return query.names
    return ()


def plain_store(columns: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> TimeSeriesStore:
    """The oracle: one raw store, no tiers, no retention, no journal."""
    store = TimeSeriesStore()
    for name, (times, values) in columns.items():
        store.append_many(name, times, values)
    return store


def windowed_read(store, read):
    """A resample (one series) or align (several) through the store API."""
    names, since, until, step, agg = read
    if len(names) == 1:
        return store.resample(names[0], since, until, step, agg=agg)
    return store.align(names, since, until, step, agg=agg)


def in_process_members(store: ShardedStore) -> List[TimeSeriesStore]:
    return [member for rs in store.replica_sets for member in rs.members]


def replica_losses(store: ShardedStore) -> Dict[str, int]:
    """Writes the replica tier admits it did not apply."""
    return {
        "missed_write_samples": sum(sum(rs.missed_writes) for rs in store.replica_sets),
        "dropped_write_samples": sum(sum(rs.dropped_writes) for rs in store.replica_sets),
        "lost_samples": sum(rs.lost_samples for rs in store.replica_sets),
    }


class Workload:
    """Base: seeded sizes, a private directory tree and an optional tracer."""

    name = ""

    def __init__(self, seed: int, sizes: dict, workdir: str, tracer=None):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def make_inputs(self) -> None:
        """Generate the seeded inputs (once per run, outside set-up)."""

    def layer_values(self, timed: Timed) -> Dict[str, float]:
        """Counter-derived per-layer metrics of the last timed section."""
        return {}


# ----------------------------------------------------------------------
# ingest_fleet: write path, in-process tier
# ----------------------------------------------------------------------
class IngestFleet(Workload):
    name = "ingest_fleet"

    def setup(self) -> None:
        s = self.sizes
        ticks = s["warm_ticks"] + s["flush_cycles"] * FLUSH_THRESHOLD
        self.dc = DataCenter(
            seed=self.seed, racks=s["racks"], nodes_per_rack=s["nodes_per_rack"],
            shards=2, replication=1, rollups=True, archive=True,
            store_retention=4 * 3600.0, journal=self.fresh_dir("journal"),
            health_period=PERIOD,
        )
        jobs = WorkloadGenerator(
            np.random.default_rng(SHAPE_SEED), catalog=self.dc.catalog,
            jobs_per_day=s["jobs_per_day"], max_nodes=self.dc.system.node_count,
        )
        self.dc.scheduler.load_trace(
            self.dc.sim, jobs.generate(self.dc.sim.now, ticks * PERIOD)
        )
        # The oracle's copy of the inputs: every batch the bus delivers,
        # kept by reference (one list append per batch on the timed path).
        self.delivered: List[SampleBatch] = []
        self.dc.telemetry.bus.subscribe(
            "#", lambda topic, batch: self.delivered.append(batch)
        )
        self.dc.run(seconds=s["warm_ticks"] * PERIOD)
        self.dc.store.flush()
        self.dc.store.sync_journal()

    def teardown(self) -> None:
        self.dc.close()
        del self.dc, self.delivered

    def _work_counters(self) -> Dict[str, float]:
        store = self.dc.store
        members = in_process_members(store)
        journals = [m.journal for m in members]
        return {
            "samples": store.samples_ingested,
            "collector_samples": sum(
                sampler.samples
                for agent in self.dc.telemetry.agents for sampler in agent.samplers
            ),
            "store_flushes": sum(m.flushes for m in members),
            "journal_bytes": sum(j.bytes_written for j in journals),
            "journal_records": sum(j.records for j in journals),
            "member_samples": sum(m.samples_ingested for m in members),
        }

    def timed(self) -> Timed:
        dc, store, tracer = self.dc, self.dc.store, self.tracer
        ticks = self.sizes["flush_cycles"] * FLUSH_THRESHOLD
        self._before = self._work_counters()
        self.flush_stall_max_s = 0.0
        latencies: List[float] = []
        clock = time.perf_counter
        for tick in range(ticks):
            if tracer is not None:
                tracer.op = tick
                flush_side = tracer.flush_side_s()
            t0 = clock()
            dc.run(seconds=PERIOD)
            latencies.append(clock() - t0)
            if tracer is not None:
                stall = tracer.flush_side_s() - flush_side
                if stall > self.flush_stall_max_s:
                    self.flush_stall_max_s = stall
        store.flush()
        store.sync_journal()
        self._after = self._work_counters()
        return Timed(
            ops=int(self._after["samples"] - self._before["samples"]),
            op_unit="samples", latencies_s=latencies, latency_op="fleet scrape tick",
        )

    def counters(self) -> Dict[str, float]:
        delta = {k: self._after[k] - self._before[k] for k in self._after}
        delta["series"] = len(self.dc.store.names())
        return delta

    def failures(self) -> Dict[str, int]:
        store = self.dc.store
        out = replica_losses(store)
        out["dead_letters"] = self.dc.telemetry.bus.dead_letter_count
        delivered = sum(len(batch) for batch in self.delivered)
        # Every member of every shard holds every sample the bus delivered.
        copies = zip(*(rs.members for rs in store.replica_sets))
        out["undelivered_samples"] = sum(
            abs(delivered - sum(m.samples_ingested for m in copy)) for copy in copies
        )
        return out

    def _oracle_plan(self):
        """Seeded sample of series, and resample/align reads over them."""
        rng = np.random.default_rng([self.seed, 1])
        names = self.dc.store.names()
        picked = [names[i] for i in sorted(
            rng.choice(len(names), size=min(48, len(names)), replace=False)
        )]
        now = self.dc.sim.now
        reads = []
        for _ in range(24):
            length = float(rng.choice((1800.0, 4 * 3600.0, 12 * 3600.0, now)))
            until = now - float(rng.random()) * (now - length) if length < now else now
            step = float(rng.choice((60.0, 300.0, 600.0, 3600.0)))
            agg = str(rng.choice(("mean", "max", "min")))
            k = int(rng.choice((1, 1, 4, 8)))
            lo = int(rng.integers(0, len(picked) - k + 1))
            reads.append((tuple(picked[lo:lo + k]), until - length, until, step, agg))
        return picked, reads

    def answers(self) -> List[Tuple[str, object]]:
        picked, reads = self._oracle_plan()
        store = self.dc.store
        out = [(f"history {name}", store.query(name)) for name in picked]
        out += [(f"read {read}", windowed_read(store, read)) for read in reads]
        return out

    def expected(self) -> List[Tuple[str, object]]:
        picked, reads = self._oracle_plan()
        wanted = set(picked)
        positions: Dict[Tuple[str, ...], List[Tuple[str, int]]] = {}
        times: Dict[str, List[float]] = {name: [] for name in picked}
        values: Dict[str, List[float]] = {name: [] for name in picked}
        for batch in self.delivered:
            where = positions.get(batch.names)
            if where is None:
                where = positions[batch.names] = [
                    (name, i) for i, name in enumerate(batch.names) if name in wanted
                ]
            for name, i in where:
                times[name].append(batch.time)
                values[name].append(batch.values[i])
        columns = {
            name: (np.asarray(times[name]), np.asarray(values[name])) for name in picked
        }
        oracle = plain_store(columns)
        out = [(f"history {name}", columns[name]) for name in picked]
        out += [(f"read {read}", windowed_read(oracle, read)) for read in reads]
        return out

    def layer_values(self, timed: Timed) -> Dict[str, float]:
        store = self.dc.store
        delta = self.counters()
        uncached = self.tracer.counts["shard.names_routed_uncached"]
        return {
            "collector.samples": delta["collector_samples"],
            "bus.dead_letters": self.dc.telemetry.bus.dead_letter_count,
            "shard.split_plan_hit_ratio": 1.0 - uncached / max(1, timed.ops),
            "replica.missed_writes": replica_losses(store)["missed_write_samples"],
            "store.flushes": delta["store_flushes"],
            "store.flush_stall_max_ms": self.flush_stall_max_s * 1e3,
            "archive.compression_ratio": compression_ratio(
                [m.archive for m in in_process_members(store)]
            ),
            "durability.bytes_per_sample": (
                delta["journal_bytes"] / max(1, delta["member_samples"])
            ),
        }


def compression_ratio(archives) -> float:
    encoded = sum(a.encoded_bytes for a in archives)
    return sum(a.raw_bytes for a in archives) / encoded if encoded else 0.0


class ServedQueries(Workload):
    """What serve_tenants and live_mixed share: synthetic series behind a
    ``QueryFrontend``, a heavy-tailed event stream served inline, and a
    seeded sample of the outcomes kept for the oracle."""

    def make_series(self, ticks: int) -> None:
        self.names = series_names(self.sizes["series"])
        self.matrix = series_matrix(self.seed, self.sizes["series"], ticks)

    def make_events(self, horizon: float, warm: int, timed: int):
        """``warm + timed`` events over ``[0, horizon]``; the oracle checks a
        seeded sample of the timed ones."""
        self.warm_queries = warm
        rng = np.random.default_rng([self.seed, 2])
        sample = min(self.sizes["oracle_sample"], timed)
        self.keep = set((warm + rng.choice(timed, size=sample, replace=False)).tolist())
        stream = heavy_tailed_workload(
            self.names, 0.0, horizon,
            WorkloadSpec(
                tenants=TENANTS, queries=warm + timed, seed=SHAPE_SEED,
                hot_fraction=0.7, hot_pool=16,
            ),
        )
        return [(tenant, on_dashboard_grid(query)) for tenant, query in stream]

    def open_frontend(self) -> None:
        self.frontend = QueryFrontend(
            self.store, tenants=open_tenants(), max_workers=0,
            admission=True, cache=True,
        )

    def teardown(self) -> None:
        self.frontend.close()
        self.store.close()
        del self.frontend, self.store

    def start_timed(self) -> None:
        self._cache_before = self.frontend.cache_stats()
        self.latencies: List[float] = []
        self.hits: List[bool] = []
        self.kept: List[Tuple[int, object]] = []

    def serve(self, lo: int, hi: int, keep=()) -> None:
        """Serve events ``lo..hi`` inline, one at a time, recording each
        query's latency and cache-hit flag and the outcomes in ``keep``."""
        tracer = self.tracer
        serve = self.frontend.serve
        clock = time.perf_counter
        for i in range(lo, hi):
            tenant, query = self.events[i]
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            outcome = serve(tenant, query)
            self.latencies.append(clock() - t0)
            self.hits.append(outcome.ok and outcome.cache_hit)
            if i in keep:
                self.kept.append((i, outcome))

    def cache_delta(self) -> Dict[str, float]:
        after = self.frontend.cache_stats()
        return {k: after[k] - self._cache_before[k] for k in after}

    def failures(self) -> Dict[str, int]:
        return {
            "query_errors": self.frontend.query_errors,
            "rejected_queries": sum(self.frontend.rejections.values()),
        }

    def answers(self) -> List[Tuple[str, object]]:
        return [
            (f"query {i} {outcome.query.kind}", getattr(outcome, "payload", None))
            for i, outcome in self.kept
        ]

    def expected(self) -> List[Tuple[str, object]]:
        # The oracle holds the whole of each series: a window ends at or
        # before the newest sample its query could see, so samples ingested
        # later cannot be in a correct answer.
        needed = sorted({n for _, o in self.kept for n in query_series(o.query)})
        index = {name: i for i, name in enumerate(self.names)}
        times = np.arange(self.matrix.shape[1], dtype=np.float64) * PERIOD
        oracle = plain_store({n: (times, self.matrix[index[n]]) for n in needed})
        return [
            (f"query {i} {o.query.kind}", oracle_answer(oracle, self.names, o.query))
            for i, o in self.kept
        ]

    def layer_values(self, timed: Timed) -> Dict[str, float]:
        cache = self.cache_delta()
        lookups = cache["hits"] + cache["misses"]
        hit_s = sorted(l for l, h in zip(self.latencies, self.hits) if h)
        miss_s = sorted(l for l, h in zip(self.latencies, self.hits) if not h)
        federated = sum(
            n for name, n in self.tracer.calls.items() if name.startswith("federation.")
        )
        touched = self.tracer.counts["federation.shards_touched"]
        return {
            "serving.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serving.cache_evictions": cache["evictions"],
            "serving.cache_invalidations": cache["invalidations"],
            "serving.hit_p50_ms": hit_s[len(hit_s) // 2] * 1e3 if hit_s else 0.0,
            "serving.miss_p50_ms": miss_s[len(miss_s) // 2] * 1e3 if miss_s else 0.0,
            "serving.rejected": sum(self.frontend.rejections.values()),
            "federation.shards_per_query": touched / federated if federated else 0.0,
        }


# ----------------------------------------------------------------------
# serve_tenants: read path, static tiered store
# ----------------------------------------------------------------------
class ServeTenants(ServedQueries):
    name = "serve_tenants"

    def make_inputs(self) -> None:
        s = self.sizes
        self.make_series(s["days"] * int(DAY // PERIOD))
        self.events = self.make_events(
            s["days"] * DAY, warm=max(1, s["queries"] // 40), timed=s["queries"]
        )

    def setup(self) -> None:
        self.store = ShardedStore(shards=2, rollups=True, archive=True, retention=7 * DAY)
        per_day = int(DAY // PERIOD)
        for day in range(self.sizes["days"]):
            block = slice(day * per_day, (day + 1) * per_day)
            times = np.arange(block.start, block.stop, dtype=np.float64) * PERIOD
            for i, name in enumerate(self.names):
                self.store.append_many(name, times, self.matrix[i, block])
        self.store.flush()
        self.open_frontend()
        self.start_timed()
        self.serve(0, self.warm_queries)

    def _rollup_counters(self) -> Dict[str, float]:
        totals = {"tier_hits": 0.0, "partial_hits": 0.0, "raw_fallbacks": 0.0}
        for member in in_process_members(self.store):
            health = member.rollups.health_counters()
            for key in totals:
                totals[key] += health[f"telemetry.rollup.{key}"]
        return totals

    def timed(self) -> Timed:
        self.start_timed()
        self._rollup_before = self._rollup_counters()
        self.serve(self.warm_queries, len(self.events), self.keep)
        return Timed(
            ops=len(self.latencies), op_unit="queries",
            latencies_s=self.latencies, latency_op="query, admission to answer",
        )

    def counters(self) -> Dict[str, float]:
        cache = self.cache_delta()
        return {
            "queries": len(self.latencies),
            "cache_hits": cache["hits"],
            "cache_evictions": cache["evictions"],
            "cold_chunks": sum(
                m.archive.chunk_count() for m in in_process_members(self.store)
            ),
        }

    def layer_values(self, timed: Timed) -> Dict[str, float]:
        out = super().layer_values(timed)
        after = self._rollup_counters()
        served = {k: after[k] - self._rollup_before[k] for k in after}
        planned = sum(served.values())
        out["rollup.served_ratio"] = (
            (served["tier_hits"] + served["partial_hits"]) / planned if planned else 0.0
        )
        out["archive.compression_ratio"] = compression_ratio(
            [m.archive for m in in_process_members(self.store)]
        )
        return out


# ----------------------------------------------------------------------
# live_mixed: reads beside writes, parallel tier
# ----------------------------------------------------------------------
class LiveMixed(ServedQueries):
    name = "live_mixed"

    def make_inputs(self) -> None:
        s = self.sizes
        per_tick = s["queries_per_tick"]
        self.make_series(s["preload_ticks"] + s["warm_ticks"] + s["ticks"])
        self.batches = [
            SampleBatch(k * PERIOD, self.names, np.ascontiguousarray(self.matrix[:, k]))
            for k in range(self.matrix.shape[1])
        ]
        # One heavy-tailed stream over the preloaded horizon; the queries of
        # live tick k are moved to end at that tick's newest sample.
        stream = self.make_events(
            (s["preload_ticks"] - 1) * PERIOD,
            warm=s["warm_ticks"] * per_tick, timed=s["ticks"] * per_tick,
        )
        self.events = [
            (tenant, shifted(query, (i // per_tick + 1) * PERIOD))
            for i, (tenant, query) in enumerate(stream)
        ]

    def live(self, first_tick: int, ticks: int, keep=()) -> None:
        """``ticks`` live ticks: one scrape ingested, then its queries."""
        s = self.sizes
        per_tick = s["queries_per_tick"]
        for tick in range(first_tick, first_tick + ticks):
            self.store.ingest("live", self.batches[s["preload_ticks"] + tick])
            self.serve(tick * per_tick, (tick + 1) * per_tick, keep)

    def drain(self) -> None:
        self.store.flush()
        self.store.sync_journal()

    def setup(self) -> None:
        s = self.sizes
        self.store = ShardedStore(
            shards=2, replication=1, rollups=True, parallel=True,
            journal=self.fresh_dir("journal"),
        )
        for batch in self.batches[:s["preload_ticks"]]:
            self.store.ingest("live", batch)
        self.drain()
        self.open_frontend()
        self.start_timed()
        self.live(0, s["warm_ticks"])
        self.drain()

    def _runtime_counters(self) -> Dict[str, float]:
        runtime = self.store.runtime
        stats = [runtime.shard_stats(shard) for shard in range(self.store.shards)]
        return {
            "pushed_batches": runtime.pushed_batches,
            "backpressure_waits": runtime.backpressure_waits,
            "dropped_batches": runtime.dropped_batches,
            "dropped_samples": runtime.dropped_samples,
            "journal_bytes": sum(st["wal_bytes"] for st in stats),
            "journal_records": sum(st["wal_records"] for st in stats),
            "member_samples": sum(sum(st["samples_ingested"]) for st in stats),
            "slots_applied": sum(st["slots_applied"] for st in stats),
        }

    def timed(self) -> Timed:
        s = self.sizes
        self.start_timed()
        self._before = self._runtime_counters()
        self.live(s["warm_ticks"], s["ticks"], self.keep)
        with self.span("runtime.drain"):
            self.drain()
        self._after = self._runtime_counters()
        return Timed(
            ops=s["ticks"] * s["series"], op_unit="samples",
            latencies_s=self.latencies, latency_op="query, admission to answer",
        )

    def counters(self) -> Dict[str, float]:
        delta = {k: self._after[k] - self._before[k] for k in self._after}
        cache = self.cache_delta()
        delta["queries"] = len(self.latencies)
        delta["cache_hits"] = cache["hits"]
        delta["cache_invalidations"] = cache["invalidations"]
        return delta

    def failures(self) -> Dict[str, int]:
        out = super().failures()
        out.update(replica_losses(self.store))
        out["dropped_samples"] = self.store.runtime.dropped_samples
        # Every member of every shard applied every pushed sample.
        applied = [
            self.store.runtime.shard_stats(shard)["samples_ingested"]
            for shard in range(self.store.shards)
        ]
        out["unapplied_samples"] = sum(
            abs(self.matrix.size - sum(copy)) for copy in zip(*applied)
        )
        return out

    def layer_values(self, timed: Timed) -> Dict[str, float]:
        out = super().layer_values(timed)
        delta = self.counters()
        uncached = self.tracer.counts["shard.names_routed_uncached"]
        out.update({
            "shard.split_plan_hit_ratio": 1.0 - uncached / max(1, timed.ops),
            "replica.missed_writes": replica_losses(self.store)["missed_write_samples"],
            "runtime.backpressure_waits": delta["backpressure_waits"],
            "runtime.dropped_batches": delta["dropped_batches"],
            "durability.bytes_per_sample": (
                delta["journal_bytes"] / max(1, delta["member_samples"])
            ),
        })
        return out


# ----------------------------------------------------------------------
# crash_recover: restart path
# ----------------------------------------------------------------------
class CrashRecover(Workload):
    name = "crash_recover"

    #: Anti-entropy window: ten scrapes, so the torn replica tail spans
    #: complete windows and the sweep has real repairs to make.
    WINDOW_S = 10 * PERIOD

    def make_inputs(self) -> None:
        s = self.sizes
        self.total_ticks = s["acked_ticks"] + s["unsynced_ticks"]
        self.times = np.arange(self.total_ticks, dtype=np.float64) * PERIOD
        # The small deployment is the first ``series`` rows of the big one.
        self.matrix = series_matrix(self.seed, s["big_series"], self.total_ticks)
        self.names = {
            "small": series_names(s["series"]), "big": series_names(s["big_series"]),
        }

    def _is_big(self, cycle: int) -> bool:
        """Every ``big_every``-th restart is of the big deployment, so the
        slowest tenth of the cycles are the big restarts, not whichever
        identical cycles a host hiccup landed on."""
        return cycle % self.sizes["big_every"] == self.sizes["big_every"] - 1

    def _open(self, journal_dir: str) -> ShardedStore:
        return ShardedStore(shards=2, replication=1, rollups=True, journal=journal_dir)

    def _crash_template(self, names: Tuple[str, ...]) -> str:
        """Journal directories of a deployment that died mid-write: every
        acked scrape fsynced, a tail handed to the OS but never synced, and
        one replica's tail torn inside those unsynced bytes."""
        s = self.sizes
        template = self.fresh_dir("template")
        victim = os.path.join(template, "shard0", "member1")
        batches = [
            SampleBatch(k * PERIOD, names, np.ascontiguousarray(self.matrix[:len(names), k]))
            for k in range(self.total_ticks)
        ]

        def journal_bytes() -> int:
            return sum(
                os.path.getsize(os.path.join(victim, f)) for f in os.listdir(victim)
            )

        store = self._open(template)
        for batch in batches[:s["acked_ticks"]]:
            store.ingest("fleet", batch)
        store.sync_journal()
        synced = journal_bytes()
        for batch in batches[s["acked_ticks"]:]:
            store.ingest("fleet", batch)
        for journaled in in_process_members(store):
            journaled.flush_journal()
        record = (journal_bytes() - synced) // s["unsynced_ticks"]
        del store, journaled  # crash: no close()
        gc.collect()
        # Five sixths of the unsynced records and half of the one before.
        torn = tear_wal_tail(
            victim, nbytes=record * (s["unsynced_ticks"] * 5 // 6) + record // 2
        )
        self.torn_bytes += torn.detail["torn_bytes"]
        return template

    def setup(self) -> None:
        s = self.sizes
        self.torn_bytes = 0
        templates = {kind: self._crash_template(names) for kind, names in self.names.items()}
        # One copy of a crashed deployment per cycle, made up front so the
        # timed section is one uninterrupted run of restarts; the spare big
        # one is for the oracle's untimed restart.
        kinds = [
            "big" if self._is_big(i) else "small"
            for i in range(s["warm_cycles"] + s["cycles"])
        ] + ["big"]
        self.crashed = []
        for kind in kinds:
            target = self.fresh_dir("crashed")
            shutil.copytree(templates[kind], os.path.join(target, "journal"))
            self.crashed.append((kind, target))
        for crashed in self.crashed[:s["warm_cycles"]]:
            self._restart_and_close(crashed)
        self.totals: Dict[str, int] = collections.Counter()

    def teardown(self) -> None:
        del self.crashed

    def _restart(self, crashed: Tuple[str, str]):
        """One restart up to (not including) ``close()``: replay the
        journals, repair the replicas, check every acked sample on every
        member, snapshot, reload the snapshot, compare.  Returns the
        recovered and the reloaded store and what the restart counted."""
        kind, root = crashed
        names = self.names[kind]
        acked = self.sizes["acked_ticks"]
        counted: Dict[str, int] = collections.Counter()
        with self.span("durability.replay"):
            store = self._open(os.path.join(root, "journal"))
            store.flush()
        sweep = store.anti_entropy(window_s=self.WINDOW_S)
        with self.span("harness.verify"):
            # Every member of a shard owes every series routed to that
            # shard; a series a member lacks altogether is ``acked`` lost.
            for i, name in enumerate(names):
                want = self.matrix[i, :acked]
                for member in store.replica_sets[store.shard_of(name)].members:
                    if name not in member:
                        counted["acked_samples_lost"] += acked
                        continue
                    _, values = member.query(name)
                    n = min(values.size, acked)
                    counted["acked_samples_lost"] += acked - int(
                        np.count_nonzero(values[:n] == want[:n])
                    )
        snapshot = os.path.join(root, "snapshot.npz")
        persistence.save_store(store, snapshot)
        reloaded = persistence.load_store(snapshot)
        with self.span("harness.compare"):
            for name in names:
                t0, v0 = store.query(name)
                t1, v1 = reloaded.query(name)
                if not (np.array_equal(t0, t1) and np.array_equal(v0, v1)):
                    counted["reload_mismatches"] += 1
        counted["recovered_samples"] = store.recovered_samples
        counted["repaired_windows"] = sweep["repaired_windows"]
        counted["torn_tail_drops"] = sum(
            m.recovery.torn_tail_drops for m in in_process_members(store)
        )
        return store, reloaded, counted

    def _restart_and_close(self, crashed: Tuple[str, str]) -> Dict[str, int]:
        store, reloaded, counted = self._restart(crashed)
        store.close()
        reloaded.close()
        return counted

    def timed(self) -> Timed:
        s = self.sizes
        tracer = self.tracer
        latencies: List[float] = []
        clock = time.perf_counter
        for i in range(s["warm_cycles"], s["warm_cycles"] + s["cycles"]):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            counted = self._restart_and_close(self.crashed[i])
            latencies.append(clock() - t0)
            self.totals.update(counted)
        snapshots = stored = 0
        for kind, root in self.crashed[s["warm_cycles"]:s["warm_cycles"] + s["cycles"]]:
            snapshots += sum(
                os.path.getsize(os.path.join(root, f))
                for f in os.listdir(root) if f.startswith("snapshot")
            )
            stored += len(self.names[kind]) * self.total_ticks
        self.snapshot_bytes, self.snapshot_samples = snapshots, stored
        return Timed(
            ops=self.totals["recovered_samples"], op_unit="samples",
            latencies_s=latencies, latency_op="restart cycle",
        )

    def counters(self) -> Dict[str, float]:
        s = self.sizes
        return {
            "cycles": s["cycles"],
            "big_cycles": sum(
                self._is_big(i) for i in range(s["warm_cycles"], s["warm_cycles"] + s["cycles"])
            ),
            "recovered_samples": self.totals["recovered_samples"],
            "repaired_windows": self.totals["repaired_windows"],
            "torn_tail_drops": self.totals["torn_tail_drops"],
            "torn_bytes": self.torn_bytes,
            "snapshot_bytes": self.snapshot_bytes,
        }

    def failures(self) -> Dict[str, int]:
        return {
            "acked_samples_lost": self.totals["acked_samples_lost"],
            "reload_mismatches": self.totals["reload_mismatches"],
        }

    def _reads(self):
        names = self.names["big"]
        rng = np.random.default_rng([self.seed, 4])
        horizon = self.times[-1]
        reads = []
        for _ in range(16):
            length = float(rng.choice((1800.0, 3 * 3600.0, horizon)))
            until = horizon - float(rng.random()) * (horizon - length)
            step = float(rng.choice((60.0, 600.0, 3600.0)))
            agg = str(rng.choice(("mean", "max", "min")))
            k = int(rng.choice((1, 4)))
            lo = int(rng.integers(0, len(names) - k + 1))
            reads.append((names[lo:lo + k], until - length, until, step, agg))
        return reads

    def answers(self) -> List[Tuple[str, object]]:
        """One more untimed restart of the big deployment; reads from the
        recovered deployment (federated) and from the reloaded snapshot."""
        store, reloaded, _ = self._restart(self.crashed[-1])
        out = []
        for label, source in (("recovered", store), ("reloaded", reloaded)):
            out += [(f"{label} history {n}", source.query(n)) for n in self.names["big"]]
            out += [
                (f"{label} read {read}", windowed_read(source, read))
                for read in self._reads()
            ]
        store.close()
        reloaded.close()
        return out

    def expected(self) -> List[Tuple[str, object]]:
        # The primaries were never torn, so the serving view holds every
        # scrape written before the crash, synced or not.
        names = self.names["big"]
        columns = {n: (self.times, self.matrix[i]) for i, n in enumerate(names)}
        oracle = plain_store(columns)
        out = []
        for label in ("recovered", "reloaded"):
            out += [(f"{label} history {n}", columns[n]) for n in names]
            out += [
                (f"{label} read {read}", windowed_read(oracle, read))
                for read in self._reads()
            ]
        return out

    def layer_values(self, timed: Timed) -> Dict[str, float]:
        return {
            "replica.repaired_windows": self.totals["repaired_windows"],
            "durability.replayed_samples": self.totals["recovered_samples"],
            "durability.torn_tail_drops": self.totals["torn_tail_drops"],
            "persistence.bytes_per_sample": self.snapshot_bytes / self.snapshot_samples,
        }


WORKLOADS = {cls.name: cls for cls in (IngestFleet, ServeTenants, LiveMixed, CrashRecover)}
