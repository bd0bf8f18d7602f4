"""Sharded-tier benchmark: ingest and federated-query scaling vs shard count.

Measures the distributed storage tier (``repro.telemetry.distributed``)
against the single ``TimeSeriesStore`` on the same workload and writes
``BENCH_sharding.json`` to ``benchmarks/output/``:

* **ingest** — hash-partitioned batch ingest at 1/2/4/8 shards vs the
  single store, the per-shard load split (the work per shard drops ~1/N,
  which is what a multi-backend deployment parallelizes), and the routing
  cost per batch as exact counts: once a shape is planned, no partitioner
  call and at most one replica-set write per shard,
* **federated queries** — resample/align across every series through the
  federation layer vs the single store (shared reduceat kernels, so the
  overhead is routing only), with bit-for-bit equality asserted,
* **failover** — query throughput with replication=1 after every primary
  is killed (reads served entirely by replicas),
* **fleet parallel ingest** — 10k-node scrapes through 1/2/8 process-parallel
  shard workers vs the single store, the same work on both sides (every
  run ends with a flush); the rates are recorded with the usable core
  count, not asserted against a floor.

The PR-2 single-store trajectory in ``BENCH_telemetry.json`` is produced
by ``test_bench_hotpath.py`` and is untouched by this module.

Like every benchmark module here, this one is meant to run as its own
pytest invocation (CI runs one module per job step): the timing floors are
calibrated for an otherwise-idle interpreter, and a whole-directory run on
a small box inherits allocator and scheduler pressure from the 30+ benches
before it.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.telemetry import (
    HashPartitioner,
    SampleBatch,
    ShardedStore,
    TimeSeriesStore,
)

SCALE = os.environ.get("BENCH_SCALE", "small")

SCALES: Dict[str, Dict] = {
    "small": dict(
        series=256, batches=150, query_series=64, query_samples=40_000,
        buckets=200, max_query_overhead=3.0,
        balance_factor=1.8, fleet_batches=40,
    ),
    "medium": dict(
        series=512, batches=400, query_series=128, query_samples=150_000,
        buckets=500, max_query_overhead=2.0,
        balance_factor=1.6, fleet_batches=80,
    ),
    "large": dict(
        series=1_000, batches=1_000, query_series=256, query_samples=400_000,
        buckets=1_000, max_query_overhead=1.5,
        balance_factor=1.5, fleet_batches=150,
    ),
}

# The fleet benchmark keeps 10k+ simulated nodes at every scale — the node
# count IS the claim (a fleet-wide scrape per tick); only the number of
# scrape ticks shrinks at reduced scale.
FLEET_NODES = 10_240

P = SCALES[SCALE]
SHARD_COUNTS = (1, 2, 4, 8)

RESULTS: Dict[str, Dict] = {
    "scale": SCALE,
    "params": {k: v for k, v in P.items() if not k.startswith("max_")},
}


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _make_batches(n_series: int, n_batches: int) -> List[SampleBatch]:
    names = tuple(f"cluster.rack{i % 16}.node{i}.power" for i in range(n_series))
    rng = np.random.default_rng(7)
    return [
        SampleBatch(float(t), names, rng.random(n_series))
        for t in range(n_batches)
    ]


def _routing_counts(shards: int, batches: List[SampleBatch]) -> Dict[str, float]:
    """Partitioner and ``ReplicaSet.ingest`` calls per batch, after the
    first batch has planned the shape."""
    partitioner = HashPartitioner(shards)
    calls = {"partitioner": 0, "replica_ingest": 0}

    def route(name: str) -> int:
        calls["partitioner"] += 1
        return partitioner(name)

    store = ShardedStore(shards=shards, partitioner=route)
    store.ingest("c", batches[0])
    for rs in store.replica_sets:
        def counted(topic, batch, _ingest=rs.ingest):
            calls["replica_ingest"] += 1
            return _ingest(topic, batch)

        rs.ingest = counted
    calls["partitioner"] = 0
    for b in batches[1:]:
        store.ingest("c", b)
    return {
        f"{key}_calls_per_batch": count / (len(batches) - 1)
        for key, count in calls.items()
    }


def test_bench_sharded_ingest():
    """Ingest wall-clock and per-shard load split at 1/2/4/8 shards."""
    batches = _make_batches(P["series"], P["batches"])
    total = P["series"] * P["batches"]
    repeats = 1 if SCALE == "large" else 2

    def run_single():
        store = TimeSeriesStore()
        for b in batches:
            store.ingest("c", b)
        store.flush()
        return store

    single_s = _best_of(run_single, repeats=repeats)
    out: Dict[str, Dict] = {
        "single": {
            "seconds": round(single_s, 4),
            "samples_per_sec": round(total / single_s),
        }
    }

    for shards in SHARD_COUNTS:
        def run_sharded():
            store = ShardedStore(shards=shards)
            for b in batches:
                store.ingest("c", b)
            store.flush()
            return store

        sharded_s = _best_of(run_sharded, repeats=repeats)
        store = run_sharded()
        per_shard = [
            rs.primary.samples_ingested for rs in store.replica_sets
        ]
        counts = _routing_counts(shards, batches)
        out[f"shards_{shards}"] = {
            "seconds": round(sharded_s, 4),
            "samples_per_sec": round(total / sharded_s),
            "overhead_vs_single": round(sharded_s / single_s, 2),
            "max_shard_samples": max(per_shard),
            "mean_shard_samples": round(total / shards),
            **counts,
        }
        # Hash balance: no shard holds more than balance_factor x its share.
        assert max(per_shard) <= P["balance_factor"] * total / shards, per_shard
        # Work per shard shrinks ~1/N: that is what real deployments
        # parallelize across backend nodes.
        assert sum(per_shard) == total
        # The split is planned once per shape: afterwards a batch costs no
        # partitioner call and one replica-set write per shard it touches.
        assert counts["partitioner_calls_per_batch"] == 0, counts
        assert counts["replica_ingest_calls_per_batch"] <= shards, counts

    RESULTS["ingest"] = {"samples": total, **out}


def test_bench_federated_queries():
    """Federated resample/align vs single store: equality + bounded cost."""
    n_series = P["query_series"]
    per_series = P["query_samples"] // n_series
    names = [f"fed.rack{i % 8}.node{i}.power" for i in range(n_series)]
    times = np.arange(per_series, dtype=np.float64)
    rng = np.random.default_rng(3)
    columns = [rng.random(per_series) for _ in names]

    single = TimeSeriesStore()
    for name, col in zip(names, columns):
        single.append_many(name, times, col)
    step = per_series / P["buckets"]

    single_resample_s = _best_of(
        lambda: [single.resample(n, 0.0, float(per_series), step) for n in names]
    )
    single_align_s = _best_of(
        lambda: single.align(names, 0.0, float(per_series), step)
    )
    out: Dict[str, Dict] = {
        "single": {
            "resample_s": round(single_resample_s, 5),
            "align_s": round(single_align_s, 5),
        }
    }

    worst = 0.0
    for shards in SHARD_COUNTS:
        sharded = ShardedStore(shards=shards)
        for name, col in zip(names, columns):
            sharded.append_many(name, times, col)

        resample_s = _best_of(
            lambda: [
                sharded.resample(n, 0.0, float(per_series), step) for n in names
            ]
        )
        align_s = _best_of(
            lambda: sharded.align(names, 0.0, float(per_series), step)
        )
        # Federated results are bit-for-bit the single-store results.
        _, ref = single.align(names, 0.0, float(per_series), step)
        _, fed = sharded.align(names, 0.0, float(per_series), step)
        np.testing.assert_array_equal(ref, fed)

        overhead = max(
            resample_s / single_resample_s, align_s / single_align_s
        )
        worst = max(worst, overhead)
        out[f"shards_{shards}"] = {
            "resample_s": round(resample_s, 5),
            "align_s": round(align_s, 5),
            "overhead_vs_single": round(overhead, 2),
        }

    RESULTS["federated_query"] = {
        "series": n_series, "samples_per_series": per_series, **out,
    }
    # Federation shares the reduceat kernels; only routing is added, so the
    # cost must stay within a small factor of the single store.
    assert worst <= P["max_query_overhead"], RESULTS["federated_query"]


def test_bench_failover_queries():
    """Replicated reads survive a full primary wipe-out at full speed."""
    n_series = P["query_series"]
    per_series = P["query_samples"] // n_series
    names = [f"ha.node{i}.power" for i in range(n_series)]
    times = np.arange(per_series, dtype=np.float64)
    rng = np.random.default_rng(9)

    sharded = ShardedStore(shards=4, replication=1)
    for name in names:
        sharded.append_many(name, times, rng.random(per_series))

    def query_all():
        for name in names:
            sharded.query(name)

    healthy_s = _best_of(query_all)
    for rs in sharded.replica_sets:
        rs.mark_down(0)  # kill every primary; replicas serve all reads
    failover_s = _best_of(query_all)

    for name in names:  # every query still answers, from replicas
        t, _ = sharded.query(name)
        assert t.size == per_series

    RESULTS["failover"] = {
        "series": n_series,
        "healthy_s": round(healthy_s, 5),
        "all_primaries_down_s": round(failover_s, 5),
        "overhead": round(failover_s / healthy_s, 2),
        "failover_reads": sum(rs.failover_reads for rs in sharded.replica_sets),
    }
    assert RESULTS["failover"]["failover_reads"] > 0


def test_bench_fleet_parallel_ingest(monkeypatch):
    """Fleet-scale scrape ingest: parallel shard workers vs single store.

    One batch = one fleet-wide scrape of 10k+ node power sensors.  The
    parallel runtime pushes raw slots into shared-memory rings and each
    worker stages them in its member stores' columnar blocks, off the
    producer's process; the single store stages the same way in-process.
    """
    from repro.telemetry.runtime import parallel as parallel_runtime

    # A 512-slot ring (the runtime runs 256): a whole timed run fits
    # without backpressure, so the producer side is what gets measured.
    monkeypatch.setattr(parallel_runtime, "RING_CAPACITY", 512)
    n_batches = P["fleet_batches"]
    names = tuple(
        f"fleet.rack{i // 64}.node{i}.power" for i in range(FLEET_NODES)
    )
    rng = np.random.default_rng(17)
    values = [rng.random(FLEET_NODES) for _ in range(n_batches)]
    # Both sides ingest the same sequence of timed runs into one store and
    # keep their best run, so first-run costs (series creation, the
    # workers' copy-on-write faults) and buffer growth land on both alike.
    n_runs = 2 if SCALE == "large" else 4
    # Each run ingests a fresh, strictly-later time range: stores reject
    # (single) or shed (worker) re-ingest of old timestamps, so reusing one
    # range would time the discard path, not ingest.
    runs = [
        [
            SampleBatch(float(rep * n_batches + t), names, values[t])
            for t in range(n_batches)
        ]
        for rep in range(n_runs)
    ]
    total = FLEET_NODES * n_batches

    def best_run(store):
        """Best whole-run seconds, and the best time spent in ``ingest``
        calls alone (on the parallel side: the producer's split + push)."""
        best = best_ingest = float("inf")
        for run in runs:
            t0 = time.perf_counter()
            for b in run:
                store.ingest("c", b)
            t1 = time.perf_counter()
            # Every staged row reaches the columnar arrays inside the
            # window (on the parallel side a flush also waits for every
            # pushed slot to be applied).
            store.flush()
            best = min(best, time.perf_counter() - t0)
            best_ingest = min(best_ingest, t1 - t0)
        return best, best_ingest

    import gc

    gc.collect()
    single = TimeSeriesStore()
    single_s, single_ingest_s = best_run(single)
    out: Dict[str, Dict] = {
        "single": {
            "seconds": round(single_s, 4),
            "ingest_calls_seconds": round(single_ingest_s, 4),
            "samples_per_sec": round(total / single_s),
        }
    }

    for shards in (1, 2, 8):
        gc.collect()
        store = ShardedStore(shards=shards, parallel=True)
        try:
            best, best_ingest = best_run(store)
            # Parity spot-check: the workers hold exactly what the single
            # store holds.
            for name in (names[0], names[FLEET_NODES // 2], names[-1]):
                t_ref, v_ref = single.query(name)
                t_par, v_par = store.query(name)
                np.testing.assert_array_equal(t_ref, t_par)
                np.testing.assert_array_equal(v_ref, v_par)
            rt = store.runtime
            assert rt.dropped_batches == 0, "fleet bench must not shed load"
            for shard in range(shards):
                assert rt.shard_stats(shard)["ingest_errors"] == 0
            out[f"parallel_shards_{shards}"] = {
                "seconds": round(best, 4),
                "ingest_calls_seconds": round(best_ingest, 4),
                "samples_per_sec": round(total / best),
                "speedup_vs_single": round(single_s / best, 2),
                "pushed_slots": rt.pushed_slots,
                "backpressure_waits": rt.backpressure_waits,
            }
        finally:
            store.close()

    # Recorded, not asserted: both sides stage the same columnar blocks,
    # so the workers can win only with spare cores, and the producer's
    # split + push alone costs about as much as the single store's whole
    # ingest (``ingest_calls_seconds``), which caps the speedup near 1x.
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        cores = os.cpu_count() or 1
    RESULTS["fleet_parallel"] = {
        "nodes": FLEET_NODES, "scrapes": n_batches, "samples": total,
        "usable_cores": cores, **out,
    }


def test_write_bench_artifact(write_artifact):
    """Runs last in this module: persist the sharding scaling artifact."""
    RESULTS["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_artifact("BENCH_sharding.json", json.dumps(RESULTS, indent=2) + "\n")
    missing = {
        "ingest", "federated_query", "failover", "fleet_parallel",
    } - set(RESULTS)
    assert not missing, f"benchmarks did not run: {missing}"
