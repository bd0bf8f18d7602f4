"""Durability benchmark harness: WAL overhead, recovery replay, repair.

Validates the durability layer's three performance claims and writes
``BENCH_durability.json`` so future PRs have a trajectory to compare
against:

* journaled ingest stays within a bounded overhead of journal-off ingest
  on the vectorized hot path (the WAL appends one framed record per
  batch, it must not serialize per sample),
* crash recovery replays the journal at bulk rates (vectorized MANY /
  BLOCK records, not per-sample appends),
* anti-entropy detects and repairs a diverged replica in time linear in
  the number of *differing* windows, not in store size.

Scale is selected with the ``BENCH_SCALE`` env var (small/medium/large;
``large`` carries the acceptance numbers: <=15% WAL overhead and >=1M
samples/s replay).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import time
from typing import Callable, Dict

import numpy as np

from repro.telemetry import SampleBatch, TimeSeriesStore
from repro.telemetry.distributed import ReplicaSet

SCALE = os.environ.get("BENCH_SCALE", "small")

SCALES: Dict[str, Dict] = {
    # Small scales are CI smoke: correctness plus loose sanity bounds
    # (tiny runs are dominated by fixed costs and scheduler noise).
    "small": dict(
        series=100, batches=400,
        replay_series=50, replay_chunks=60, replay_chunk=2_000,
        ae_series=40, ae_samples=2_000, ae_window_s=600.0,
        max_wal_overhead=0.60, min_replay_rate=200_000.0,
    ),
    "medium": dict(
        series=300, batches=1_500,
        replay_series=100, replay_chunks=150, replay_chunk=4_000,
        ae_series=100, ae_samples=5_000, ae_window_s=600.0,
        max_wal_overhead=0.30, min_replay_rate=600_000.0,
    ),
    "large": dict(
        series=1_000, batches=3_000,
        replay_series=200, replay_chunks=250, replay_chunk=8_000,
        ae_series=200, ae_samples=10_000, ae_window_s=600.0,
        max_wal_overhead=0.15, min_replay_rate=1_000_000.0,
    ),
}

P = SCALES[SCALE]

RESULTS: Dict[str, Dict] = {
    "scale": SCALE,
    "params": {k: v for k, v in P.items()
               if not k.startswith(("min_", "max_"))},
}


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _ingest_run(journal_dir) -> float:
    """One full batch-ingest run; returns elapsed seconds."""
    names = tuple(f"bench.wal.s{i:04d}" for i in range(P["series"]))
    rng = np.random.default_rng(7)
    batches = [
        SampleBatch(float(t), names, rng.normal(100.0, 10.0, len(names)))
        for t in range(P["batches"])
    ]
    store = TimeSeriesStore(journal=journal_dir)
    t0 = time.perf_counter()
    for batch in batches:
        store.ingest("bench", batch)
    store.flush()
    if journal_dir:
        store.flush_journal()
    elapsed = time.perf_counter() - t0
    store.close()
    return elapsed


def test_wal_ingest_overhead(tmp_path):
    """Journaled batch ingest stays within the overhead budget."""
    base = min(_ingest_run(None) for _ in range(3))
    walled = float("inf")
    for i in range(3):
        wal_dir = str(tmp_path / f"wal{i}")
        walled = min(walled, _ingest_run(wal_dir))
        shutil.rmtree(wal_dir, ignore_errors=True)
    overhead = walled / base - 1.0
    samples = P["series"] * P["batches"]
    RESULTS["wal_overhead"] = {
        "samples": samples,
        "baseline_s": round(base, 5),
        "journaled_s": round(walled, 5),
        "overhead_fraction": round(overhead, 4),
        "journaled_samples_per_sec": round(samples / walled),
    }
    assert overhead <= P["max_wal_overhead"], RESULTS["wal_overhead"]


def test_recovery_replay_rate(tmp_path):
    """Crash recovery replays the journal at bulk (vectorized) rates."""
    wal_dir = str(tmp_path / "replay-wal")
    store = TimeSeriesStore(journal=wal_dir)
    rng = np.random.default_rng(11)
    chunk = P["replay_chunk"]
    clock = 0.0
    for _ in range(P["replay_chunks"]):
        for s in range(P["replay_series"]):
            times = clock + np.arange(chunk, dtype=np.float64)
            store.append_many(
                f"bench.replay.s{s:03d}", times,
                rng.normal(50.0, 5.0, chunk),
            )
        clock += chunk
    store.flush_journal()
    total = store.samples_ingested
    # Abandon the store without closing: the journal is the only copy, as
    # after a crash.  Recovery replays every record into a fresh store.
    del store

    t0 = time.perf_counter()
    recovered = TimeSeriesStore(journal=wal_dir)
    elapsed = time.perf_counter() - t0
    stats = recovered.recovery
    rate = stats.replayed_samples / elapsed
    RESULTS["recovery"] = {
        "journaled_samples": int(total),
        "replayed_samples": int(stats.replayed_samples),
        "replayed_records": int(stats.replayed_records),
        "segments": int(stats.segments),
        "replay_s": round(elapsed, 5),
        "replay_samples_per_sec": round(rate),
    }
    assert stats.replayed_samples == total, RESULTS["recovery"]
    assert rate >= P["min_replay_rate"], RESULTS["recovery"]
    recovered.close()


def test_anti_entropy_latency():
    """Detect + repair of a diverged replica, timed per differing window."""
    rs = ReplicaSet(0, replication=1)
    names = [f"bench.ae.s{i:03d}" for i in range(P["ae_series"])]
    rng = np.random.default_rng(13)
    n = P["ae_samples"]
    times = np.arange(n, dtype=np.float64)
    for name in names:
        rs.append_many(name, times, rng.normal(10.0, 2.0, n))
    rs.flush()

    # Clean sweep first: divergence scan over an in-sync set (detect cost).
    clean_s = _best_of(
        lambda: rs.anti_entropy(window_s=P["ae_window_s"], now=float(n))
    )

    # Diverge the replica: it misses a late slice of writes, then comes
    # back *without* a full resync — anti-entropy must find the hole.
    rs.mark_down(1)
    hole = np.arange(n, n + n // 4, dtype=np.float64)
    for name in names:
        rs.append_many(name, hole, rng.normal(10.0, 2.0, hole.size))
    rs.flush()
    rs.revive(1, resync=False)

    t0 = time.perf_counter()
    summary = rs.anti_entropy(window_s=P["ae_window_s"], now=float(n + n // 4))
    repair_s = time.perf_counter() - t0
    repaired = int(summary["repaired_windows"])
    RESULTS["anti_entropy"] = {
        "series": len(names),
        "samples_per_member": int(n + n // 4),
        "clean_sweep_s": round(clean_s, 5),
        "diverged_windows": int(summary["diverged_windows"]),
        "repaired_windows": repaired,
        "repaired_samples": int(summary["repaired_samples"]),
        "repair_sweep_s": round(repair_s, 5),
        "repair_s_per_window": round(repair_s / max(repaired, 1), 6),
    }
    assert repaired > 0, RESULTS["anti_entropy"]
    # The repaired replica must verify clean on the next sweep.
    after = rs.anti_entropy(window_s=P["ae_window_s"], now=float(n + n // 4))
    assert after["diverged_windows"] == 0, after


def test_write_bench_artifact(write_artifact):
    """Runs last in this module: persist the durability perf artifact."""
    RESULTS["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_artifact("BENCH_durability.json", json.dumps(RESULTS, indent=2) + "\n")
    missing = {"wal_overhead", "recovery", "anti_entropy"} - set(RESULTS)
    assert not missing, f"benchmarks did not run: {missing}"
