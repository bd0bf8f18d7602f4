"""Hot-path benchmark harness: ingest, resample/align kernels, bus routing,
rollup tier serving and the cold tier.

Records absolute timings of the telemetry hot path (staged batch ingest
with retention, ``reduceat`` resample/align kernels, indexed bus routing)
next to a correctness check of each result, and writes
``BENCH_telemetry.json`` to ``benchmarks/output/`` so future PRs have a
performance trajectory to compare against.  The end-to-end, layer-attributed
ruler is ``bench_e2e/``; this file is the component view.

Scale is selected with the ``BENCH_SCALE`` env var:

* ``small``  — CI smoke (~seconds),
* ``medium`` — local iteration,
* ``large``  — 1M+ samples across 1k series with retention enabled.
"""

from __future__ import annotations

import fnmatch
import json
import os
import platform
import time
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.telemetry import MessageBus, SampleBatch, TimeSeriesStore

SCALE = os.environ.get("BENCH_SCALE", "small")

SCALES: Dict[str, Dict] = {
    "small": dict(
        series=200, batches=200, retention_batches=50,
        resample_samples=100_000, resample_buckets=500,
        align_series=8, align_samples=50_000,
        bus_subs=24, bus_publishes=3_000,
        rollup_days=30, rollup_period_s=2.0,
        min_rollup_speedup=5.0, min_archive_ratio=4.0,
    ),
    "medium": dict(
        series=500, batches=600, retention_batches=150,
        resample_samples=400_000, resample_buckets=1_000,
        align_series=12, align_samples=200_000,
        bus_subs=40, bus_publishes=10_000,
        rollup_days=60, rollup_period_s=1.0,
        min_rollup_speedup=5.0, min_archive_ratio=4.0,
    ),
    "large": dict(
        series=1_000, batches=1_000, retention_batches=250,
        resample_samples=1_000_000, resample_buckets=1_000,
        align_series=16, align_samples=400_000,
        bus_subs=50, bus_publishes=20_000,
        rollup_days=120, rollup_period_s=1.0,
        min_rollup_speedup=5.0, min_archive_ratio=4.0,
    ),
}

P = SCALES[SCALE]

#: Aggregated across the tests in this module; written out at the end.
RESULTS: Dict[str, Dict] = {
    "scale": SCALE,
    "params": {k: v for k, v in P.items() if not k.startswith("min_")},
}


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best wall-clock of ``repeats`` runs (amortizes scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------
def _make_batches(n_series: int, n_batches: int) -> List[SampleBatch]:
    names = tuple(f"cluster.n{i}.power" for i in range(n_series))
    rng = np.random.default_rng(42)
    return [
        SampleBatch(float(t), names, rng.random(n_series))
        for t in range(n_batches)
    ]


def test_bench_batch_ingest():
    """Batch ingest with retention: staged, flushed in vectorized chunks."""
    batches = _make_batches(P["series"], P["batches"])
    retention = float(P["retention_batches"])  # batches are 1 s apart
    total = P["series"] * P["batches"]

    def run_batched():
        store = TimeSeriesStore(retention=retention)
        for b in batches:
            store.ingest("cluster", b)
        store.flush()
        return store

    batched_s = _best_of(run_batched, repeats=1 if SCALE == "large" else 2)

    # Every series holds exactly the retention window, newest sample last.
    batched = run_batched()
    expected = np.arange(P["batches"] - retention - 1, P["batches"])
    for i in (0, P["series"] // 2, P["series"] - 1):
        times, values = batched.query(f"cluster.n{i}.power")
        np.testing.assert_array_equal(times, expected)
        np.testing.assert_array_equal(
            values, [batches[int(t)].values[i] for t in expected])

    RESULTS["ingest"] = {
        "samples": total,
        "series": P["series"],
        "retention_s": retention,
        "batched_s": round(batched_s, 4),
        "batched_samples_per_sec": round(total / batched_s),
    }


def test_bench_resample_kernels():
    """Single-series downsampling on the reduceat kernels."""
    n = P["resample_samples"]
    store = TimeSeriesStore()
    store.append_many("m", np.arange(n, dtype=np.float64),
                      np.random.default_rng(0).random(n))
    step = n / P["resample_buckets"]
    out: Dict[str, Dict] = {}
    for agg in ("mean", "max", "sum"):
        vector_s = _best_of(
            lambda: store.resample("m", 0.0, float(n), step, agg=agg))
        out[agg] = {"vectorized_s": round(vector_s, 5)}
    RESULTS["resample"] = {"samples": n, "buckets": P["resample_buckets"], **out}
    _, counts = store.resample("m", 0.0, float(n), step, agg="count")
    assert counts.size == P["resample_buckets"] and counts.sum() == n


def test_bench_align():
    """Multi-series alignment: one shared edge grid, one kernel pass each."""
    n_series = P["align_series"]
    per_series = P["align_samples"] // n_series
    names = [f"s{i}" for i in range(n_series)]
    store = TimeSeriesStore()
    rng = np.random.default_rng(1)
    for name in names:
        store.append_many(name, np.arange(per_series, dtype=np.float64),
                          rng.random(per_series))
    step = per_series / 500.0

    vector_s = _best_of(
        lambda: store.align(names, 0.0, float(per_series), step))

    RESULTS["align"] = {
        "series": n_series,
        "samples_per_series": per_series,
        "vectorized_s": round(vector_s, 5),
    }
    grid, matrix = store.align(names, 0.0, float(per_series), step)
    assert matrix.shape == (grid.size, n_series) and np.isfinite(matrix).all()


def test_bench_bus_routing():
    """Indexed topic routing, checked against a plain fnmatch count."""
    racks = 8
    topics = [f"cluster.rack{r}.node{i}" for r in range(racks) for i in range(4)]
    batch = SampleBatch.from_mapping(0.0, {"m": 1.0})
    patterns = [f"cluster.rack{i % racks}.*" for i in range(P["bus_subs"] - 2)]
    patterns += ["#", "telemetry.*"]

    indexed = MessageBus()
    for pattern in patterns:
        indexed.subscribe(pattern, lambda t, b: None)

    def run():
        for i in range(P["bus_publishes"]):
            indexed.publish(topics[i % len(topics)], batch)

    indexed_s = _best_of(run)

    # Same routing decisions as matching every pattern on every publish.
    matches = {
        topic: sum(p == "#" or fnmatch.fnmatchcase(topic, p) for p in patterns)
        for topic in topics
    }
    per_run = sum(
        matches[topics[i % len(topics)]] for i in range(P["bus_publishes"])
    )
    runs = indexed.published // P["bus_publishes"]
    assert indexed.delivered == per_run * runs

    RESULTS["bus"] = {
        "subscriptions": P["bus_subs"],
        "publishes": P["bus_publishes"],
        "indexed_s": round(indexed_s, 4),
        "indexed_publishes_per_sec": round(P["bus_publishes"] / indexed_s),
    }


def _telemetry_series(days: float, period: float, seed: int = 7):
    """Year-scale-ish telemetry: regular cadence, quarter-rounded values
    (what a real power/temperature sensor emits)."""
    times = np.arange(0.0, days * 86400.0, period)
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(220.0, 8.0, times.size) * 4) / 4
    return times, values


def test_bench_rollup_tier_serving():
    """1h-bucket query over a month-plus of samples: materialized rollup
    tiers vs reducing the raw array on every query."""
    days = float(P["rollup_days"])
    times, values = _telemetry_series(days, P["rollup_period_s"])
    tiered = TimeSeriesStore(rollups=True)
    tiered.append_many("rack.power", times, values)
    raw = TimeSeriesStore()
    raw.append_many("rack.power", times, values)
    until = days * 86400.0

    def run_tiered():
        return tiered.resample("rack.power", 0.0, until, 3600.0, agg="mean")

    def run_raw():
        return raw.resample("rack.power", 0.0, until, 3600.0, agg="mean")

    # Tier-served answers must be bit-identical to the raw reduction.
    g1, r1 = run_tiered()
    g2, r2 = run_raw()
    np.testing.assert_array_equal(r1.view(np.uint64), r2.view(np.uint64))

    tiered_s = _best_of(run_tiered, repeats=5)
    raw_s = _best_of(run_raw, repeats=5)
    snap = tiered.rollups.metrics.snapshot()
    speedup = raw_s / tiered_s
    RESULTS["rollup"] = {
        "days": days,
        "samples": int(times.size),
        "query_step_s": 3600.0,
        "buckets": int(r1.size),
        "raw_s": round(raw_s, 5),
        "tiered_s": round(tiered_s, 5),
        "speedup": round(speedup, 2),
        "tier_hits": snap.get("telemetry.rollup.tier_hits", 0.0),
        "buckets_finalized": snap.get(
            "telemetry.rollup.buckets_finalized", 0.0),
    }
    assert snap.get("telemetry.rollup.tier_hits", 0.0) > 0, RESULTS["rollup"]
    assert speedup >= P["min_rollup_speedup"], RESULTS["rollup"]


def _wide_series(days: float, period: float, seed: int = 9):
    """Node power with a daily cycle and 10 mW rounding — the shape the
    read-path workload serves, whose XOR window spans 50+ bits."""
    times = np.arange(0.0, days * 86400.0, period)
    rng = np.random.default_rng(seed)
    cycle = 1.0 + 0.2 * np.sin(times * (2 * np.pi / 86400.0))
    values = np.round(250.0 * cycle + rng.normal(0.0, 2.0, times.size), 2)
    return times, values


@pytest.mark.parametrize("case", ["narrow", "wide"])
def test_bench_archive_cold_tier(case):
    """Cold-tier columnar compression ratio + decode (scan) throughput, at
    a narrow XOR window (quarter-rounded values) and a wide one."""
    days = float(P["rollup_days"])
    series = _telemetry_series if case == "narrow" else _wide_series
    times, values = series(days, P["rollup_period_s"], seed=9)
    store = TimeSeriesStore(archive=True, retention=3600.0)
    store.append_many("rack.power", times, values)

    archive = store.archive
    assert archive.chunk_count() > 0
    ratio = archive.compression_ratio

    def run_scan():
        return archive.scan("rack.power", float("-inf"), float("inf"))

    scan_t, scan_v = run_scan()
    scan_s = _best_of(run_scan, repeats=5)

    # Demotion conserves samples: cold + hot covers everything ingested.
    hot_t, _ = store.query("rack.power")
    assert scan_t.size + np.sum(hot_t > scan_t[-1]) == times.size
    value_width = max(c.v_params["width"] for c in archive.chunks("rack.power"))

    RESULTS.setdefault("archive", {})[case] = {
        "days": days,
        "samples": int(times.size),
        "cold_samples": int(scan_t.size),
        "chunks": archive.chunk_count(),
        "value_width_bits": value_width,
        "raw_bytes": archive.raw_bytes,
        "encoded_bytes": archive.encoded_bytes,
        "compression_ratio": round(ratio, 2),
        "scan_s": round(scan_s, 5),
        "scan_samples_per_sec": round(scan_t.size / scan_s),
    }
    if case == "wide":
        assert value_width >= 50, RESULTS["archive"][case]
    else:
        assert ratio >= P["min_archive_ratio"], RESULTS["archive"][case]


def test_write_bench_artifact(write_artifact):
    """Runs last in this module: persist the perf trajectory artifact."""
    RESULTS["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_artifact("BENCH_telemetry.json", json.dumps(RESULTS, indent=2) + "\n")
    missing = ({"ingest", "resample", "align", "bus", "rollup", "archive"}
               - set(RESULTS))
    missing |= {"narrow", "wide"} - set(RESULTS.get("archive", {}))
    assert not missing, f"benchmarks did not run: {missing}"
