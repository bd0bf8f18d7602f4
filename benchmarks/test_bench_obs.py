"""Observability overhead benchmark: tracing off must be ~free, on must be
cheap.

The PR-4 acceptance criterion: instrumented hot paths (store ingest,
resample) with ``OBS`` **disabled** cost no more than a branch over calling
the private implementations directly, and with ``OBS`` **enabled** the
span + histogram machinery stays under 5% at production-shaped operation
sizes (thousand-metric scrape batches, million-sample resample windows).
Writes ``BENCH_obs.json`` to ``benchmarks/output/`` so the trajectory is
tracked like the other perf artifacts.

Baselines call the private ``_stage`` / ``_resample_impl`` methods — the
exact code paths the public entry points wrap — so the comparison isolates
the instrumentation itself.

Measurement note: shared runners drift (CPU frequency decays over a run;
sibling jobs evict caches), and the drift is far larger than the ~µs span
cost, so timing each config as one contiguous block systematically
penalizes whichever config hits the slow window.  Instead every operation
is timed individually in a round-robin over the configs — adjacent in
time, so all configs see the same machine state — and each operation's
minimum across passes is summed per config, letting every op find its own
quiet window.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List

import numpy as np

from repro.obs import OBS
from repro.telemetry import SampleBatch, TimeSeriesStore

SCALE = os.environ.get("BENCH_SCALE", "small")

#: Operation sizes match production use: scrapes publish hundreds-to-
#: thousands of metrics per batch, and resample windows cover hours of
#: high-rate data, so the per-operation span cost amortizes as deployed.
#: The resample window is deliberately large: the multi-MB bucket sweep
#: evicts the span path from cache, so enter/exit runs cold (~10x its
#: tight-loop cost) — the honest per-call price, which the window size
#: must dominate.
SCALES: Dict[str, Dict] = {
    "small": dict(series=1_000, batches=100, resample_samples=2_000_000,
                  resample_buckets=1_000, resample_iters=8, repeats=20),
    "medium": dict(series=1_000, batches=300, resample_samples=2_000_000,
                   resample_buckets=1_000, resample_iters=12, repeats=25),
    "large": dict(series=2_000, batches=500, resample_samples=4_000_000,
                  resample_buckets=1_000, resample_iters=12, repeats=30),
}

P = SCALES[SCALE]

#: Overhead ceilings (ratios).  "off" is one attribute load + branch per
#: call — indistinguishable from timer noise; "on" pays span construction +
#: a histogram observe per operation.  Both must stay under 5%.
MAX_OFF_OVERHEAD = 1.05
MAX_ON_OVERHEAD = 1.05

RESULTS: Dict[str, Dict] = {
    "scale": SCALE,
    "params": dict(P),
    "ceilings": {"off": MAX_OFF_OVERHEAD, "on": MAX_ON_OVERHEAD},
}

#: One benchmark config: {"name", "enabled", "op"} plus scratch state.
#: ``op(config, i)`` performs the i-th operation for that config.
Config = Dict[str, object]


def _interleaved(
    configs: List[Config],
    n_ops: int,
    repeats: int,
    setup: Callable[[Config], None] = lambda c: None,
) -> Dict[str, float]:
    """Per-operation round-robin timing (see module note).

    Each pass runs ``setup`` per config untimed, then times every op
    individually with the configs rotating at op granularity; each op's
    minimum across passes is summed per config.  ``OBS`` is left disabled.
    """
    best = {c["name"]: [float("inf")] * n_ops for c in configs}
    try:
        for _ in range(repeats):
            for c in configs:
                setup(c)
            for i in range(n_ops):
                for c in configs:
                    OBS.enabled = c["enabled"]
                    op = c["op"]
                    t0 = time.perf_counter()
                    op(c, i)
                    elapsed = time.perf_counter() - t0
                    if elapsed < best[c["name"]][i]:
                        best[c["name"]][i] = elapsed
    finally:
        OBS.disable()
    return {name: sum(mins) for name, mins in best.items()}


def _make_batches(n_series: int, n_batches: int) -> List[SampleBatch]:
    names = tuple(f"cluster.n{i}.power" for i in range(n_series))
    rng = np.random.default_rng(7)
    return [
        SampleBatch(float(t), names, rng.random(n_series))
        for t in range(n_batches)
    ]


def _overhead_row(baseline_s: float, off_s: float, on_s: float, **extra):
    return {
        "baseline_s": round(baseline_s, 5),
        "obs_off_s": round(off_s, 5),
        "obs_on_s": round(on_s, 5),
        "off_overhead": round(off_s / baseline_s, 4),
        "on_overhead": round(on_s / baseline_s, 4),
        **extra,
    }


def test_bench_ingest_overhead():
    """Batch ingest: uninstrumented baseline vs OBS off vs OBS on."""
    batches = _make_batches(P["series"], P["batches"])
    total = P["series"] * P["batches"]

    def fresh_store(config: Config) -> None:
        config["store"] = TimeSeriesStore()

    def private_op(config: Config, i: int) -> None:
        b = batches[i]
        config["store"]._stage(tuple(b.names), b.time, b.values)

    def public_op(config: Config, i: int) -> None:
        config["store"].ingest("cluster", batches[i])

    OBS.reset()
    assert not OBS.enabled
    times = _interleaved(
        [
            {"name": "baseline", "enabled": False, "op": private_op},
            {"name": "off", "enabled": False, "op": public_op},
            {"name": "on", "enabled": True, "op": public_op},
        ],
        P["batches"],
        P["repeats"],
        setup=fresh_store,
    )
    OBS.reset()
    baseline_s, off_s, on_s = times["baseline"], times["off"], times["on"]

    RESULTS["ingest"] = _overhead_row(
        baseline_s, off_s, on_s,
        samples=total,
        samples_per_sec_on=round(total / on_s),
    )
    assert off_s / baseline_s <= MAX_OFF_OVERHEAD, RESULTS["ingest"]
    assert on_s / baseline_s <= MAX_ON_OVERHEAD, RESULTS["ingest"]


def test_bench_resample_overhead():
    """Resample: the span wraps one large vectorized call, so the relative
    cost must vanish."""
    n = P["resample_samples"]
    store = TimeSeriesStore()
    store.append_many("m", np.arange(n, dtype=np.float64),
                      np.random.default_rng(0).random(n))
    step = n / P["resample_buckets"]
    store.resample("m", 0.0, float(n), step, agg="mean")  # warm caches

    def baseline_op(config: Config, i: int) -> None:
        store._resample_impl("m", 0.0, float(n), step, "mean")

    def public_op(config: Config, i: int) -> None:
        store.resample("m", 0.0, float(n), step, agg="mean")

    OBS.reset()
    times = _interleaved(
        [
            {"name": "baseline", "enabled": False, "op": baseline_op},
            {"name": "off", "enabled": False, "op": public_op},
            {"name": "on", "enabled": True, "op": public_op},
        ],
        P["resample_iters"],
        P["repeats"],
    )
    OBS.reset()
    baseline_s, off_s, on_s = times["baseline"], times["off"], times["on"]

    RESULTS["resample"] = _overhead_row(
        baseline_s, off_s, on_s,
        samples=n, buckets=P["resample_buckets"],
    )
    assert off_s / baseline_s <= MAX_OFF_OVERHEAD, RESULTS["resample"]
    assert on_s / baseline_s <= MAX_ON_OVERHEAD, RESULTS["resample"]


def test_write_bench_artifact(write_artifact):
    """Runs last in this module: persist the overhead artifact."""
    RESULTS["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_artifact("BENCH_obs.json", json.dumps(RESULTS, indent=2) + "\n")
    missing = {"ingest", "resample"} - set(RESULTS)
    assert not missing, f"benchmarks did not run: {missing}"
