"""Thread-safety regression tests for the storage tier.

The store's read path *mutates* (flush-on-read compaction, amortized
retention, rollup observation), so unsynchronized concurrent readers used
to race the ingest path.  These tests drive real thread pools against
every entry point the serving front door uses — single store, sharded
federation (including mid-read failover), and the worker-process runtime
(whose pipe RPCs must be atomic per shard) — and require bit-exact parity
with a sequentially-built reference afterwards.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.telemetry import SampleBatch, TimeSeriesStore
from repro.telemetry import store as store_module
from repro.telemetry.distributed import ShardedStore

NAMES = tuple(f"s.rack{r}.node{n}.w" for r in range(2) for n in range(4))


def run_threads(targets):
    errors = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
        return inner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestSingleStoreConcurrency:
    def test_ingest_and_reads_race_free(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 8)
        store = TimeSeriesStore()
        n = 400
        done = threading.Event()
        for name in NAMES[:2]:  # readers may arrive before the writers
            store.append(name, -1.0, -0.5)

        def writer(name):
            def run():
                for t in range(n):
                    store.append(name, float(t), float(t) * 0.5)
            return run

        def reader():
            while not done.is_set():
                store.names()
                for name in NAMES[:2]:
                    times, values = store.query(name)
                    # A snapshot mid-ingest is some prefix of the final
                    # series — prefix-consistent, never interleaved junk.
                    assert np.array_equal(values, times * 0.5)
                store.resample(NAMES[0], 0.0, n, 25.0)

        writers = [writer(name) for name in NAMES[:2]]

        def readers_until_writers_done():
            run_threads(writers)
            done.set()

        run_threads([readers_until_writers_done] + [reader] * 4)
        for name in NAMES[:2]:
            times, values = store.query(name)
            assert np.array_equal(
                times, np.arange(-1, n, dtype=np.float64)
            )
            assert np.array_equal(values, times * 0.5)
        assert store.samples_ingested == 2 * (n + 1)

    def test_concurrent_readers_see_identical_staged_data(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 10_000)
        store = TimeSeriesStore()
        rng = np.random.default_rng(0)
        for t in range(100):
            store.ingest("t", SampleBatch(
                float(t), NAMES, rng.random(len(NAMES)),
            ))
        assert store.staged_samples > 0  # flush happens on first read
        results = []
        lock = threading.Lock()

        def reader():
            times, values = store.query(NAMES[0])
            with lock:
                results.append((times.copy(), values.copy()))

        run_threads([reader] * 8)
        ref_t, ref_v = results[0]
        assert len(ref_t) == 100
        for times, values in results[1:]:
            assert np.array_equal(times, ref_t)
            assert np.array_equal(values, ref_v)

    def test_version_stamp_tracks_ingest(self):
        store = TimeSeriesStore()
        s0 = store.version_stamp()
        assert store.version_stamp() == s0  # no ingest, no movement
        store.append(NAMES[0], 1.0, 2.0)
        s1 = store.version_stamp()
        assert s1 != s0
        store.query(NAMES[0])  # reads alone never move the stamp
        assert store.version_stamp() == s1


class TestShardedConcurrency:
    def fill(self, **kwargs):
        store = ShardedStore(shards=2, replication=1, **kwargs)
        rng = np.random.default_rng(1)
        for t in range(120):
            store.ingest("t", SampleBatch(
                float(t), NAMES, rng.random(len(NAMES)),
            ))
        return store

    def test_federated_reads_race_ingest(self):
        store = self.fill()
        ref_grid, ref_matrix = store.align(list(NAMES), 0.0, 119.0, 10.0)
        stop = threading.Event()

        def ingest():
            t = 200.0
            while not stop.is_set():
                store.ingest("t", SampleBatch(
                    t, NAMES, np.full(len(NAMES), 1.0),
                ))
                t += 1.0

        def reader():
            for _ in range(30):
                # The queried window is frozen history: answers must be
                # bit-identical no matter how much ingest races them.
                grid, matrix = store.align(list(NAMES), 0.0, 119.0, 10.0)
                assert np.array_equal(grid, ref_grid)
                assert np.array_equal(matrix, ref_matrix, equal_nan=True)

        def readers_then_stop():
            run_threads([reader] * 4)
            stop.set()

        run_threads([readers_then_stop, ingest])

    def test_reads_survive_mid_flight_failover(self):
        store = self.fill()
        ref = store.resample(NAMES[0], 0.0, 119.0, 7.0)
        barrier = threading.Barrier(5)

        def reader():
            barrier.wait()
            for _ in range(50):
                grid, values = store.resample(NAMES[0], 0.0, 119.0, 7.0)
                assert np.array_equal(grid, ref[0])
                assert np.array_equal(values, ref[1], equal_nan=True)

        def failover():
            barrier.wait()
            victim = store.shard_of(NAMES[0])
            store.replica_sets[victim].mark_down(0)

        run_threads([reader] * 4 + [failover])


class TestParallelRuntimeConcurrency:
    @pytest.mark.parametrize("shards", [2])
    def test_rpc_pipes_are_atomic_under_thread_pool(self, shards):
        """Concurrent federated reads over worker-process shards: the
        send-then-recv RPC on each shard's pipe must never interleave."""
        par = ShardedStore(shards=shards, replication=1, parallel=True)
        ref = ShardedStore(shards=shards, replication=1)
        rng = np.random.default_rng(2)
        try:
            for t in range(60):
                batch = SampleBatch(float(t), NAMES, rng.random(len(NAMES)))
                par.ingest("t", batch)
                ref.ingest("t", batch)
            expect = {
                name: ref.resample(name, 0.0, 59.0, 5.0) for name in NAMES
            }
            expect_names = ref.names()

            def reader(offset):
                def run():
                    for i in range(20):
                        name = NAMES[(offset + i) % len(NAMES)]
                        grid, values = par.resample(name, 0.0, 59.0, 5.0)
                        assert np.array_equal(grid, expect[name][0])
                        assert np.array_equal(
                            values, expect[name][1], equal_nan=True,
                        )
                        assert par.names() == expect_names
                return run

            run_threads([reader(i) for i in range(6)])
            # The remote version stamps answer concurrently too: every
            # thread reads the same stamp for a given quiescent shard.
            stamps = [[] for _ in range(shards)]
            lock = threading.Lock()

            def stamp():
                for i, rs in enumerate(par.replica_sets):
                    s = rs.read_store().version_stamp()
                    with lock:
                        stamps[i].append(s)

            run_threads([stamp] * 4)
            for per_shard in stamps:
                assert len(per_shard) == 4
                assert len(set(per_shard)) == 1
                assert per_shard[0][0] > 0  # samples_ingested
        finally:
            par.close()
