"""Tests for the process-parallel shard runtime: shared-memory rings,
worker lifecycle (crash / detect / restart / replay), backpressure, journal
durability, and bit-for-bit parity with the in-process sharded store.

The runtime has no settings; tests that need a smaller ring, a narrower
slot, a shorter push timeout or a shorter ack interval patch the module
constants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShardDownError, StoreError
from repro.oda import DataCenter
from repro.telemetry import (
    ParallelShardRuntime,
    SampleBatch,
    SampleRing,
    ShardedStore,
    TelemetrySystem,
    TimeSeriesStore,
)
from repro.telemetry.distributed.replica import EVENT_COUNTERS, LOSS_COUNTERS
from repro.telemetry.runtime import parallel as parallel_runtime
from repro.telemetry.runtime import worker as shard_worker

NAMES = tuple(f"cluster.rack{r}.node{n}.power" for r in range(2) for n in range(6))


def make_batches(n_batches: int = 50, names: tuple = NAMES, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        SampleBatch(float(t), names, rng.random(len(names)))
        for t in range(n_batches)
    ]


def lacking(rs, batches) -> list:
    """Samples of ``batches`` each member of ``rs`` does not hold, counted
    from the member stores."""
    written = {}
    for batch in batches:
        for name in batch.names:
            written.setdefault(name, []).append(batch.time)
    return [
        sum(
            np.setdiff1d(
                times, member.query(name)[0] if name in member else []
            ).size
            for name, times in written.items()
        )
        for member in rs.members
    ]


@pytest.fixture
def parallel_store(monkeypatch):
    """Factory for parallel ShardedStores that are always closed.

    Keyword overrides name constants of
    :mod:`repro.telemetry.runtime.parallel` (``RING_CAPACITY=64``).
    """
    opened = []

    def build(shards: int, replication: int = 0, **overrides) -> ShardedStore:
        for name, value in overrides.items():
            monkeypatch.setattr(parallel_runtime, name, value)
        store = ShardedStore(
            shards=shards, replication=replication, parallel=True,
        )
        opened.append(store)
        return store

    yield build
    for store in opened:
        store.close()


def _consume_one_slot(ring, conn):
    """Child-process half of the ring sharing test."""
    names_id, time, view = ring.read_slot(0)
    conn.send((names_id, time, np.asarray(view).copy()))
    ring.mark_applied(1)
    ring.mark_acked(1)
    conn.close()


# ---------------------------------------------------------------------------
# The shared-memory ring itself
# ---------------------------------------------------------------------------
class TestSampleRing:
    def test_push_read_ack_roundtrip(self):
        ring = SampleRing(capacity=4, slot_width=8)
        values = np.arange(3.0)
        assert ring.try_push(7, 1.5, values)
        assert ring.head == 1 and ring.backlog == 1
        names_id, time, view = ring.read_slot(0)
        assert names_id == 7 and time == 1.5
        np.testing.assert_array_equal(view, values)
        ring.mark_applied(1)
        ring.mark_acked(1)
        assert ring.backlog == 0 and ring.unacked == 0
        assert ring.free_slots == 4

    def test_full_ring_rejects_until_acked(self):
        ring = SampleRing(capacity=2, slot_width=4)
        assert ring.try_push(0, 0.0, np.ones(1))
        assert ring.try_push(0, 1.0, np.ones(1))
        assert not ring.try_push(0, 2.0, np.ones(1))  # full: unacked == cap
        ring.mark_applied(1)
        assert not ring.try_push(0, 2.0, np.ones(1))  # applied != reclaimed
        ring.mark_acked(1)
        assert ring.try_push(0, 2.0, np.ones(1))  # slot reclaimed at ack

    def test_slot_wraparound_preserves_data(self):
        ring = SampleRing(capacity=2, slot_width=4)
        for t in range(7):
            assert ring.try_push(t, float(t), np.full(2, float(t)))
            _, time, view = ring.read_slot(t)
            assert time == float(t)
            np.testing.assert_array_equal(view, np.full(2, float(t)))
            ring.mark_applied(t + 1)
            ring.mark_acked(t + 1)

    def test_oversized_and_invalid_pushes_rejected(self):
        ring = SampleRing(capacity=2, slot_width=4)
        with pytest.raises(ValueError):
            ring.try_push(0, 0.0, np.ones(5))  # wider than a slot
        with pytest.raises(ValueError):
            SampleRing(capacity=0, slot_width=4)

    def test_ring_is_shared_with_child_process(self):
        # Workers receive the ring through Process args: the NumPy views
        # are dropped for transfer and rebuilt over the *same* shared
        # RawArrays on the other side, so a child's acks and a parent's
        # pushes are visible to each other.
        import multiprocessing as mp

        ring = SampleRing(capacity=4, slot_width=8)
        ring.try_push(3, 9.0, np.array([1.0, 2.0]))
        parent, child = mp.Pipe()
        proc = mp.Process(target=_consume_one_slot, args=(ring, child))
        proc.start()
        child.close()
        names_id, time, values = parent.recv()
        proc.join(timeout=10.0)
        assert (names_id, time) == (3, 9.0)
        np.testing.assert_array_equal(values, [1.0, 2.0])
        assert ring.applied == 1 and ring.acked == 1  # child's marks visible
        assert ring.free_slots == 4


# ---------------------------------------------------------------------------
# Parity: parallel mode must be indistinguishable from in-process sharding
# ---------------------------------------------------------------------------
@st.composite
def ingest_runs(draw):
    pool = draw(st.lists(
        st.sampled_from([f"m{i}.s" for i in range(12)]),
        min_size=1, max_size=8, unique=True,
    ))
    n_batches = draw(st.integers(min_value=1, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dt = draw(st.floats(min_value=0.25, max_value=7.5))
    rng = np.random.default_rng(seed)
    names = tuple(pool)
    return [
        SampleBatch(round(t * dt, 6), names, rng.random(len(names)))
        for t in range(n_batches)
    ]


class TestParallelParity:
    @given(runs=ingest_runs(), shards=st.sampled_from([1, 2, 8]))
    @settings(max_examples=12, deadline=None)
    def test_queries_bit_identical_to_in_process(self, runs, shards):
        inproc = ShardedStore(shards=shards, replication=0)
        par = ShardedStore(shards=shards, replication=0, parallel=True)
        try:
            for batch in runs:
                inproc.ingest("t", batch)
                par.ingest("t", batch)
            par.runtime.drain()
            until = runs[-1].time + 1.0
            step = max(until / 7.0, 0.5)
            assert par.names() == inproc.names()
            for name in inproc.names():
                t0, v0 = inproc.query(name)
                t1, v1 = par.query(name)
                np.testing.assert_array_equal(t0, t1)
                np.testing.assert_array_equal(v0, v1)
                for agg in ("mean", "max", "p95", "rate"):
                    g0, r0 = inproc.resample(name, 0.0, until, step, agg=agg)
                    g1, r1 = par.resample(name, 0.0, until, step, agg=agg)
                    np.testing.assert_array_equal(g0, g1)
                    np.testing.assert_array_equal(r0, r1)
            grid0, m0 = inproc.align(inproc.names(), 0.0, until, step)
            grid1, m1 = par.align(par.names(), 0.0, until, step)
            np.testing.assert_array_equal(grid0, grid1)
            np.testing.assert_array_equal(m0, m1)
        finally:
            par.close()

    def test_store_config_mirrored_into_workers(self, parallel_store):
        par = parallel_store(2)
        inproc = ShardedStore(shards=2)
        for batch in make_batches(30):
            par.ingest("t", batch)
            inproc.ingest("t", batch)
        par.runtime.drain()
        rs = par.replica_sets[0]
        assert rs.primary.retention == inproc.replica_sets[0].primary.retention
        assert NAMES[0] in par
        assert len(par.select("cluster.rack0.*")) == len(inproc.select("cluster.rack0.*"))
        assert par.latest(NAMES[0]) == inproc.latest(NAMES[0])
        assert par.value_at(NAMES[0], 10.0) == inproc.value_at(NAMES[0], 10.0)

    def test_duplicate_timestamps_match(self, parallel_store):
        # Last-writer-wins on equal timestamps must survive the columnar
        # batched apply in the worker.
        par = parallel_store(1)
        inproc = ShardedStore(shards=1)
        rng = np.random.default_rng(5)
        times = [0.5, 1.0, 1.0, 2.0, 3.0, 3.0]
        for t in times:
            batch = SampleBatch(t, ("a.s", "b.s"), rng.random(2))
            par.ingest("t", batch)
            inproc.ingest("t", batch)
        par.runtime.drain()
        for name in ("a.s", "b.s"):
            t0, v0 = inproc.query(name)
            t1, v1 = par.query(name)
            np.testing.assert_array_equal(t0, t1)
            np.testing.assert_array_equal(v0, v1)


    # The proxy forwards every read to the worker's store unchecked, so
    # refusals and empty answers must come from that store, unchanged.
    EDGE_READS = {
        "unknown_agg": lambda s: s.resample(NAMES[0], 0.0, 9.0, 1.0, agg="nope"),
        "zero_step": lambda s: s.resample(NAMES[0], 0.0, 9.0, 0.0),
        "negative_step": lambda s: s.align(NAMES[:2], 0.0, 9.0, -1.0),
        "unknown_fill": lambda s: s.align(NAMES[:2], 0.0, 9.0, 1.0, fill="nope"),
        "empty_resample_range": lambda s: s.resample(NAMES[0], 9.0, 9.0, 1.0),
        "inverted_align_range": lambda s: s.align(NAMES[:2], 9.0, 2.0, 1.0),
        "no_names": lambda s: s.align([], 0.0, 9.0, 1.0),
        "unknown_query": lambda s: s.query("no.such.series"),
        "unknown_latest": lambda s: s.latest("no.such.series"),
        "unknown_value_at": lambda s: s.value_at("no.such.series", 1.0),
    }

    @staticmethod
    def _outcome(read, store):
        try:
            out = read(store)
        except Exception as exc:
            return type(exc), str(exc)
        return [(np.shape(a), np.asarray(a).tolist()) for a in out]

    @pytest.mark.parametrize("level", ["store", "member"])
    @pytest.mark.parametrize("read", list(EDGE_READS), ids=str)
    def test_invalid_and_edge_reads_match_in_process(
        self, parallel_store, read, level
    ):
        par = parallel_store(1)
        inproc = ShardedStore(shards=1)
        for batch in make_batches(10):
            par.ingest("t", batch)
            inproc.ingest("t", batch)
        if level == "member":  # a proxy against the plain store it stands for
            par, inproc = par.replica_sets[0].primary, inproc.replica_sets[0].primary
        read = self.EDGE_READS[read]
        assert self._outcome(read, par) == self._outcome(read, inproc)

    @pytest.mark.parametrize("attr", ["close", "append", "replace_window"])
    def test_member_call_outside_the_allow_list_is_refused(
        self, parallel_store, attr
    ):
        par = parallel_store(1)
        with pytest.raises(StoreError, match="not served"):
            par.runtime._call(0, "member", (0, attr, ()))
        assert par.runtime.worker_alive(0)


# ---------------------------------------------------------------------------
# Worker lifecycle: crash, detection, restart, replay, durability
# ---------------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_dropped_store_stops_its_workers(self, gc_disabled):
        # Without close(): the runtime is freed when its store is dropped
        # (nothing points back at it), and its finalizer ends the workers.
        par = ShardedStore(shards=1, parallel=True)
        for batch in make_batches(5):
            par.ingest("t", batch)
        assert par.query(NAMES[0])[0].size == 5
        snapshot = [r.snapshot() for r in par.metric_registries()]
        assert snapshot[-1]["telemetry.runtime.pushed_batches"] == 5.0
        procs = list(par.runtime._procs)
        assert len(procs) == 1 and procs[0].is_alive()
        del par
        for proc in procs:
            proc.join(timeout=5.0)
        assert not any(proc.is_alive() for proc in procs)

    def test_crash_detected_and_restarted(self, parallel_store):
        par = parallel_store(2)
        for batch in make_batches(20):
            par.ingest("t", batch)
        par.runtime.drain()
        par.runtime.crash_worker(0)
        assert not par.runtime.worker_alive(0)
        crashed = par.runtime.check_workers()
        assert crashed == [0]
        assert par.runtime.worker_crashes == 1
        assert par.runtime.worker_restarts == 1
        assert par.runtime.worker_alive(0)

    def test_restart_replays_unacked_backlog(self, parallel_store):
        # No journal: data already applied lives only in the dead
        # worker's memory and is lost, but the un-acked ring window
        # survives the crash and replays into the replacement — nothing
        # still sitting in the ring is ever dropped.
        par = parallel_store(1, RING_CAPACITY=64)
        for batch in make_batches(10):
            par.ingest("t", batch)
        par.runtime.drain()
        par.runtime.crash_worker(0)
        # Pushes while the worker is dead pile up in the shared ring.
        for batch in make_batches(10, seed=1)[5:]:
            batch = SampleBatch(batch.time + 100.0, batch.names, batch.values)
            par.ingest("t", batch)
        par.runtime.check_workers()  # detect + restart
        par.runtime.drain()
        t, _ = par.query(NAMES[0])
        np.testing.assert_array_equal(t, [105.0, 106.0, 107.0, 108.0, 109.0])
        assert par.runtime.replayed_slots >= 5

    def test_checkpoint_durability_loses_no_acked_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(parallel_runtime, "RING_CAPACITY", 64)
        monkeypatch.setattr(shard_worker, "ACK_INTERVAL", 8)
        par = ShardedStore(
            shards=2, replication=1, parallel=True, journal=str(tmp_path),
        )
        try:
            for batch in make_batches(40):
                par.ingest("t", batch)
            par.runtime.drain()
            acked_before = [r.acked for r in par.runtime.rings]
            par.runtime.crash_worker(0)
            par.runtime.crash_worker(1)
            par.runtime.check_workers()
            for batch in make_batches(50, seed=3)[40:]:
                par.ingest("t", batch)
            par.runtime.drain()
            # Every acknowledged batch survived the crash...
            for name in NAMES:
                t, _ = par.query(name)
                assert len(t) == 50
            # ...and the restart resumed from at least the acked frontier.
            assert all(
                r.acked >= a for r, a in zip(par.runtime.rings, acked_before)
            )
        finally:
            par.close()

    def test_close_drains_pending_batches(self):
        par = ShardedStore(shards=2, parallel=True)
        for batch in make_batches(25):
            par.ingest("t", batch)
        par.close()  # graceful drain: nothing pushed may be lost
        assert all(r.backlog == 0 and r.unacked == 0 for r in par.runtime.rings)
        par.close()  # idempotent

    def test_watchdog_sweep_traces_and_restarts(self):
        # No ingest traffic: the supervisor's periodic sweep is the only
        # detector, so the crash must surface as a traced watchdog event.
        from repro.oda.supervision import Supervisor
        from repro.simulation.engine import Simulator
        from repro.simulation.trace import TraceLog

        sim = Simulator()
        trace = TraceLog()
        runtime = ParallelShardRuntime(2, 0, {})
        try:
            sup = Supervisor(sim, trace=trace).start()
            sup.watch_runtime(runtime)
            sup.watch_runtime(runtime)  # idempotent
            assert sup.runtimes == [runtime]
            runtime.crash_worker(1)
            sim.run(601.0)  # past a watchdog period (300 s)
            events = trace.select(
                source="supervisor.runtime", kind="worker_crash"
            )
            assert len(events) == 1
            assert events[0].detail["shard"] == 1
            assert events[0].detail["restarted"] is True
            assert runtime.worker_alive(1)
            values = sup.metrics.snapshot()
            assert values["oda.supervisor.worker_crashes"] == 1.0
            assert values["oda.supervisor.worker_restarts"] == 1.0
        finally:
            runtime.close()

    def test_watchdog_reports_a_worker_left_dead(self, monkeypatch):
        # The trace says what the sweep achieved: a restart that did not
        # bring the worker back is reported as not restarted.
        from repro.oda.supervision import Supervisor
        from repro.simulation.engine import Simulator
        from repro.simulation.trace import TraceLog

        sim = Simulator()
        trace = TraceLog()
        runtime = ParallelShardRuntime(1, 0, {})
        try:
            monkeypatch.setattr(runtime, "restart_worker", lambda shard: None)
            sup = Supervisor(sim, trace=trace).start()
            sup.watch_runtime(runtime)
            runtime.crash_worker(0)
            sim.run(601.0)
            events = trace.select(
                source="supervisor.runtime", kind="worker_crash"
            )
            assert [e.detail["restarted"] for e in events] == [False]
            assert not runtime.worker_alive(0)
        finally:
            runtime.close()

    def test_supervised_datacenter_survives_mid_run_crash(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(shard_worker, "ACK_INTERVAL", 8)
        dc = DataCenter(
            seed=11, racks=2, nodes_per_rack=2, shards=2, replication=1,
            parallel=True, journal=str(tmp_path),
        )
        try:
            dc.enable_supervision()
            dc.run(days=0.1)
            t0, _ = dc.metric("facility.pue")
            dc.shard_fault().crash_worker(0, now=dc.sim.now)
            dc.run(seconds=1800)
            # Either the ingest path's self-repair or the watchdog sweep
            # wins the race — both end in exactly one detected crash and
            # one replacement worker, with collection uninterrupted.
            rt = dc.store.runtime
            assert rt.worker_crashes == 1 and rt.worker_restarts == 1
            t1, _ = dc.metric("facility.pue")
            assert len(t1) > len(t0)  # ingest kept flowing after restart
            assert "oda_supervisor_worker_crashes 1.0" in dc.prometheus()
        finally:
            dc.close()


    def test_journal_does_not_depend_on_how_the_ring_was_drained(
        self, tmp_path
    ):
        # Acks fall at fixed ring positions, so the same slots give the
        # same journal whether the worker met them in one burst or one by
        # one.
        batches = make_batches(300)

        def journal(label, stepped):
            par = ShardedStore(
                shards=1, parallel=True, journal=str(tmp_path / label),
            )
            try:
                for batch in batches:
                    par.ingest("t", batch)
                    if stepped:
                        par.runtime.drain()
                par.sync_journal()
                stats = par.runtime.shard_stats(0)
                return stats["wal_records"], stats["wal_bytes"]
            finally:
                par.close()

        assert journal("burst", False) == journal("stepped", True)

    def test_recovered_samples_counts_only_the_current_replay(self, tmp_path):
        par = ShardedStore(shards=1, parallel=True, journal=str(tmp_path))
        try:
            for batch in make_batches(40, names=NAMES[:10]):
                par.ingest("t", batch)
            par.sync_journal()
            assert par.recovered_samples == 0
            seen = []
            for _ in range(2):
                par.runtime.crash_worker(0)
                par.runtime.check_workers()
                seen.append(par.recovered_samples)
            assert seen == [400, 400]
        finally:
            par.close()


class TestCountersSurviveRestart:
    """A worker restart resets no event counter (they are counted in the
    parent), and the replacement's loss state is what its members lack."""

    @pytest.fixture(scope="class")
    def restart(self, tmp_path_factory):
        par = ShardedStore(
            shards=1, replication=1, parallel=True,
            journal=str(tmp_path_factory.mktemp("wal")),
        )
        try:
            rs = par.replica_sets[0]
            written = make_batches(60)
            batches = iter(written)

            def ingest(n):
                for _ in range(n):
                    par.ingest("t", next(batches))

            rs.degrade(0.5, np.random.default_rng(9), member=1)
            ingest(20)
            par.anti_entropy(window_s=5.0)  # repairs what member 1 shed
            ingest(10)  # still shedding
            rs.mark_down(1)
            ingest(10)  # missed by member 1
            rs.mark_down(0)
            ingest(10)  # lost
            rs.revive(1, resync=True)  # no healthy peer: a resync failure
            ingest(10)

            def read():
                counters = {
                    k: getattr(rs, k) for k in LOSS_COUNTERS + EVENT_COUNTERS
                }
                return counters, rs.metrics.snapshot(), lacking(rs, written)

            before = read()
            par.runtime.crash_worker(0)
            assert par.runtime.check_workers() == [0]
            yield before, read(), {i.name: i.kind for i in rs.metrics}
        finally:
            par.close()

    @pytest.mark.parametrize("key", LOSS_COUNTERS + EVENT_COUNTERS)
    def test_counter_does_not_run_backwards(self, restart, key):
        """Events never run backwards; loss state reads what the members
        lack, before and after the restart."""
        (before, _, lacked_before), (after, _, lacked_after), _ = restart
        assert np.sum(before[key]) > 0, "the scenario must move every counter"
        if key in EVENT_COUNTERS:
            assert np.all(np.asarray(after[key]) >= np.asarray(before[key]))
            return
        for counters, lacked in ((before, lacked_before), (after, lacked_after)):
            missed = np.add(counters["missed_writes"], counters["dropped_writes"])
            assert missed.tolist() == lacked
        # Member 0 is down at the restart and holds none of the 60 batches;
        # member 1 is up, so the replacement replays every write into it.
        assert lacked_after == [60 * len(NAMES), 0]
        assert (after["lost_batches"], after["lost_samples"]) == (0, 0)

    def test_shard_metrics_do_not_run_backwards(self, restart):
        """Counter metrics never fall; gauges read the loss state."""
        (_, before, _), (counters, after, _), kinds = restart
        assert set(after) == set(before)
        went_back = {
            k: (before[k], after[k])
            for k in before if kinds[k] == "counter" and after[k] < before[k]
        }
        assert went_back == {}
        for key in ("missed_writes", "dropped_writes", "lost_samples"):
            metric = f"telemetry.shard.0.{key}"
            assert kinds[metric] == "gauge"
            assert after[metric] == float(np.sum(counters[key]))


class TestReplayedMemberMissesNothing:
    """A journaled restart replays the shard journal into every member that
    is up, so a member that missed writes before the crash holds them all
    afterwards and its loss counters say so."""

    NAMES4 = NAMES[:4]

    def _run(self, tmp_path, revive: bool, synced: bool):
        """Member 1 misses 10 of 20 batches of 4 series, and is revived
        without resync (``revive``) or still down when the worker dies."""
        par = ShardedStore(
            shards=1, replication=1, parallel=True, journal=str(tmp_path),
        )
        try:
            rs = par.replica_sets[0]
            down, up = (5, 15) if revive else (10, None)
            for i, batch in enumerate(make_batches(20, names=self.NAMES4)):
                if i == down:
                    rs.mark_down(1)
                if i == up:
                    rs.revive(1, resync=False)
                par.ingest("t", batch)
            assert rs.missed_writes == [0, 40]
            if synced:
                par.sync_journal()
            par.runtime.crash_worker(0)
            assert par.runtime.check_workers() == [0]
            held = [
                rs.members[1].query(name)[0].size for name in self.NAMES4
            ] if revive else lacking(rs, make_batches(20, names=self.NAMES4))
            return rs.missed_writes, rs.dropped_writes, held
        finally:
            par.close()

    @pytest.mark.parametrize("synced", [True, False], ids=["journal", "ring"])
    def test_member_up_at_restart_reads_zero(self, tmp_path, synced):
        missed, dropped, held = self._run(tmp_path, revive=True, synced=synced)
        assert held == [20] * 4
        assert missed == [0, 0]
        assert dropped == [0, 0]

    def test_member_down_at_restart_keeps_its_count(self, tmp_path):
        """The replacement's member 1 is down, so it holds none of the
        journal's 80 samples, and its count says so."""
        missed, dropped, lacked = self._run(tmp_path, revive=False, synced=True)
        assert lacked == [0, 80]
        assert missed == [0, 80]
        assert dropped == [0, 0]


# ---------------------------------------------------------------------------
# Backpressure and chunking
# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_full_ring_drops_after_timeout_never_raises(
        self, parallel_store, monkeypatch
    ):
        par = parallel_store(1, RING_CAPACITY=4, PUSH_TIMEOUT_S=0.05)
        # Nobody drains: the worker stays dead and the ring fills for real.
        monkeypatch.setattr(par.runtime, "restart_worker", lambda shard: None)
        par.runtime.crash_worker(0)
        for batch in make_batches(12):
            par.ingest("t", batch)  # must not raise
        rt = par.runtime
        assert rt.dropped_batches == 8
        assert rt.dropped_samples == 8 * len(NAMES)
        assert rt.backpressure_waits >= 8
        metrics = rt.metrics.snapshot()
        assert metrics["telemetry.runtime.dropped_batches"] == 8.0
        assert metrics["telemetry.runtime.backlog"] == 4.0

    def test_wide_batches_chunk_across_slots(self, parallel_store):
        par = parallel_store(1, SLOT_WIDTH=8)
        names = tuple(f"wide.m{i}" for i in range(20))  # 3 slots at width 8
        rng = np.random.default_rng(2)
        expect = {}
        for t in range(5):
            values = rng.random(len(names))
            par.ingest("t", SampleBatch(float(t), names, values))
            expect[t] = values
        par.runtime.drain()
        assert par.runtime.pushed_slots == 15
        for i, name in enumerate(names):
            t, v = par.query(name)
            np.testing.assert_array_equal(
                v, [expect[tick][i] for tick in range(5)]
            )


# ---------------------------------------------------------------------------
# Faults through the proxy layer
# ---------------------------------------------------------------------------
class TestParallelFaults:
    def test_down_member_misses_writes_until_resync(self, parallel_store):
        par = parallel_store(1, replication=1)
        batches = make_batches(30)
        for batch in batches[:10]:
            par.ingest("t", batch)
        rs = par.replica_sets[0]
        rs.mark_down(1)
        for batch in batches[10:20]:
            par.ingest("t", batch)
        assert rs.missed_writes[1] == 10 * len(NAMES)  # counted per sample
        rs.revive(1, resync=True)
        for batch in batches[20:]:
            par.ingest("t", batch)
        par.runtime.drain()
        rs.mark_down(0)  # force reads onto the resynced replica
        t, _ = par.query(NAMES[0])
        assert len(t) == 30  # resync recovered the missed window

    def test_fully_down_shard_raises_and_counts_losses(self, parallel_store):
        par = parallel_store(1, replication=0)
        par.ingest("t", make_batches(1)[0])
        rs = par.replica_sets[0]
        rs.mark_down(0)
        par.ingest("t", make_batches(2)[1])
        assert rs.lost_batches == 1
        assert rs.lost_samples == len(NAMES)
        with pytest.raises(ShardDownError):
            par.query(NAMES[0])

    def test_resync_failure_surfaces_from_worker(self, parallel_store):
        par = parallel_store(1, replication=1)
        for batch in make_batches(5):
            par.ingest("t", batch)
        rs = par.replica_sets[0]
        rs.mark_down(1)
        rs.mark_down(0)
        rs.revive(1, resync=True)  # no healthy peer in the worker either
        assert rs.resync_failures == 1
        assert par.metrics.snapshot()["telemetry.shard.resync_failed"] == 1.0

    def test_degrade_is_reproducible_across_restart(self, parallel_store):
        par = parallel_store(1, replication=1)
        rs = par.replica_sets[0]
        rs.degrade(0.5, np.random.default_rng(9), member=1)
        for batch in make_batches(20):
            par.ingest("t", batch)
        par.runtime.drain()
        dropped_before = rs.dropped_writes[1]
        assert dropped_before > 0
        # Restart mirrors the fault state (including the drawn seed) into
        # the replacement worker: degradation keeps applying, and sheds
        # the same writes of the next 20 as it did of the first 20.  The
        # journal-free crash lost the first 20 from both members, so the
        # replacement's loss state covers only the writes it has seen.
        par.runtime.crash_worker(0)
        par.runtime.check_workers()
        after = make_batches(40, seed=4)[20:]
        for batch in after:
            par.ingest("t", batch)
        par.runtime.drain()
        assert rs.dropped_writes[1] == dropped_before
        assert lacking(rs, after) == [0, dropped_before]


class TestOneWriteFaultRule:
    """Every replica-set write follows one fault rule on both tiers: a down
    member misses it, a member degraded at 1.0 sheds it, and a write no
    member takes is lost — each counted per sample."""

    @staticmethod
    def _write(store, kind: str, t: float) -> int:
        """One write of ``kind`` at time ``t``; returns its samples."""
        if kind == "ingest":
            store.ingest("t", SampleBatch(t, NAMES[:4], np.full(4, t)))
            return 4
        if kind == "append_many":
            store.append_many("m", np.array([t, t + 0.5]), np.array([t, -t]))
            return 2
        store.append("m", t, t)  # ShardedStore.append
        return 1

    @pytest.mark.parametrize("kind", ["ingest", "append_many", "append"])
    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["in_process", "parallel"])
    def test_faults_are_counted(self, parallel_store, kind, parallel):
        store = (
            parallel_store(1, replication=1) if parallel
            else ShardedStore(shards=1, replication=1)
        )
        rs = store.replica_sets[0]
        clock = iter(float(t) for t in range(100))

        def writes(k=5):
            return sum(self._write(store, kind, next(clock)) for _ in range(k))

        rs.mark_down(1)
        first = writes(1)
        assert rs.missed_writes == [0, first]  # no stale counter read
        n = first + writes(4)
        assert (rs.missed_writes, rs.dropped_writes) == ([0, n], [0, 0])

        rs.revive(1, resync=False)
        rs.degrade(1.0, np.random.default_rng(0), member=1)
        writes()
        assert (rs.missed_writes, rs.dropped_writes) == ([0, n], [0, n])
        assert rs.members[1].samples_ingested == 0
        assert rs.members[0].samples_ingested == 2 * n
        assert (rs.lost_batches, rs.lost_samples) == (0, 0)

        rs.degrade(0.0, np.random.default_rng(0), member=1)
        rs.mark_down(0)
        rs.mark_down(1)
        writes()
        assert rs.missed_writes == [n, 2 * n]
        assert (rs.lost_batches, rs.lost_samples) == (5, n)


# ---------------------------------------------------------------------------
# Configuration guard rails
# ---------------------------------------------------------------------------
class TestRuntimeValidation:
    def test_custom_store_factory_rejected_in_parallel(self):
        # Not an extension point any more: members are built from config.
        with pytest.raises(TypeError):
            ShardedStore(
                shards=2, parallel=True, store_factory=TimeSeriesStore,
            )

    def test_parallel_requires_shards_in_telemetry_system(self):
        with pytest.raises(ConfigurationError):
            TelemetrySystem(parallel=True)

    def test_runtime_rejects_bad_topology(self):
        with pytest.raises(ConfigurationError):
            ParallelShardRuntime(0, 0, {})
