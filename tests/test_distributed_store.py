"""Tests for the distributed storage tier: sharding, replication, failover,
federation, shard-fault injection, and single-store equivalence."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShardDownError, UnknownMetricError
from repro.oda import DataCenter
from repro.simulation.engine import Simulator
from repro.telemetry import (
    AGGREGATIONS,
    VECTORIZED_AGGREGATIONS,
    HashPartitioner,
    MessageBus,
    SampleBatch,
    ShardFault,
    ShardFaultKind,
    ShardedStore,
    TelemetrySystem,
    TimeSeriesStore,
)
from repro.telemetry import store as store_module
from repro.telemetry.distributed.faults import FAULT_TOPIC
from repro.telemetry.persistence import load_store, save_store
from tests.reference import scalar_resample

NAMES = tuple(f"cluster.rack{r}.node{n}.power" for r in range(2) for n in range(6))


def make_batches(n_batches: int = 50, names: tuple = NAMES, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        SampleBatch(float(t), names, rng.random(len(names)))
        for t in range(n_batches)
    ]


def fill_pair(shards: int, replication: int = 0, batches=None):
    """A single store and a sharded store fed identical batches."""
    batches = batches if batches is not None else make_batches()
    single = TimeSeriesStore()
    sharded = ShardedStore(shards=shards, replication=replication)
    for batch in batches:
        single.ingest("t", batch)
        sharded.ingest("t", batch)
    return single, sharded


class TestPartitioner:
    def test_deterministic_and_in_range(self):
        p = HashPartitioner(8)
        for name in NAMES:
            shard = p(name)
            assert 0 <= shard < 8
            assert p(name) == shard  # stable
        assert HashPartitioner(8)(NAMES[0]) == p(NAMES[0])  # across instances

    def test_single_shard_maps_everything_to_zero(self):
        p = HashPartitioner(1)
        assert {p(n) for n in NAMES} == {0}

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)


class TestShardedStoreBasics:
    def test_series_land_on_exactly_one_shard(self):
        _, sharded = fill_pair(shards=4)
        for name in NAMES:
            holders = [
                i
                for i, rs in enumerate(sharded.replica_sets)
                if name in rs.primary
            ]
            assert holders == [sharded.shard_of(name)]

    def test_names_and_select_federate(self):
        single, sharded = fill_pair(shards=4)
        assert sharded.names() == single.names()
        assert sharded.select("cluster.rack1.*") == single.select("cluster.rack1.*")
        assert len(sharded) == len(single)
        assert NAMES[0] in sharded

    def test_unknown_metric_raises(self):
        _, sharded = fill_pair(shards=2)
        with pytest.raises(UnknownMetricError):
            sharded.query("no.such.metric")

    def test_rejects_bad_topology(self):
        with pytest.raises(ConfigurationError):
            ShardedStore(shards=0)
        with pytest.raises(ConfigurationError):
            ShardedStore(shards=2, replication=-1)

    def test_misbehaving_partitioner_detected(self):
        sharded = ShardedStore(shards=2, partitioner=lambda name: 7)
        # Modulo folds out-of-range ids back into range consistently.
        assert sharded.shard_of("a") == 1

    def test_append_paths_route(self):
        sharded = ShardedStore(shards=3)
        sharded.append("m.one", 0.0, 1.0)
        sharded.append_many("m.two", np.arange(5.0), np.ones(5))
        assert sharded.latest("m.one") == (0.0, 1.0)
        times, _ = sharded.query("m.two")
        assert times.size == 5
        assert sharded.value_at("m.two", 10.0) == 1.0
        assert sharded.latest_time == 4.0

    def test_per_shard_config_applies(self, monkeypatch):
        monkeypatch.setattr(store_module, "RETENTION_SLACK", 0.0)
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 4)
        sharded = ShardedStore(shards=2, retention=10.0)
        for rs in sharded.replica_sets:
            assert rs.primary.retention == 10.0
        t = np.arange(0.0, 100.0)
        sharded.append_many("a.b", t, t)
        times, _ = sharded.query("a.b")
        assert times[0] >= 89.0  # retention enforced on the owning shard

    def test_parallel_staged_samples_reported_until_read(self):
        sharded = ShardedStore(shards=1, parallel=True)
        try:
            for batch in make_batches(3):
                sharded.ingest("t", batch)
            assert sharded.staged_samples == 3 * len(NAMES)
            sharded.query(NAMES[0])  # a read flushes the staged block
            assert sharded.staged_samples == 0
        finally:
            sharded.close()


class TestReplicationAndFailover:
    def test_replicas_hold_identical_data(self):
        _, sharded = fill_pair(shards=2, replication=2)
        sharded.flush()
        for rs in sharded.replica_sets:
            ref = rs.primary
            for member in rs.members[1:]:
                assert member.names() == ref.names()
                for name in ref.names():
                    t0, v0 = ref.query(name)
                    t1, v1 = member.query(name)
                    np.testing.assert_array_equal(t0, t1)
                    np.testing.assert_array_equal(v0, v1)

    def test_read_failover_preserves_data(self):
        single, sharded = fill_pair(shards=4, replication=1)
        victim = sharded.shard_of(NAMES[0])
        sharded.replica_sets[victim].mark_down(0)
        t0, v0 = single.query(NAMES[0])
        t1, v1 = sharded.query(NAMES[0])
        np.testing.assert_array_equal(t0, t1)
        np.testing.assert_array_equal(v0, v1)
        assert sharded.replica_sets[victim].failover_reads > 0

    def test_all_members_down_read_raises_write_counts(self):
        _, sharded = fill_pair(shards=2, replication=0)
        name = NAMES[0]
        victim = sharded.shard_of(name)
        rs = sharded.replica_sets[victim]
        rs.mark_down(0)
        with pytest.raises(ShardDownError):
            sharded.query(name)
        before = rs.lost_batches
        sharded.ingest("t", SampleBatch(99.0, (name,), np.ones(1)))
        assert rs.lost_batches == before + 1
        assert rs.lost_samples >= 1

    def test_down_member_misses_writes_until_resync(self):
        _, sharded = fill_pair(shards=1, replication=1)
        rs = sharded.replica_sets[0]
        rs.mark_down(0)
        late = SampleBatch(100.0, NAMES, np.full(len(NAMES), 7.0))
        sharded.ingest("t", late)
        assert rs.missed_writes[0] == len(NAMES)
        # Without resync the revived primary serves stale data.
        rs.revive(0, resync=False)
        t, _ = sharded.query(NAMES[0])
        assert 100.0 not in t
        # With resync it is rebuilt from the healthy replica.
        rs.mark_down(0)
        rs.revive(0, resync=True)
        t, v = sharded.query(NAMES[0])
        assert t[-1] == 100.0 and v[-1] == 7.0
        assert rs.missed_writes[0] == 0

    def test_degrade_drops_writes(self):
        sharded = ShardedStore(shards=1, replication=1)
        rs = sharded.replica_sets[0]
        rs.degrade(1.0, np.random.default_rng(0), member=1)
        for batch in make_batches(10):
            sharded.ingest("t", batch)
        assert rs.dropped_writes[1] == 10 * len(NAMES)
        assert len(rs.members[1]) == 0
        assert len(rs.primary) == len(NAMES)
        rs.degrade(0.0, np.random.default_rng(0), member=1)
        sharded.ingest("t", SampleBatch(50.0, NAMES, np.ones(len(NAMES))))
        rs.members[1].flush()
        assert len(rs.members[1]) == len(NAMES)


class TestShardFault:
    def test_kill_and_revive_record_events(self):
        _, sharded = fill_pair(shards=2, replication=1)
        bus = MessageBus()
        seen = []
        bus.subscribe(FAULT_TOPIC, lambda t, b: seen.append(b))
        fault = ShardFault(sharded, bus=bus)
        fault.kill(1, now=5.0)
        fault.revive(1, now=9.0)
        assert [e.kind for e in fault.events] == [
            ShardFaultKind.KILL, ShardFaultKind.REVIVE,
        ]
        assert fault.counts[ShardFaultKind.KILL] == 1
        assert len(seen) == 2 and seen[0].time == 5.0

    def test_rejects_bad_targets(self):
        _, sharded = fill_pair(shards=2)
        fault = ShardFault(sharded)
        with pytest.raises(ConfigurationError):
            fault.kill(9)
        with pytest.raises(ConfigurationError):
            fault.kill(0, member=3)

    def test_scheduled_kill_fires_mid_run(self):
        telemetry = TelemetrySystem(shards=2, replication=1)
        sim = Simulator()
        agent = telemetry.new_agent("a", period=10.0)
        from repro.telemetry import Sampler

        agent.add_sampler(
            Sampler("t", lambda now: {n: float(now) for n in NAMES})
        )
        agent.start(sim)
        fault = ShardFault(telemetry.store, bus=telemetry.bus)
        fault.schedule_kill(sim, at=50.0, shard=0)
        sim.run(100.0)
        assert fault.events and fault.events[0].time == 50.0
        # Collection continued through the kill and queries still work.
        for name in NAMES:
            times, _ = telemetry.store.query(name)
            assert times[-1] == 100.0


class TestHealthMetrics:
    def test_shard_subtree_counters(self):
        _, sharded = fill_pair(shards=2, replication=1)
        sharded.replica_sets[0].mark_down(0)
        health = {
            name: value for registry in sharded.metric_registries()
            for name, value in registry.snapshot().items()
        }
        assert health["telemetry.shard.count"] == 2.0
        assert health["telemetry.shard.replication"] == 1.0
        assert health["telemetry.shard.down_members"] == 1.0
        assert health["telemetry.shard.0.down_members"] == 1.0
        per_shard_series = (
            health["telemetry.shard.0.series"] + health["telemetry.shard.1.series"]
        )
        assert per_shard_series == float(len(NAMES))

    def test_health_monitor_publishes_shard_metrics(self):
        telemetry = TelemetrySystem(shards=2, replication=1, health_period=30.0)
        sim = Simulator()
        telemetry.health.start(sim)
        sim.run(65.0)
        times, values = telemetry.store.query("telemetry.shard.count")
        assert times.size >= 2
        assert (values == 2.0).all()


class TestTelemetrySystemWiring:
    def test_sharded_system_routes_collector_output(self):
        telemetry = TelemetrySystem(shards=4)
        telemetry.bus.publish("t", SampleBatch(0.0, NAMES, np.ones(len(NAMES))))
        assert isinstance(telemetry.store, ShardedStore)
        assert telemetry.store.names() == sorted(NAMES)

    def test_replication_without_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetrySystem(replication=1)

    def test_datacenter_sharded_run(self):
        dc = DataCenter(seed=11, racks=1, nodes_per_rack=4, shards=2,
                        replication=1)
        dc.run(seconds=600.0)
        assert isinstance(dc.store, ShardedStore)
        times, pue = dc.store.query("facility.pue")
        assert times.size > 0
        fault = dc.shard_fault()
        fault.kill(0, now=dc.sim.now)
        fault.kill(1, now=dc.sim.now)
        # replication=1: every query still served after both primaries die.
        t2, p2 = dc.store.query("facility.pue")
        np.testing.assert_array_equal(np.asarray(times), np.asarray(t2))

    def test_datacenter_without_shards_has_no_shard_fault(self):
        dc = DataCenter(seed=1, racks=1, nodes_per_rack=2)
        with pytest.raises(ConfigurationError):
            dc.shard_fault()


# ---------------------------------------------------------------------------
# Property suite: federated results must equal single-store results
# ---------------------------------------------------------------------------
ALL_AGGS = sorted(AGGREGATIONS)  # includes std/median/p95/rate + vectorized


@st.composite
def ingest_runs(draw):
    """A batched ingest run: metric-name pool + per-tick random values."""
    pool = draw(st.lists(
        st.sampled_from([f"m{i}.s" for i in range(12)]),
        min_size=1, max_size=8, unique=True,
    ))
    n_batches = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dt = draw(st.floats(min_value=0.25, max_value=7.5))
    rng = np.random.default_rng(seed)
    names = tuple(pool)
    return [
        SampleBatch(round(t * dt, 6), names, rng.random(len(names)))
        for t in range(n_batches)
    ]


class TestFederatedEquivalence:
    @given(runs=ingest_runs(), shards=st.sampled_from([1, 2, 8]))
    @settings(max_examples=40, deadline=None)
    def test_query_and_resample_match_single_store(self, runs, shards):
        single = TimeSeriesStore()
        sharded = ShardedStore(shards=shards, replication=1)
        for batch in runs:
            single.ingest("t", batch)
            sharded.ingest("t", batch)
        until = runs[-1].time + 1.0
        step = max(until / 7.0, 0.5)

        def check():
            assert sharded.names() == single.names()
            for name in single.names():
                t0, v0 = single.query(name)
                t1, v1 = sharded.query(name)
                np.testing.assert_array_equal(t0, t1)
                np.testing.assert_array_equal(v0, v1)
                for agg in ALL_AGGS:
                    g0, r0 = single.resample(name, 0.0, until, step, agg=agg)
                    g1, r1 = sharded.resample(name, 0.0, until, step, agg=agg)
                    np.testing.assert_array_equal(g0, g1)
                    np.testing.assert_array_equal(r0, r1)
            grid0, m0 = single.align(single.names(), 0.0, until, step)
            grid1, m1 = sharded.align(sharded.names(), 0.0, until, step)
            np.testing.assert_array_equal(grid0, grid1)
            np.testing.assert_array_equal(m0, m1)

        check()
        # Kill one shard's primary: replication=1 must keep every result
        # bit-for-bit identical through failover.
        victim = sharded.shard_of(single.names()[0])
        sharded.replica_sets[victim].mark_down(0)
        check()

    @given(runs=ingest_runs())
    @settings(max_examples=15, deadline=None)
    def test_vectorized_kernels_match_scalar_federated(self, runs):
        sharded = ShardedStore(shards=2)
        for batch in runs:
            sharded.ingest("t", batch)
        until = runs[-1].time + 1.0
        step = max(until / 5.0, 0.5)
        name = runs[0].names[0]
        for agg in VECTORIZED_AGGREGATIONS:
            _, fast = sharded.resample(name, 0.0, until, step, agg=agg)
            _, ref = scalar_resample(sharded, name, 0.0, until, step, agg=agg)
            # reduceat and np.sum accumulate in different orders; match the
            # single-store kernel tests' tolerance (NaN pattern exact).
            np.testing.assert_array_equal(np.isnan(fast), np.isnan(ref))
            ok = ~np.isnan(fast)
            np.testing.assert_allclose(fast[ok], ref[ok], rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Regression tests for the distributed-tier bugfix sweep
# ---------------------------------------------------------------------------
class TestSplitPlanCacheLRU:
    """The split-plan cache must evict one cold entry at a time, never
    wholesale-``clear()`` — a full clear forced every live scrape shape to
    re-consult the partitioner on its next batch."""

    def test_cache_never_empties_under_churn(self):
        from repro.telemetry.distributed.shard import _SPLIT_CACHE_CAP

        sharded = ShardedStore(shards=2)
        hot = ("hot.metric.a", "hot.metric.b")
        sharded.ingest("t", SampleBatch(0.0, hot, np.ones(2)))
        min_len = len(sharded._split_cache)
        # Churn far past the cap with unique batch shapes, touching the hot
        # shape between every cold insert so LRU keeps it resident.
        for i in range(_SPLIT_CACHE_CAP + 64):
            sharded.ingest("t", SampleBatch(float(i), (f"cold.{i}",), np.ones(1)))
            sharded.ingest("t", SampleBatch(float(i), hot, np.ones(2)))
            min_len = min(min_len, len(sharded._split_cache))
        assert min_len >= 1  # never emptied
        assert len(sharded._split_cache) == _SPLIT_CACHE_CAP  # stays full
        assert hot in sharded._split_cache  # hot shape survived the churn

    def test_lru_evicts_coldest_entry_first(self):
        from repro.telemetry.distributed.shard import _SPLIT_CACHE_CAP

        sharded = ShardedStore(shards=2)
        shapes = [(f"m{i}.s",) for i in range(_SPLIT_CACHE_CAP)]
        for i, names in enumerate(shapes):
            sharded.ingest("t", SampleBatch(float(i), names, np.ones(1)))
        assert len(sharded._split_cache) == _SPLIT_CACHE_CAP
        # Touch the oldest entry, then insert one more shape: the eviction
        # must fall on shapes[1] (now coldest), not the freshly-touched one.
        sharded.ingest("t", SampleBatch(9e9, shapes[0], np.ones(1)))
        sharded.ingest("t", SampleBatch(9e9, ("fresh.s",), np.ones(1)))
        assert shapes[0] in sharded._split_cache
        assert shapes[1] not in sharded._split_cache
        assert len(sharded._split_cache) == _SPLIT_CACHE_CAP


class TestFederationPinnedReads:
    """Fan-outs resolve each involved shard's read-store exactly once per
    query, so a primary dying between fan-out legs cannot mix two members'
    views in one merged result."""

    def _stale_replica_set(self):
        """One shard, replication=1, replica stale for the last 10 ticks."""
        sharded = ShardedStore(shards=1, replication=1)
        names = ("a.power", "b.power", "c.power")
        rng = np.random.default_rng(7)
        for t in range(10):
            sharded.ingest("t", SampleBatch(float(t), names, rng.random(3)))
        rs = sharded.replica_sets[0]
        rs.mark_down(1)
        for t in range(10, 20):
            sharded.ingest("t", SampleBatch(float(t), names, rng.random(3)))
        rs.revive(1, resync=False)  # replica rejoins stale
        return sharded, rs, names

    def test_primary_death_mid_fanout_yields_consistent_snapshot(self):
        sharded, rs, names = self._stale_replica_set()
        # Reference: full (primary) view of every series.
        expect = {n: sharded.query(n) for n in names}

        calls = {"n": 0}
        orig = rs.read_store

        def dying_read_store():
            calls["n"] += 1
            store = orig()
            rs.mark_down(0)  # primary dies right after this resolution
            return store

        rs.read_store = dying_read_store
        try:
            grid, matrix = sharded.align(names, 0.0, 20.0, 1.0, fill="nan")
        finally:
            rs.read_store = orig
            rs.revive(0, resync=False)
        # Exactly one resolution for the whole fan-out...
        assert calls["n"] == 1
        # ...so every column reflects the primary's (full) data, including
        # the ticks the stale replica never saw.
        single = TimeSeriesStore()
        for n in names:
            t, v = expect[n]
            single.append_many(n, t, v)
        _, ref = single.align(names, 0.0, 20.0, 1.0, fill="nan")
        np.testing.assert_array_equal(matrix, ref)

    def test_untouched_down_shard_cannot_fail_a_query(self):
        # Resolution is lazy per shard: an align over names owned by one
        # shard must succeed even when another shard is fully down.
        sharded = ShardedStore(shards=4, replication=0)
        names = tuple(f"m{i}.s" for i in range(8))
        for t in range(5):
            sharded.ingest("t", SampleBatch(float(t), names, np.ones(8)))
        victim = sharded.shard_of(names[0])
        survivor_names = [n for n in names if sharded.shard_of(n) != victim]
        sharded.replica_sets[victim].mark_down(0)
        grid, matrix = sharded.align(survivor_names, 0.0, 5.0, 1.0)
        assert matrix.shape == (len(grid), len(survivor_names))
        with pytest.raises(ShardDownError):
            sharded.align(names, 0.0, 5.0, 1.0)


class TestReviveResyncFailure:
    """``revive(resync=True)`` with no healthy peer must count and warn —
    the member re-enters service with stale data, which used to be silent."""

    def test_counts_and_warns(self, caplog):
        import logging

        sharded = ShardedStore(shards=1, replication=1)
        names = ("a.power",)
        for t in range(6):
            sharded.ingest("t", SampleBatch(float(t), names, np.ones(1)))
        rs = sharded.replica_sets[0]
        rs.mark_down(1)
        for t in range(6, 9):
            sharded.ingest("t", SampleBatch(float(t), names, np.ones(1)))
        rs.mark_down(0)  # now every peer is down too
        with caplog.at_level(logging.WARNING,
                             logger="repro.telemetry.distributed.replica"):
            rs.revive(1, resync=True)
        assert rs.resync_failures == 1
        assert any("no healthy peer" in r.message for r in caplog.records)
        assert sharded.metrics.snapshot()["telemetry.shard.resync_failed"] == 1.0
        # The stale member serves reads again (primary still down).
        t, v = sharded.query("a.power")
        assert len(t) == 6  # missed ticks 6..8 while down

    def test_successful_resync_does_not_count(self):
        sharded = ShardedStore(shards=1, replication=1)
        rs = sharded.replica_sets[0]
        sharded.ingest("t", SampleBatch(0.0, ("a.s",), np.ones(1)))
        rs.mark_down(1)
        sharded.ingest("t", SampleBatch(1.0, ("a.s",), np.ones(1)))
        rs.revive(1, resync=True)  # healthy primary available
        assert rs.resync_failures == 0

    def test_unreplicated_revive_stays_silent(self, caplog):
        import logging

        # replication=0 chaos kill/revive cycles have no peer by design;
        # they must not inflate the failure counter or spam warnings.
        sharded = ShardedStore(shards=1, replication=0)
        rs = sharded.replica_sets[0]
        sharded.ingest("t", SampleBatch(0.0, ("a.s",), np.ones(1)))
        rs.mark_down(0)
        with caplog.at_level(logging.WARNING,
                             logger="repro.telemetry.distributed.replica"):
            rs.revive(0, resync=True)
        assert rs.resync_failures == 0
        assert not caplog.records


class TestDroppedStoresAreFreed:
    def test_store_stack_is_freed_by_reference_counting(
        self, tmp_path, gc_disabled
    ):
        # Ownership runs one way (store -> replica sets -> members ->
        # tiers), so a dropped store is freed at once, not at the next
        # generation-2 collection.
        store = ShardedStore(
            shards=2, replication=1, rollups=True, archive=True,
            retention=1800.0, journal=str(tmp_path / "wal"),
        )
        names = tuple(f"m.s{i}" for i in range(6))
        rng = np.random.default_rng(50)
        for k in range(720):  # 2 h at 10 s: demotes, finalizes tiers
            store.ingest("t", SampleBatch(10.0 * k, names, rng.normal(size=6)))
        member = store.replica_sets[0].members[0]
        engine = member.rollups
        owned = [n for n in names if store.shard_of(n) == 0]
        assert owned and member.archive.chunk_count() > 0
        store.resample(owned[0], 0.0, 7200.0, 300.0, "mean")
        store.align(list(names), 0.0, 7200.0, 600.0, "max")
        assert engine.buckets_served > 0  # tier-served reads ran
        store.anti_entropy(window_s=600.0)
        snapshot = [r.snapshot() for r in store.metric_registries()]
        assert snapshot[0]["telemetry.shard.fanouts"] >= 1.0
        path = str(tmp_path / "snap.npz")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.resample(owned[0], 0.0, 7200.0, 300.0, "mean")[1].size == 24
        refs = [weakref.ref(o) for o in (store, member, engine, loaded)]
        store.close()
        loaded.close()
        del store, member, engine, loaded, snapshot
        assert [ref() for ref in refs] == [None] * 4
