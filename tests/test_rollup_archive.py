"""Rollup cascades + compressed cold tier: unit coverage.

Covers the tentpole paths end to end: incremental tier maintenance at
ingest/flush, the query planner's eligibility gates and hybrid
tier-plus-raw-tail serving, hot→cold demotion driven by the retention
sweep, cold-chunk scans feeding the resample kernels, background
compaction, chunk adoption, degraded loading, and the tier metrics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, StoreError, UnknownMetricError
from repro.telemetry import (
    ArchiveTier,
    ColdChunk,
    RollupEngine,
    SERVABLE_AGGREGATIONS,
    SampleBatch,
    ShardedStore,
    TimeSeriesStore,
    load_store,
    save_store,
)
from repro.telemetry import archive as archive_module
from repro.telemetry import store as store_module
from repro.telemetry.persistence import _META_KEY
from tests.reference import scalar_resample

DAY = 86400.0


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


def _filled(days: float = 2.0, period: float = 10.0, **kwargs):
    """A tiered store and an identical raw store over the same samples."""
    rng = np.random.default_rng(42)
    times = np.arange(0.0, days * DAY, period)
    values = np.round(rng.normal(220.0, 6.0, times.size) * 4) / 4
    tiered = TimeSeriesStore(rollups=True, **kwargs)
    raw = TimeSeriesStore()
    tiered.append_many("node.power", times, values)
    raw.append_many("node.power", times, values)
    return tiered, raw, times, values


class TestRollupConfig:
    """``rollups`` and ``archive`` are on/off switches: the tier shapes are
    constants of their modules, so a bool is the whole configuration."""

    def test_bool_and_dict_forms(self):
        store = TimeSeriesStore(rollups=True, archive=True)
        assert store.rollups is not None and store.archive is not None
        store = TimeSeriesStore()
        assert store.rollups is None and store.archive is None
        # The retired dict form would silently mean the default shape.
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(rollups={"steps": [2.0, 4.0]})
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(archive={"chunk_samples": 512})

    @pytest.mark.parametrize("kind", ["rollups", "archive"])
    @pytest.mark.parametrize("value", ["5m", 3, ["steps"], {"steps": [60.0]}])
    def test_other_types_refused_at_construction(self, kind, value):
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(**{kind: value})
        with pytest.raises(ConfigurationError):
            ShardedStore(shards=2, **{kind: value})

    @pytest.mark.parametrize("parallel", [False, True])
    def test_sharded_store_saves_the_config_it_was_built_with(
        self, tmp_path, parallel
    ):
        store = ShardedStore(
            shards=2, parallel=parallel, rollups=True, archive=True,
        )
        try:
            for t in range(8):
                store.ingest("t", SampleBatch(float(t), ("a", "b"), np.ones(2)))
            assert store.rollups is True and store.archive is True
            save_store(store, str(tmp_path / "s.npz"))
        finally:
            store.close()
        # The manifest and every shard file record the deployment's own
        # switches, as booleans.
        for path in tmp_path.glob("s*.npz"):
            with np.load(path) as z:
                meta = json.loads(bytes(z[_META_KEY]).decode("utf-8"))
            assert (meta["rollups"], meta["archive"]) == (True, True), path
        loaded = load_store(str(tmp_path / "s.npz"))
        assert loaded.rollups is True and loaded.archive is True
        for rs in loaded.replica_sets:
            for member in rs.members:
                assert member.rollups is not None
                assert member.archive is not None


class TestRollupServing:
    @pytest.mark.parametrize("agg", SERVABLE_AGGREGATIONS)
    @pytest.mark.parametrize("step", [60.0, 3600.0, 7200.0])
    def test_tier_served_bits_match_raw(self, agg, step):
        tiered, raw, _, _ = _filled()
        g1, r1 = tiered.resample("node.power", 0.0, 2 * DAY, step, agg)
        g2, r2 = raw.resample("node.power", 0.0, 2 * DAY, step, agg)
        assert _bits_equal(g1, g2)
        assert _bits_equal(r1, r2)
        if step in (60.0, 3600.0) or agg in ("min", "max", "count"):
            # mean/sum are only servable at an exact tier step (k == 1:
            # float addition is not associative); min/max/count combine
            # across k tier buckets, so every case here is tier-served.
            assert tiered.rollups.buckets_served > 0

    def test_full_tier_hit_counted(self):
        tiered, _, _, _ = _filled()
        tiered.resample("node.power", 0.0, DAY, 3600.0, "mean")
        assert tiered.rollups.tier_hits >= 1

    def test_unaligned_since_falls_back_to_raw(self):
        tiered, raw, _, _ = _filled()
        before = tiered.rollups.buckets_served
        g1, r1 = tiered.resample("node.power", 7.0, DAY, 3600.0, "mean")
        g2, r2 = raw.resample("node.power", 7.0, DAY, 3600.0, "mean")
        assert _bits_equal(r1, r2)
        assert tiered.rollups.buckets_served == before
        assert tiered.rollups.raw_fallbacks >= 1

    def test_unaligned_step_falls_back_to_raw(self):
        tiered, raw, _, _ = _filled()
        g1, r1 = tiered.resample("node.power", 0.0, DAY, 93.0, "mean")
        g2, r2 = raw.resample("node.power", 0.0, DAY, 93.0, "mean")
        assert _bits_equal(r1, r2)

    def test_non_servable_agg_falls_back(self):
        tiered, raw, _, _ = _filled()
        g1, r1 = tiered.resample("node.power", 0.0, DAY, 3600.0, "p95")
        g2, r2 = raw.resample("node.power", 0.0, DAY, 3600.0, "p95")
        assert _bits_equal(r1, r2)

    def test_final_bucket_served_raw(self):
        # The closed upper bound makes the final bucket's semantics differ
        # from the half-open tier buckets; the planner must compute it from
        # raw even when every earlier bucket is tier-served.
        tiered, raw, _, _ = _filled(days=1.0)
        tiered.append("node.power", DAY, 1.0)
        raw.append("node.power", DAY, 1.0)
        g1, r1 = tiered.resample("node.power", 0.0, DAY, 3600.0, "count")
        g2, r2 = raw.resample("node.power", 0.0, DAY, 3600.0, "count")
        assert _bits_equal(r1, r2)
        # Last grid bucket includes the sample AT `until` (closed bound),
        # unlike the half-open tier bucket: 360 in-bucket samples + 1.
        assert r1[-1] == 361.0

    def test_align_matches_raw(self):
        rng = np.random.default_rng(1)
        times = np.arange(0.0, DAY, 10.0)
        tiered = TimeSeriesStore(rollups=True)
        raw = TimeSeriesStore()
        for name in ("a.p", "b.p", "c.p"):
            vals = rng.normal(100.0, 3.0, times.size)
            tiered.append_many(name, times, vals)
            raw.append_many(name, times, vals)
        g1, m1 = tiered.align(["a.p", "b.p", "c.p"], 0.0, DAY, 3600.0,
                              "max", fill="nan")
        g2, m2 = raw.align(["a.p", "b.p", "c.p"], 0.0, DAY, 3600.0,
                           "max", fill="nan")
        assert _bits_equal(m1, m2)

    def test_incremental_equals_bulk(self, monkeypatch):
        """Tiers built sample-by-sample match tiers built in one append."""
        rng = np.random.default_rng(9)
        times = np.arange(0.0, 30000.0, 5.0)
        values = rng.normal(50.0, 2.0, times.size)
        bulk = TimeSeriesStore(rollups=True)
        bulk.append_many("m", times, values)
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 16)
        drip = TimeSeriesStore(rollups=True)
        for t, v in zip(times, values):
            drip.append("m", float(t), float(v))
        drip.flush()
        g1, r1 = bulk.resample("m", 0.0, 30000.0, 60.0, "mean")
        g2, r2 = drip.resample("m", 0.0, 30000.0, 60.0, "mean")
        assert _bits_equal(r1, r2)

    def test_lww_overwrite_at_tail(self):
        """Re-publishing the latest timestamp (LWW) stays consistent: the
        overwritten sample lives in the never-finalized tail bucket."""
        tiered = TimeSeriesStore(rollups=True)
        raw = TimeSeriesStore()
        for s in (tiered, raw):
            s.append_many("m", np.arange(0.0, 100.0, 1.0),
                          np.ones(100))
            s.append("m", 99.0, 7.0)  # overwrite
            s.append_many("m", np.arange(100.0, 200.0, 1.0), np.ones(100))
        g1, r1 = tiered.resample("m", 0.0, 200.0, 10.0, "sum")
        g2, r2 = raw.resample("m", 0.0, 200.0, 10.0, "sum")
        assert _bits_equal(r1, r2)
        assert r1[9] == 16.0  # nine 1.0 samples + the overwritten 7.0


class TestGapBucketSemantics:
    """Satellite: count/sum on gap buckets are NaN — never 0 — in the
    scalar reference, the reduceat kernels, and tier-served answers."""

    def _gappy(self):
        tiered = TimeSeriesStore(rollups=True)
        raw = TimeSeriesStore()
        t = np.concatenate([
            np.arange(0.0, 600.0, 10.0),
            np.arange(1800.0, 2400.0, 10.0),  # 20-minute hole
        ])
        v = np.linspace(1.0, 2.0, t.size)
        tiered.append_many("m", t, v)
        raw.append_many("m", t, v)
        return tiered, raw

    @pytest.mark.parametrize("agg", ["count", "sum"])
    def test_gap_is_nan_in_all_three_paths(self, agg):
        tiered, raw = self._gappy()
        _, vec = raw.resample("m", 0.0, 2400.0, 60.0, agg)
        _, sca = scalar_resample(raw, "m", 0.0, 2400.0, 60.0, agg)
        _, tier = tiered.resample("m", 0.0, 2400.0, 60.0, agg)
        gap = slice(10, 30)  # buckets [600, 1800)
        assert np.isnan(vec[gap]).all()
        assert np.isnan(sca[gap]).all()
        assert np.isnan(tier[gap]).all()
        # Reference and kernels must agree on which buckets are gaps (NaN,
        # never 0); scalar np.sum is pairwise so its non-gap values may
        # differ from reduceat in the last ulp.  Tier output is
        # bit-identical to the kernels it stands in for.
        assert np.array_equal(np.isnan(vec), np.isnan(sca))
        np.testing.assert_allclose(vec[~np.isnan(vec)], sca[~np.isnan(sca)],
                                   rtol=1e-12)
        assert _bits_equal(vec, tier)
        assert tiered.rollups.buckets_served > 0

    def test_present_buckets_are_counts_not_nan(self):
        tiered, raw = self._gappy()
        _, tier = tiered.resample("m", 0.0, 2400.0, 60.0, "count")
        assert tier[0] == 6.0 and tier[-10] == 6.0


class TestTimestampCodec:
    @pytest.mark.parametrize("times", [
        np.arange(0.0, 1e5, 10.0),                       # regular cadence
        np.arange(0.0, 100.0, 0.25),                     # fractional ticks
        np.array([0.0]),                                 # single sample
        np.array([], dtype=np.float64),                  # empty
        np.array([1.5e9, 1.5e9 + 0.1, 1.5e9 + 0.3]),     # epoch-scale jitter
        np.cumsum(np.random.default_rng(0).uniform(1e-9, 1e3, 500)),
    ])
    def test_exact_round_trip(self, times):
        from repro.telemetry.archive import decode_timestamps, encode_timestamps

        params, payload = encode_timestamps(np.asarray(times, np.float64))
        out = decode_timestamps(params, payload)
        assert _bits_equal(times, out)

    def test_regular_cadence_is_near_free(self):
        from repro.telemetry.archive import encode_timestamps

        params, payload = encode_timestamps(np.arange(0.0, 1e6, 10.0))
        assert params["width"] == 0 and payload.size == 0


class TestValueCodec:
    @pytest.mark.parametrize("values", [
        np.array([1.0, 1.0, 1.0]),
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]),
        np.linspace(-1e18, 1e18, 100),
        np.random.default_rng(3).normal(220.0, 5.0, 1000),
        np.array([], dtype=np.float64),
    ])
    def test_exact_round_trip(self, values):
        from repro.telemetry.archive import decode_values, encode_values

        params, bitmap, payload = encode_values(
            np.asarray(values, np.float64)
        )
        out = decode_values(params, bitmap, payload)
        assert _bits_equal(values, out)


class TestArchiveTier:
    def test_demote_scan_round_trip(self, monkeypatch):
        monkeypatch.setattr(archive_module, "CHUNK_SAMPLES", 128)
        tier = ArchiveTier()
        t = np.arange(0.0, 5000.0, 10.0)
        v = np.random.default_rng(5).normal(0.0, 1.0, t.size)
        tier.demote("m", t, v)
        assert tier.chunk_count("m") == 4  # the round trip spans chunks
        ts, vs = tier.scan("m", float("-inf"), float("inf"))
        assert _bits_equal(t, ts) and _bits_equal(v, vs)
        ts, vs = tier.scan("m", 1000.0, 2000.0)
        assert ts[0] >= 1000.0 and ts[-1] <= 2000.0
        assert tier.cold_scans == 2

    def test_demote_rejects_out_of_order(self):
        tier = ArchiveTier()
        tier.demote("m", np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(StoreError):
            tier.demote("m", np.array([0.5]), np.zeros(1))

    def test_compaction_merges_small_chunks(self, monkeypatch):
        monkeypatch.setattr(archive_module, "CHUNK_SAMPLES", 100)
        monkeypatch.setattr(archive_module, "COMPACTION_TRIGGER", 4)
        tier = ArchiveTier()
        for i in range(12):
            t = np.arange(i * 100.0, i * 100.0 + 50.0, 10.0)
            tier.demote("m", t, np.ones(t.size))
        assert tier.compactions > 0
        assert tier.chunk_count("m") < 12
        ts, _ = tier.scan("m", float("-inf"), float("inf"))
        assert ts.size == 12 * 5  # nothing lost

    def test_compaction_decodes_each_chunk_once(self, monkeypatch):
        monkeypatch.setattr(archive_module, "CHUNK_SAMPLES", 100)
        monkeypatch.setattr(archive_module, "COMPACTION_TRIGGER", 100)
        tier = ArchiveTier()
        for i in range(12):
            t = np.arange(i * 100.0, i * 100.0 + 50.0, 10.0)
            tier.demote("m", t, np.arange(t.size, dtype=np.float64))
        tier.demote("m", np.arange(1200.0, 1300.0), np.zeros(100))  # full
        tier.demote("m", np.arange(1300.0, 1310.0), np.zeros(10))  # lone
        merged = tier.chunk_count("m") - 2  # every chunk but full + lone
        t0, v0 = tier.scan("m", float("-inf"), float("inf"))
        calls = []
        decode = ColdChunk.decode
        monkeypatch.setattr(
            ColdChunk, "decode", lambda self: calls.append(self) or decode(self))
        assert tier.compact("m") > 0
        assert len(calls) == merged == len({id(c) for c in calls})
        monkeypatch.undo()
        t1, v1 = tier.scan("m", float("-inf"), float("inf"))
        assert _bits_equal(t0, t1) and _bits_equal(v0, v1)

    def test_adopt_rejects_overlap(self):
        tier = ArchiveTier()
        tier.demote("m", np.array([0.0, 10.0]), np.zeros(2))
        chunk = ColdChunk.encode(np.array([5.0]), np.array([1.0]))
        with pytest.raises(StoreError):
            tier.adopt("m", [chunk])

    def test_value_at_locf(self):
        tier = ArchiveTier()
        tier.demote("m", np.array([0.0, 10.0, 20.0]),
                    np.array([1.0, 2.0, 3.0]))
        assert tier.value_at("m", 15.0) == 2.0
        assert tier.value_at("m", 20.0) == 3.0
        assert tier.value_at("m", -1.0) is None

    def test_compression_ratio_on_telemetry(self):
        tier = ArchiveTier()
        t = np.arange(0.0, DAY, 10.0)
        v = np.round(np.random.default_rng(0).normal(220, 5, t.size) * 4) / 4
        tier.demote("m", t, v)
        assert tier.compression_ratio >= 4.0


class TestStoreTiering:
    def test_retention_demotes_instead_of_deleting(self):
        store = TimeSeriesStore(rollups=True, archive=True, retention=3600.0)
        t = np.arange(0.0, 3 * DAY, 10.0)
        v = np.random.default_rng(2).normal(100.0, 4.0, t.size)
        store.append_many("m", t, v)
        assert store.archive.samples("m") > 0
        times, values = store.query("m")
        assert _bits_equal(t, times) and _bits_equal(v, values)

    def test_cold_spliced_resample_matches_raw(self):
        cold = TimeSeriesStore(archive=True, retention=3600.0)
        raw = TimeSeriesStore()
        t = np.arange(0.0, 2 * DAY, 10.0)
        v = np.random.default_rng(4).normal(0.0, 1.0, t.size)
        cold.append_many("m", t, v)
        raw.append_many("m", t, v)
        g1, r1 = cold.resample("m", 0.0, 2 * DAY, 600.0, "mean")
        g2, r2 = raw.resample("m", 0.0, 2 * DAY, 600.0, "mean")
        assert _bits_equal(r1, r2)

    def test_latest_and_value_at_reach_cold(self):
        store = TimeSeriesStore(archive=True, retention=100.0)
        store.append_many("m", np.arange(0.0, 5000.0, 10.0),
                          np.arange(500.0))
        # Values fully inside the cold tier:
        assert store.value_at("m", 55.0) == 5.0
        t, v = store.latest("m")
        assert t == 4990.0

    def test_unknown_metric_still_raises(self):
        store = TimeSeriesStore(archive=True)
        with pytest.raises(UnknownMetricError):
            store.query("nope")

    def test_rollups_survive_raw_trim_without_archive(self):
        """Rollups are long-horizon memory: with no cold tier, tier-served
        history outlives the trimmed raw samples."""
        store = TimeSeriesStore(rollups=True, retention=1800.0)
        t = np.arange(0.0, DAY, 10.0)
        store.append_many("m", t, np.ones(t.size))
        hot_t, _ = store.query("m")
        assert hot_t[0] > 0.0  # raw really was trimmed
        g, r = store.resample("m", 0.0, 1800.0, 60.0, "count")
        assert r[0] == 6.0  # served from the tier, raw is gone

    @staticmethod
    def _fleet_and_slow(store: TimeSeriesStore) -> None:
        """12 h of four 10 s series in one batch shape and one 60 s series
        in its own: the slow series' staging block spans more than the
        hour of retention."""
        fleet = tuple(f"n{i}.power" for i in range(4))
        for k in range(12 * 360):
            t = 10.0 * k
            store.ingest("fleet", SampleBatch(t, fleet, np.ones(4)))
            if k % 6 == 0:
                store.ingest("slow", SampleBatch(t, ("slow",), np.ones(1)))

    def test_sweep_keeps_staged_rows_in_open_tier_buckets(self):
        """The retention sweep must not trim a series whose next rows are
        still staged: its open tier buckets would be finalized without
        the trimmed samples, and raw can no longer answer those hours."""
        store = TimeSeriesStore(rollups=True, retention=3600.0)
        self._fleet_and_slow(store)
        store.flush()
        _, counts = store.resample("slow", 0.0, 43200.0, 3600.0, "count")
        assert counts.tolist() == [60.0] * 12

    def test_sweep_leaves_staged_series_to_their_own_flush(self):
        """With an archive the trimmed samples survive as cold chunks, but
        finishing the open tier buckets must not need a cold decode."""
        store = TimeSeriesStore(rollups=True, archive=True, retention=3600.0)
        self._fleet_and_slow(store)
        store.flush()
        assert store.archive.cold_scans == 0
        _, counts = store.resample("slow", 0.0, 43200.0, 3600.0, "count")
        assert counts.tolist() == [60.0] * 12

    def test_tier_read_flushes_staged_rows_first(self):
        """A read of a series with staged rows plans from the tier cursors
        those rows advance: planning first would send the hours they
        finalize to a raw tail that retention has already trimmed."""
        store = TimeSeriesStore(rollups=True, retention=3600.0)
        for k in range(12 * 60):
            store.ingest("slow", SampleBatch(60.0 * k, ("slow",), np.ones(1)))
        assert store.staged_samples > 60  # staging spans the retention
        _, counts = store.resample("slow", 0.0, 43200.0, 3600.0, "count")
        assert counts.tolist() == [60.0] * 12

    def test_metrics_exposed(self):
        store = TimeSeriesStore(rollups=True, archive=True, retention=600.0)
        store.append_many("m", np.arange(0.0, 5000.0, 10.0), np.ones(500))
        store.resample("m", 0.0, 4000.0, 60.0, "mean")
        snap = store.rollups.metrics.snapshot()
        assert snap["telemetry.rollup.buckets_finalized"] > 0
        snap = store.archive.metrics.snapshot()
        assert snap["telemetry.archive.demoted_samples"] > 0
        assert "telemetry.archive.missing_chunks" in snap
        assert snap["telemetry.archive.encoded_bytes"] > 0


class TestRollupEngineInternals:
    def test_serve_requires_observed_series(self):
        engine = RollupEngine()
        edges = np.arange(0.0, 100.0, 10.0)
        assert engine.serve("m", 10.0, "mean", edges) is None

    def test_cursor_time_advances(self):
        store = TimeSeriesStore(rollups=True)
        store.append_many("m", np.arange(0.0, 100.0, 1.0), np.ones(100))
        cursor = store.rollups.cursor_time("m", 10.0)
        assert cursor == 90.0  # everything before the tail bucket finalized


def _tier_steps(store: TimeSeriesStore, name: str) -> list:
    return [step for step, _, _ in store.rollups.tier_state(name)]


def _scrape(store: TimeSeriesStore, names, ticks: int, period: float):
    """``ticks`` fleet scrapes of ``names`` through the ingest path."""
    rng = np.random.default_rng(7)
    for k in range(ticks):
        values = np.round(rng.normal(220.0, 6.0, len(names)) * 4) / 4
        store.ingest("fleet", SampleBatch.from_mapping(
            k * period, dict(zip(names, values.tolist()))
        ))


class TestTierMaterialisation:
    """A tier materialises for a series only where its buckets summarise
    (step >= 4x the series' cadence), unless the tiers are the only memory
    beyond retention."""

    NAMES = [f"n{i}.power" for i in range(4)]

    def test_coarse_cadence_keeps_only_summarising_tiers(self):
        store = TimeSeriesStore(rollups=True, archive=True, retention=3600.0)
        raw = TimeSeriesStore()
        _scrape(store, self.NAMES, 24 * 60, 60.0)
        _scrape(raw, self.NAMES, 24 * 60, 60.0)
        assert _tier_steps(store, "n0.power") == [300.0, 3600.0]
        rows = store.rollups.metrics.snapshot()["telemetry.rollup.rows"]
        assert 0 < rows <= 0.25 * store.samples_ingested
        snap = store.rollups.metrics.snapshot()
        assert snap["telemetry.rollup.resident_bytes"] >= 40 * rows
        for step in (60.0, 300.0, 600.0, 3600.0):
            for agg in sorted(SERVABLE_AGGREGATIONS):
                _, r1 = store.resample("n1.power", 0.0, DAY, step, agg)
                _, r2 = raw.resample("n1.power", 0.0, DAY, step, agg)
                assert _bits_equal(r1, r2), (step, agg)
        assert store.rollups.tier_hits > 0

    def test_fine_cadence_materialises_every_tier(self):
        store = TimeSeriesStore(rollups=True)
        store.append_many("m", np.arange(0.0, 7200.0, 1.0), np.ones(7200))
        assert _tier_steps(store, "m") == [10.0, 60.0, 300.0, 3600.0]

    def test_nothing_finalised_before_the_cadence_is_known(self):
        store = TimeSeriesStore(rollups=True)
        for t in range(7):
            store.append("m", t * 600.0, 1.0)
        assert store.rollups.series_tracked == 0
        store.append("m", 7 * 600.0, 1.0)
        assert _tier_steps(store, "m") == [3600.0]

    def test_retention_without_archive_keeps_every_tier(self):
        store = TimeSeriesStore(rollups=True, retention=1800.0)
        raw = TimeSeriesStore()
        _scrape(store, self.NAMES, 6 * 60, 60.0)
        _scrape(raw, self.NAMES, 6 * 60, 60.0)
        assert _tier_steps(store, "n0.power") == [10.0, 60.0, 300.0, 3600.0]
        hot_t, _ = store.query("n0.power")
        assert hot_t[0] > 7200.0  # raw of the first two hours is gone
        for agg in ("min", "max", "count", "mean"):
            _, r1 = store.resample("n0.power", 0.0, 7200.0, 60.0, agg)
            _, r2 = raw.resample("n0.power", 0.0, 7200.0, 60.0, agg)
            # Every bucket but the closed final one is tier-served.
            assert _bits_equal(r1[:-1], r2[:-1]), agg

    def _assert_same_tiers(self, live, other):
        for name in self.NAMES + ["fast.fan"]:
            assert _tier_steps(other, name) == _tier_steps(live, name), name
            for step in (10.0, 60.0, 300.0, 3600.0):
                for agg in ("mean", "max", "count"):
                    _, r1 = live.resample(name, 0.0, 6 * 3600.0, step, agg)
                    _, r2 = other.resample(name, 0.0, 6 * 3600.0, step, agg)
                    assert _bits_equal(r1, r2), (name, step, agg)

    def _filled_store(self, **kwargs):
        store = TimeSeriesStore(rollups=True, archive=True, retention=3600.0,
                                **kwargs)
        _scrape(store, self.NAMES, 6 * 60, 60.0)
        store.append_many("fast.fan", np.arange(0.0, 6 * 3600.0, 1.0),
                          np.arange(6 * 3600.0) % 7)
        return store

    def test_save_load_keeps_the_tier_set(self, tmp_path):
        store = self._filled_store()
        assert _tier_steps(store, "fast.fan") == [10.0, 60.0, 300.0, 3600.0]
        path = str(tmp_path / "tiers.npz")
        save_store(store, path)
        self._assert_same_tiers(store, load_store(path))

    def test_journal_reopen_keeps_the_tier_set(self, tmp_path):
        journal = str(tmp_path / "wal")
        store = self._filled_store(journal=journal)
        store.close()
        reopened = TimeSeriesStore(rollups=True, archive=True,
                                   retention=3600.0, journal=journal)
        try:
            self._assert_same_tiers(store, reopened)
        finally:
            reopened.close()
