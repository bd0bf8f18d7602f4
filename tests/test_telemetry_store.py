"""Tests for the columnar time-series store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError, UnknownMetricError
from repro.telemetry import SampleBatch, SeriesBuffer, TimeSeriesStore
from repro.telemetry import store as store_module


class TestSeriesBuffer:
    def test_append_and_views(self):
        buf = SeriesBuffer("m")
        buf.append(1.0, 10.0)
        buf.append(2.0, 20.0)
        assert len(buf) == 2
        assert buf.times.tolist() == [1.0, 2.0]
        assert buf.values.tolist() == [10.0, 20.0]

    def test_growth_beyond_initial_capacity(self):
        buf = SeriesBuffer("m", capacity=4)
        for i in range(100):
            buf.append(float(i), float(i) * 2)
        assert len(buf) == 100
        assert buf.values[-1] == 198.0

    def test_equal_timestamp_overwrites(self):
        buf = SeriesBuffer("m")
        buf.append(1.0, 10.0)
        buf.append(1.0, 99.0)
        assert len(buf) == 1
        assert buf.values[0] == 99.0

    def test_out_of_order_rejected(self):
        buf = SeriesBuffer("m")
        buf.append(5.0, 1.0)
        with pytest.raises(StoreError):
            buf.append(4.0, 1.0)

    def test_range_query_inclusive(self):
        buf = SeriesBuffer("m")
        for t in range(10):
            buf.append(float(t), float(t))
        times, values = buf.range(2.0, 5.0)
        assert times.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_range_returns_views_not_copies(self):
        buf = SeriesBuffer("m")
        for t in range(10):
            buf.append(float(t), float(t))
        times, _ = buf.range(0.0, 9.0)
        assert times.base is not None  # a view onto the internal buffer

    def test_latest(self):
        buf = SeriesBuffer("m")
        buf.append(1.0, 5.0)
        buf.append(3.0, 7.0)
        assert buf.latest() == (3.0, 7.0)

    def test_latest_empty_raises(self):
        with pytest.raises(StoreError):
            SeriesBuffer("m").latest()

    def test_value_at_carries_forward(self):
        buf = SeriesBuffer("m")
        buf.append(1.0, 5.0)
        buf.append(10.0, 7.0)
        assert buf.value_at(5.0) == 5.0
        assert buf.value_at(10.0) == 7.0
        assert buf.value_at(100.0) == 7.0

    def test_value_at_before_first_raises(self):
        buf = SeriesBuffer("m")
        buf.append(5.0, 1.0)
        with pytest.raises(StoreError):
            buf.value_at(4.0)

    def test_append_many(self):
        buf = SeriesBuffer("m")
        buf.append_many(np.arange(5.0), np.arange(5.0) * 10)
        assert len(buf) == 5
        buf.append_many(np.arange(5.0, 10.0), np.ones(5))
        assert len(buf) == 10

    def test_append_many_must_not_precede_last(self):
        buf = SeriesBuffer("m")
        buf.append(5.0, 1.0)
        with pytest.raises(StoreError):
            buf.append_many(np.array([4.0, 6.0]), np.zeros(2))

    def test_append_many_equal_boundary_overwrites(self):
        """Regression: a bulk append starting at the last stored timestamp
        used to be rejected; it must overwrite in place (last writer wins)
        to match ``append`` semantics."""
        buf = SeriesBuffer("m")
        buf.append(5.0, 1.0)
        buf.append_many(np.array([5.0, 6.0]), np.array([7.0, 8.0]))
        assert len(buf) == 2
        assert buf.times.tolist() == [5.0, 6.0]
        assert buf.values.tolist() == [7.0, 8.0]

    def test_append_many_all_equal_boundary_collapses(self):
        buf = SeriesBuffer("m")
        buf.append(5.0, 1.0)
        buf.append_many(np.array([5.0, 5.0]), np.array([2.0, 3.0]))
        assert len(buf) == 1
        assert buf.values.tolist() == [3.0]  # final writer wins

    def test_append_many_equal_times_inside_one_batch_collapse(self):
        buf = SeriesBuffer("m")
        buf.append_many(np.array([1.0, 5.0, 5.0, 5.0, 6.0]),
                        np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert buf.times.tolist() == [1.0, 5.0, 6.0]
        assert buf.values.tolist() == [0.0, 3.0, 4.0]  # final writer wins

    def test_append_many_rejects_unsorted(self):
        with pytest.raises(StoreError):
            SeriesBuffer("m").append_many(np.array([2.0, 1.0]), np.zeros(2))

    def test_trim_before(self):
        buf = SeriesBuffer("m")
        for t in range(10):
            buf.append(float(t), float(t))
        dropped = buf.trim_before(5.0)
        assert dropped == 5
        assert buf.times.tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]


class TestStoreIngest:
    def test_ingest_batch(self):
        store = TimeSeriesStore()
        store.ingest("topic", SampleBatch.from_mapping(1.0, {"a": 1.0, "b": 2.0}))
        assert store.names() == ["a", "b"]
        assert store.samples_ingested == 2

    def test_latest_time_tracks_max(self):
        store = TimeSeriesStore()
        store.append("a", 5.0, 1.0)
        store.append("b", 3.0, 1.0)
        assert store.latest_time == 5.0

    def test_retention_trims(self):
        store = TimeSeriesStore(retention=10.0)
        for t in range(100):
            store.append("a", float(t), 0.0)
        times, _ = store.query("a")
        assert times[0] >= 89.0

    def test_retention_applies_to_append_many(self):
        """Regression: bulk ingest used to bypass the retention policy."""
        store = TimeSeriesStore(retention=10.0)
        store.append_many("a", np.arange(100.0), np.zeros(100))
        times, _ = store.query("a")
        assert times[0] >= 89.0
        assert len(store.series("a")) <= 12

    def test_retention_append_many_trims_other_series(self):
        store = TimeSeriesStore(retention=10.0)
        for t in range(50):
            store.append("old", float(t), 0.0)
        store.append_many("new", np.arange(100.0, 120.0), np.zeros(20))
        old_times, _ = store.query("old")
        assert old_times.size == 0  # everything older than 119 - 10

    def test_retention_append_append_many_interleaved(self):
        store = TimeSeriesStore(retention=20.0)
        store.append("a", 0.0, 1.0)
        store.append_many("b", np.arange(0.0, 30.0), np.zeros(30))
        store.append("a", 35.0, 2.0)
        store.append_many("b", np.arange(40.0, 50.0), np.ones(10))
        for name in ("a", "b"):
            times, _ = store.query(name)
            assert times.size == 0 or times[0] >= store.latest_time - 20.0

    def test_unknown_series(self):
        with pytest.raises(UnknownMetricError):
            TimeSeriesStore().query("nope")

    def test_bulk_append_keeps_the_last_writer_of_a_repeated_time(self):
        """A bulk append stores what ``append`` sample by sample stores."""
        store = TimeSeriesStore()
        store.append_many("a", [5.0, 5.0], [1.0, 2.0])
        times, values = store.query("a")
        assert times.tolist() == [5.0] and values.tolist() == [2.0]

    def test_block_append_keeps_the_last_row_of_a_repeated_time(self):
        store = TimeSeriesStore()
        store.append_block(("a", "b"), np.array([5.0, 5.0]),
                           np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert store.query("a")[1].tolist() == [2.0]
        assert store.query("b")[1].tolist() == [4.0]
        assert store.query("b")[0].tolist() == [5.0]


def _batch(t, names):
    return SampleBatch(t, names, np.full(len(names), 7.0))


def _block(t, names):
    return names, np.array([t]), np.full((1, len(names)), 7.0)


class TestVersionStampTracksContent:
    """Regression: a batch rejected on its k-th name left the first k-1
    samples applied with ``version_stamp()`` unchanged, so a result cache
    keyed on the stamp could serve a pre-write answer.  Batch ingest is
    now all-or-nothing; a block append may still apply a prefix."""

    #: label -> (write, raises, changes what queries return).  The store
    #: holds a@5 and b@5,20, so a write at t=10 is out of order for "b".
    WRITES = {
        "ingest_ok": (
            lambda s: s.ingest("t", _batch(30.0, ("a", "b"))), False, True),
        "ingest_rejects_1st_name": (
            lambda s: s.ingest("t", _batch(10.0, ("b", "a"))), True, False),
        "ingest_rejects_2nd_name": (
            lambda s: s.ingest("t", _batch(10.0, ("a", "b"))), True, False),
        "block_ok": (
            lambda s: s.append_block(*_block(30.0, ("a", "b"))), False, True),
        "block_rejects_1st_column": (
            lambda s: s.append_block(*_block(10.0, ("b", "a"))), True, False),
        "block_rejects_2nd_column": (
            lambda s: s.append_block(*_block(10.0, ("a", "b"))), True, True),
        "append_rejected": (
            lambda s: s.append("b", 10.0, 7.0), True, False),
        "append_many_rejected": (
            lambda s: s.append_many("b", np.array([10.0]), np.array([7.0])),
            True, False),
    }

    @staticmethod
    def _content(store):
        return {
            name: tuple(a.tobytes() for a in store.query(name))
            for name in store.names()
        }

    @pytest.mark.parametrize("label", sorted(WRITES))
    def test_stamp_moves_iff_content_moves(self, label):
        write, raises, moves = self.WRITES[label]
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch(5.0, ("a", "b"), np.array([1.0, 2.0])))
        store.append("b", 20.0, 3.0)
        content, stamp = self._content(store), store.version_stamp()
        if raises:
            with pytest.raises(StoreError):
                write(store)
        else:
            write(store)
        assert (self._content(store) != content) == moves
        assert (store.version_stamp() != stamp) == moves


class TestStagedIngest:
    """Batch ingest stages samples per series and flushes vectorized."""

    def test_staged_samples_visible_to_queries(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        for t in range(10):
            store.ingest("topic", SampleBatch.from_mapping(float(t), {"a": float(t)}))
        assert store.staged_samples == 10  # nothing flushed yet
        times, values = store.query("a")
        assert times.tolist() == [float(t) for t in range(10)]
        assert store.staged_samples == 0  # read flushed the series

    def test_flush_threshold_triggers_vectorized_flush(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 4)
        store = TimeSeriesStore()
        for t in range(10):
            store.ingest("topic", SampleBatch.from_mapping(float(t), {"a": 1.0}))
        assert store.flushes >= 2
        assert len(store.series("a")) == 10

    def test_staged_series_listed_before_flush(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("topic", SampleBatch.from_mapping(0.0, {"a": 1.0, "b": 2.0}))
        assert store.names() == ["a", "b"]
        assert "a" in store and len(store) == 2

    def test_equal_timestamp_ingest_is_last_writer_wins(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t1", SampleBatch.from_mapping(1.0, {"a": 1.0}))
        store.ingest("t2", SampleBatch.from_mapping(1.0, {"a": 9.0}))
        times, values = store.query("a")
        assert times.tolist() == [1.0]
        assert values.tolist() == [9.0]

    def test_lww_across_flush_boundary(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch.from_mapping(1.0, {"a": 1.0}))
        store.flush()
        store.ingest("t", SampleBatch.from_mapping(1.0, {"a": 9.0}))
        times, values = store.query("a")
        assert times.tolist() == [1.0]
        assert values.tolist() == [9.0]

    def test_out_of_order_ingest_raises_immediately(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch.from_mapping(5.0, {"a": 1.0}))
        with pytest.raises(StoreError):
            store.ingest("t", SampleBatch.from_mapping(4.0, {"a": 2.0}))

    def test_out_of_order_vs_flushed_data_raises(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch.from_mapping(5.0, {"a": 1.0}))
        store.flush()
        with pytest.raises(StoreError):
            store.ingest("t", SampleBatch.from_mapping(4.0, {"a": 2.0}))

    def test_interleaved_ingest_and_direct_append(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch.from_mapping(1.0, {"a": 1.0}))
        store.append("a", 2.0, 2.0)  # flushes staging first, stays ordered
        store.ingest("t", SampleBatch.from_mapping(3.0, {"a": 3.0}))
        times, values = store.query("a")
        assert times.tolist() == [1.0, 2.0, 3.0]
        assert values.tolist() == [1.0, 2.0, 3.0]

    def test_direct_append_older_than_staged_rejected(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch.from_mapping(10.0, {"a": 1.0}))
        with pytest.raises(StoreError):
            store.append("a", 5.0, 0.0)

    def test_flush_returns_sample_count(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        store.ingest("t", SampleBatch.from_mapping(0.0, {"a": 1.0, "b": 2.0}))
        store.ingest("t", SampleBatch.from_mapping(1.0, {"a": 1.0, "b": 3.0}))
        assert store.flush() == 4
        assert store.flush() == 0

    def test_interleaved_overlapping_shapes_keep_per_series_order(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore()
        for t in range(4):
            names = ("a", "b") if t % 2 == 0 else ("b", "c")
            store.ingest("t", SampleBatch(float(t), names, np.array([t, -t])))
        # Each shape flushed the other on arrival: only the last is staged.
        assert store.staged_samples == 2
        assert store.query("a")[1].tolist() == [0.0, 2.0]
        assert store.query("b")[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert store.query("b")[1].tolist() == [0.0, 1.0, -2.0, 3.0]
        assert store.query("c")[1].tolist() == [-1.0, -3.0]

    def test_repeated_name_in_batch_is_last_writer_wins(self, tmp_path):
        store = TimeSeriesStore(journal=str(tmp_path))
        names = ("a", "b", "a")
        store.ingest("t", SampleBatch(1.0, names, np.array([1.0, 2.0, 3.0])))
        store.ingest("t", SampleBatch(2.0, names, np.array([4.0, 5.0, 6.0])))
        assert store.query("a")[1].tolist() == [3.0, 6.0]
        store.close()
        reopened = TimeSeriesStore(journal=str(tmp_path))
        try:
            assert reopened.query("a")[1].tolist() == [3.0, 6.0]
            assert reopened.query("b")[1].tolist() == [2.0, 5.0]
            assert reopened.recovery.replay_conflicts == 0
        finally:
            reopened.close()

    def test_rejected_batch_writes_no_journal_record(self, tmp_path):
        store = TimeSeriesStore(journal=str(tmp_path))
        try:
            store.ingest("t", SampleBatch(5.0, ("a", "b"), np.ones(2)))
            records = store.journal.records
            with pytest.raises(StoreError):
                store.ingest("t", SampleBatch(4.0, ("a", "b"), np.ones(2)))
            assert store.journal.records == records
        finally:
            store.close()

    def test_empty_batch_stages_nothing(self):
        store = TimeSeriesStore(retention=10.0)
        store.ingest("t", SampleBatch(3.0, (), np.empty(0)))
        assert store.flush() == 0
        assert store.latest_time == 3.0 and store.names() == []

    def test_health_metrics_expose_staging(self, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1000)
        store = TimeSeriesStore(retention=10.0)
        store.ingest("t", SampleBatch.from_mapping(0.0, {"a": 1.0}))
        metrics = store.metrics.snapshot()
        assert metrics["telemetry.store.samples"] == 1.0
        assert metrics["telemetry.store.staged"] == 1.0
        assert "telemetry.store.retention_trims" in metrics


class TestRetentionWatermark:
    def test_reads_enforce_exact_cutoff(self, monkeypatch):
        monkeypatch.setattr(store_module, "RETENTION_SLACK", 0.9)
        store = TimeSeriesStore(retention=10.0)
        for t in range(100):
            store.ingest("t", SampleBatch.from_mapping(float(t), {"a": 0.0}))
        times, _ = store.query("a")
        assert times[0] >= 89.0  # exact on read, whatever the slack

    def test_ingest_path_defers_until_watermark(self, monkeypatch):
        monkeypatch.setattr(store_module, "RETENTION_SLACK", 0.9)
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1)
        store = TimeSeriesStore(retention=10.0)
        for t in range(30):
            store.ingest("t", SampleBatch.from_mapping(float(t), {"a": 0.0}))
        # Stale fraction (~2/3) is under the 0.9 watermark: no trim yet.
        assert len(store._series["a"]) == 30
        # A read still never shows stale samples.
        times, _ = store.query("a")
        assert times[0] >= 19.0

    def test_zero_slack_trims_on_flush(self, monkeypatch):
        monkeypatch.setattr(store_module, "RETENTION_SLACK", 0.0)
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1)
        store = TimeSeriesStore(retention=10.0)
        for t in range(100):
            store.ingest("t", SampleBatch.from_mapping(float(t), {"a": 0.0}))
        assert len(store._series["a"]) <= 12
        assert store.retention_trims > 0
        assert store.samples_trimmed > 0

    def test_cold_series_swept_round_robin(self, monkeypatch):
        monkeypatch.setattr(store_module, "RETENTION_SLACK", 0.1)
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 1)
        store = TimeSeriesStore(retention=10.0)
        store.ingest("t", SampleBatch.from_mapping(0.0, {"cold": 1.0}))
        store.flush()
        # Only "hot" receives data; the sweep must still reclaim "cold".
        for t in range(1, 50):
            store.ingest("t", SampleBatch.from_mapping(float(t), {"hot": 0.0}))
        assert len(store._series["cold"]) == 0  # reclaimed without a read

    def test_invalid_slack_rejected(self):
        # Staging threshold and retention slack are store constants: the
        # constructor takes no value for either.
        with pytest.raises(TypeError):
            TimeSeriesStore(retention_slack=1.5)
        with pytest.raises(TypeError):
            TimeSeriesStore(flush_threshold=0)


class TestSelectCaching:
    def test_select_matches_fnmatch_reference(self):
        store = TimeSeriesStore()
        for name in ("a.power", "a.temp", "b.power"):
            store.append(name, 0.0, 1.0)
        assert store.select("*.power") == ["a.power", "b.power"]
        assert store.select("a.*") == ["a.power", "a.temp"]
        assert store.select("nope*") == []

    def test_names_cache_invalidated_on_new_series(self):
        store = TimeSeriesStore()
        store.append("a", 0.0, 1.0)
        assert store.select("*") == ["a"]
        store.ingest("t", SampleBatch.from_mapping(1.0, {"b": 2.0}))
        assert store.select("*") == ["a", "b"]


class TestResample:
    @pytest.fixture
    def store(self):
        store = TimeSeriesStore()
        # One sample per second for 100 s, value == time.
        store.append_many("m", np.arange(100.0), np.arange(100.0))
        return store

    def test_mean_buckets(self, store):
        times, values = store.resample("m", 0.0, 100.0, 10.0)
        assert times.tolist() == [float(t) for t in range(0, 100, 10)]
        assert values[0] == pytest.approx(4.5)  # mean of 0..9

    def test_max_and_min(self, store):
        _, max_values = store.resample("m", 0.0, 100.0, 10.0, agg="max")
        _, min_values = store.resample("m", 0.0, 100.0, 10.0, agg="min")
        assert max_values[0] == 9.0
        assert min_values[0] == 0.0

    def test_empty_bucket_is_nan(self):
        store = TimeSeriesStore()
        store.append("m", 0.0, 1.0)
        store.append("m", 25.0, 2.0)
        _, values = store.resample("m", 0.0, 30.0, 10.0)
        assert np.isnan(values[1])

    def test_rate_aggregation_for_counters(self):
        store = TimeSeriesStore()
        store.append_many("e", np.arange(10.0), np.arange(10.0) ** 2)
        _, rates = store.resample("e", 0.0, 10.0, 5.0, agg="rate")
        assert rates[0] == 16.0  # 4^2 - 0^2

    def test_rate_handles_counter_reset(self):
        """Regression: a counter reset mid-bucket gave a negative total."""
        store = TimeSeriesStore()
        # Counter climbs to 40, wraps to 0, climbs again to 20.
        store.append_many(
            "c", np.arange(7.0),
            np.array([0.0, 20.0, 40.0, 0.0, 5.0, 10.0, 20.0]),
        )
        _, rates = store.resample("c", 0.0, 7.0, 7.0, agg="rate")
        # Increase = 40 (pre-reset) + 20 (post-reset, from zero) = 60.
        assert rates[0] == 60.0

    def test_trailing_partial_bucket_emitted(self):
        """Regression: samples past the last full bucket were dropped."""
        store = TimeSeriesStore()
        store.append_many("m", np.arange(96.0), np.arange(96.0))
        times, values = store.resample("m", 0.0, 95.0, 10.0)
        assert times.size == 10  # 9 full buckets + 1 partial [90, 95]
        assert times[-1] == 90.0
        assert values[-1] == pytest.approx(np.mean([90, 91, 92, 93, 94, 95]))

    def test_sample_at_until_included_in_final_bucket(self):
        store = TimeSeriesStore()
        store.append_many("m", np.arange(11.0), np.arange(11.0))
        _, values = store.resample("m", 0.0, 10.0, 5.0, agg="max")
        # Final bucket is closed at `until`: the sample at t=10 counts.
        assert values[-1] == 10.0

    def test_resample_empty_range(self, store):
        times, values = store.resample("m", 50.0, 50.0, 10.0)
        assert times.size == 0 and values.size == 0

    def test_resample_range_shorter_than_step(self):
        store = TimeSeriesStore()
        store.append_many("m", np.arange(5.0), np.ones(5))
        times, values = store.resample("m", 0.0, 4.0, 10.0)
        assert times.tolist() == [0.0]
        assert values[0] == 1.0

    def test_unknown_aggregation(self, store):
        with pytest.raises(StoreError):
            store.resample("m", 0.0, 100.0, 10.0, agg="bogus")

    def test_invalid_step(self, store):
        with pytest.raises(StoreError):
            store.resample("m", 0.0, 100.0, 0.0)


class TestAlign:
    def test_align_shapes(self):
        store = TimeSeriesStore()
        store.append_many("a", np.arange(100.0), np.ones(100))
        store.append_many("b", np.arange(100.0), np.full(100, 2.0))
        grid, matrix = store.align(["a", "b"], 0.0, 100.0, 10.0)
        assert matrix.shape == (10, 2)
        assert (matrix[:, 0] == 1.0).all()
        assert (matrix[:, 1] == 2.0).all()

    def test_align_ffill_fills_gaps(self):
        store = TimeSeriesStore()
        store.append("a", 0.0, 5.0)
        store.append("a", 95.0, 9.0)
        _, matrix = store.align(["a"], 0.0, 100.0, 10.0, fill="ffill")
        # Bucket 0 has the sample; buckets 1..8 carry it forward.
        assert matrix[4, 0] == 5.0
        assert matrix[9, 0] == 9.0

    def test_align_nan_mode_keeps_gaps(self):
        store = TimeSeriesStore()
        store.append("a", 0.0, 5.0)
        store.append("a", 95.0, 9.0)
        _, matrix = store.align(["a"], 0.0, 100.0, 10.0, fill="nan")
        assert np.isnan(matrix[4, 0])

    def test_align_leading_nans_preserved(self):
        store = TimeSeriesStore()
        store.append("a", 55.0, 1.0)
        _, matrix = store.align(["a"], 0.0, 100.0, 10.0, fill="ffill")
        assert np.isnan(matrix[0, 0])
        assert matrix[6, 0] == 1.0

    def test_invalid_fill_mode(self):
        store = TimeSeriesStore()
        store.append("a", 0.0, 1.0)
        with pytest.raises(StoreError):
            store.align(["a"], 0.0, 10.0, 1.0, fill="interp")


class TestPropertyBased:
    @given(
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1, max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_append_preserves_all_samples(self, values):
        buf = SeriesBuffer("m")
        for i, v in enumerate(values):
            buf.append(float(i), v)
        assert len(buf) == len(values)
        assert buf.values.tolist() == pytest.approx(values)

    @given(
        n=st.integers(min_value=1, max_value=100),
        lo=st.floats(min_value=0, max_value=100),
        hi=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_query_matches_linear_scan(self, n, lo, hi):
        buf = SeriesBuffer("m")
        for i in range(n):
            buf.append(float(i), float(i))
        times, _ = buf.range(lo, hi)
        expected = [float(i) for i in range(n) if lo <= i <= hi]
        assert times.tolist() == expected

    @given(
        n=st.integers(min_value=1, max_value=100),
        step=st.floats(min_value=0.5, max_value=20.0),
        until=st.floats(min_value=0.5, max_value=120.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_resample_buckets_partition_the_range(self, n, step, until):
        """Every sample in [since, until] lands in exactly one bucket."""
        store = TimeSeriesStore()
        store.append_many("m", np.arange(float(n)), np.ones(n))
        _, counts = store.resample("m", 0.0, until, step, agg="count")
        in_range = sum(1 for i in range(n) if 0.0 <= i <= until)
        assert int(np.nansum(counts)) == in_range

    @given(
        chunks=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=8)),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_retention_invariant_under_interleaved_appends(self, chunks):
        """Retention holds however append and append_many interleave."""
        store = TimeSeriesStore(retention=15.0)
        t = 0.0
        for use_bulk, size in chunks:
            if use_bulk:
                times = t + np.arange(size, dtype=np.float64)
                store.append_many("m", times, np.zeros(size))
                t += size
            else:
                store.append("m", t, 0.0)
                t += 1.0
        times = store.series("m").times
        assert times.size > 0
        assert times[0] >= store.latest_time - 15.0
