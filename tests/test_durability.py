"""Durability layer: WAL framing, crash recovery, checksummed archives,
anti-entropy repair, and the loss-accounting audit across repair paths."""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JournalError, PersistenceError, StoreError
from repro.telemetry import (
    SERVABLE_AGGREGATIONS,
    ReplicaSet,
    SampleBatch,
    ShardedStore,
    TimeSeriesStore,
    WriteAheadJournal,
    corrupt_artifact,
    load_store,
    save_store,
    scan_journal,
    tear_wal_tail,
)
from repro.telemetry import durability
from repro.telemetry import store as store_module
from repro.telemetry.durability import (
    RecoveryStats,
    iter_records,
    read_watermark,
)


def _bits_equal(a, b) -> bool:
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


def _drain(directory, **kwargs):
    stats = RecoveryStats()
    records = list(iter_records(directory, stats=stats, **kwargs))
    return records, stats


def _small_segments(monkeypatch, segment_bytes, group_bytes):
    """Rotate journal segments and group-commit at test-sized byte counts."""
    monkeypatch.setattr(durability, "SEGMENT_MAX_BYTES", segment_bytes)
    monkeypatch.setattr(durability, "GROUP_BYTES", group_bytes)


# ---------------------------------------------------------------------------
# WAL segment format
# ---------------------------------------------------------------------------
class TestJournalFormat:
    def test_all_record_types_round_trip(self, tmp_path):
        wal = WriteAheadJournal(str(tmp_path / "wal"))
        names = ("a.x", "a.y", "b.z")
        values = np.array([1.5, -2.0, np.pi])
        times = np.array([10.0, 20.0, 30.0])
        rows = np.arange(6, dtype=np.float64).reshape(2, 3)
        s1 = wal.append_names(0, names)
        s2 = wal.append_batch(0, 5.0, values)
        s3 = wal.append_many("b.z", times, values)
        s4 = wal.append_block(0, times[:2], rows)
        s5 = wal.append_mark(42)
        assert [s1, s2, s3, s4, s5] == [1, 2, 3, 4, 5]
        wal.flush()
        wal.close()

        records, stats = _drain(str(tmp_path / "wal"))
        kinds = [r[0] for r in records]
        assert kinds == ["names", "batch", "many", "block", "mark"]
        assert records[0][2:] == (0, names)
        _, seq, nid, t, vals = records[1]
        assert (seq, nid, t) == (2, 0, 5.0) and _bits_equal(vals, values)
        _, _, name, mt, mv = records[2]
        assert name == "b.z"
        assert _bits_equal(mt, times) and _bits_equal(mv, values)
        _, _, bid, bt, brows = records[3]
        assert bid == 0 and _bits_equal(bt, times[:2])
        assert _bits_equal(brows, rows)
        assert records[4][2] == 42
        assert stats.replayed_records == 5 and stats.corrupt_records == 0

    def test_counters_and_rotation(self, tmp_path, monkeypatch):
        _small_segments(monkeypatch, 512, 128)
        wal_dir = str(tmp_path / "wal")
        wal = WriteAheadJournal(wal_dir)
        for i in range(50):
            wal.append_many("s", np.array([float(i)]), np.array([float(i)]))
        wal.flush()
        assert wal.records == 50
        assert wal.bytes_written > 0
        assert wal.rotations > 1  # opening counts as the first rotation
        segs = [f for f in os.listdir(wal_dir) if f.endswith(".seg")]
        assert len(segs) == wal.rotations
        wal.close()
        records, stats = _drain(wal_dir)
        assert len(records) == 50
        assert stats.segments == len(segs)

    def test_interval_sync_covers_trickle_ingest(self, tmp_path, monkeypatch):
        # A writer that never fills the group buffer must still get its
        # bounded-loss-window fsync once the interval elapses.
        monkeypatch.setattr(durability, "SYNC_INTERVAL_S", 0.0)
        wal = WriteAheadJournal(tmp_path / "wal")
        seq = wal.append_mark(1)  # tiny record, far below GROUP_BYTES
        assert wal.syncs >= 1
        assert wal.synced_seq == seq
        wal.close()

    def test_mark_durable_reinterns_names(self, tmp_path, monkeypatch):
        # Pruning deletes the segment holding the original NAMES record;
        # the live table passed to mark_durable is re-appended above the
        # watermark so later batches stay resolvable.
        _small_segments(monkeypatch, 256, 64)
        wal_dir = str(tmp_path / "wal")
        wal = WriteAheadJournal(wal_dir)
        names = ("a.x", "a.y")
        wal.append_names(0, names)
        for i in range(30):
            wal.append_batch(0, float(i), np.array([1.0, 2.0]))
        seq = wal.flush()
        wal.mark_durable(seq, names={0: names})
        wal.append_batch(0, 99.0, np.array([3.0, 4.0]))
        wal.sync()
        wal.close()
        records, _stats = _drain(wal_dir)  # default min_seq = the watermark
        kinds = [r[0] for r in records]
        assert "names" in kinds
        assert kinds.index("names") < kinds.index("batch")
        batch = records[kinds.index("batch")]
        assert batch[2] == 0 and batch[3] == 99.0

    def test_mark_durable_prunes_covered_segments(self, tmp_path, monkeypatch):
        _small_segments(monkeypatch, 512, 128)
        wal_dir = str(tmp_path / "wal")
        wal = WriteAheadJournal(wal_dir)
        for i in range(60):
            wal.append_many("s", np.array([float(i)]), np.array([1.0]))
        seq = wal.flush()
        before = len([f for f in os.listdir(wal_dir) if f.endswith(".seg")])
        wal.mark_durable(seq)
        after = len([f for f in os.listdir(wal_dir) if f.endswith(".seg")])
        assert after < before  # fully-covered segments truncated away
        assert read_watermark(wal_dir) == seq
        records, stats = _drain(wal_dir)  # default min_seq = the watermark
        assert records == []
        wal.close()

    def test_reopen_continues_sequence_in_fresh_segment(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        wal = WriteAheadJournal(wal_dir)
        wal.append_mark(7)
        wal.flush()
        wal.close()
        reopened = WriteAheadJournal(wal_dir)
        seq = reopened.append_mark(8)
        reopened.flush()
        reopened.close()
        assert seq == 2  # continues, never reuses, the crashed sequence
        records, stats = _drain(wal_dir)
        assert [r[1] for r in records] == [1, 2]
        assert stats.segments == 2  # rotate-on-open: never append in place

    def test_reopen_after_header_only_tail_segment(self, tmp_path):
        # A journal opened then closed (or crashed) before any append
        # leaves a header-only tail; the next incarnation resumes at the
        # same start seq and must replace it, not append a second header.
        wal_dir = str(tmp_path / "wal")
        WriteAheadJournal(wal_dir).close()
        wal = WriteAheadJournal(wal_dir)
        for i in range(50):
            wal.append_many("s", np.array([float(i)]), np.array([1.0]))
        wal.sync()
        del wal  # crash: no close()
        records, stats = _drain(wal_dir)
        assert len(records) == 50
        assert stats.torn_tail_drops == 0 and stats.corrupt_records == 0

    def test_reopen_after_fully_torn_tail_segment(self, tmp_path):
        # Same collision via the other route: every record of the tail
        # segment destroyed, so resume numbering lands on its start seq.
        from repro.telemetry.durability import _HEADER

        wal_dir = str(tmp_path / "wal")
        wal = WriteAheadJournal(wal_dir)
        for i in range(5):
            wal.append_many("s", np.array([float(i)]), np.array([1.0]))
        wal.flush()
        wal.close()
        (seg,) = [f for f in os.listdir(wal_dir) if f.endswith(".seg")]
        with open(os.path.join(wal_dir, seg), "r+b") as fh:
            fh.truncate(_HEADER.size + 3)  # header survives, no records do
        reopened = WriteAheadJournal(wal_dir)
        for i in range(50):
            reopened.append_many(
                "s", np.array([float(i)]), np.array([2.0])
            )
        reopened.sync()
        del reopened  # crash: no close()
        records, stats = _drain(wal_dir)
        assert len(records) == 50
        assert stats.torn_tail_drops == 0 and stats.corrupt_records == 0


# ---------------------------------------------------------------------------
# Torn tails and mid-journal damage
# ---------------------------------------------------------------------------
class TestJournalDamage:
    def _journal_with(self, directory, count):
        wal = WriteAheadJournal(directory)
        for i in range(count):
            wal.append_many(
                "s", np.array([float(i)]), np.array([float(i) * 2])
            )
        wal.flush()
        wal.close()

    def test_torn_tail_drops_only_the_tail(self, tmp_path):
        directory = str(tmp_path / "wal")
        self._journal_with(directory, 20)
        event = tear_wal_tail(directory, nbytes=5)
        assert event.kind == "torn_wal"
        records, stats = _drain(directory)
        assert stats.torn_tail_drops == 1
        assert len(records) == 19  # only the mid-write record is gone
        assert [r[1] for r in records] == list(range(1, 20))

    def test_scan_journal_summary(self, tmp_path):
        directory = str(tmp_path / "wal")
        self._journal_with(directory, 10)
        stats = scan_journal(directory)
        assert stats.records == 10
        assert stats.replayed_samples == 10

    def test_mid_segment_corruption_drops_rest_of_segment(self, tmp_path, monkeypatch):
        _small_segments(monkeypatch, 512, 128)
        wal_dir = str(tmp_path / "wal")
        wal = WriteAheadJournal(wal_dir)
        for i in range(40):
            wal.append_many("s", np.array([float(i)]), np.array([1.0]))
        wal.flush()
        wal.close()
        segs = sorted(
            f for f in os.listdir(wal_dir) if f.endswith(".seg")
        )
        assert len(segs) >= 3
        first = os.path.join(wal_dir, segs[0])
        with open(first, "r+b") as fh:
            fh.seek(os.path.getsize(first) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        records, stats = _drain(wal_dir)
        assert stats.corrupt_records >= 1
        assert stats.dropped_bytes > 0
        # Later segments still replay: the scan resumes past the damage.
        assert any(r[1] > 10 for r in records)

    def test_tear_empty_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            tear_wal_tail(str(tmp_path / "nope"))


# ---------------------------------------------------------------------------
# Store-level crash recovery
# ---------------------------------------------------------------------------
class TestStoreRecovery:
    def test_recovery_replays_exact_bits(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = TimeSeriesStore(journal=wal_dir)
        rng = np.random.default_rng(5)
        names = tuple(f"m.s{i}" for i in range(6))
        for t in range(40):
            store.ingest("t", SampleBatch(float(t), names, rng.normal(size=6)))
        extra_t = np.arange(100.0, 150.0)
        store.append_many("m.extra", extra_t, rng.normal(size=50))
        store.flush()
        store.flush_journal()
        reference = {n: store.query(n) for n in store.names()}
        del store  # crash: no close(), the journal is the only copy

        recovered = TimeSeriesStore(journal=wal_dir)
        assert recovered.recovery.replayed_samples == 40 * 6 + 50
        assert sorted(recovered.names()) == sorted(reference)
        for name, (t, v) in reference.items():
            rt, rv = recovered.query(name)
            assert _bits_equal(rt, t) and _bits_equal(rv, v)
        recovered.close()

    def test_recovery_tolerates_torn_tail(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = TimeSeriesStore(journal=wal_dir)
        t = np.arange(0.0, 100.0)
        store.append_many("a", t, t * 2.0)
        store.sync_journal()  # acked: must survive anything short of disk loss
        store.append_many("b", t, t)
        store.flush_journal()
        del store
        tear_wal_tail(wal_dir, nbytes=8)  # tear lands in the unsynced tail

        recovered = TimeSeriesStore(journal=wal_dir)
        assert recovered.recovery.torn_tail_drops == 1
        rt, rv = recovered.query("a")
        assert _bits_equal(rt, t) and _bits_equal(rv, t * 2.0)
        assert "b" not in recovered.names()  # unacked write, honestly gone
        recovered.close()

    def test_journal_mark_durable_after_save(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = TimeSeriesStore(journal=wal_dir)
        t = np.arange(0.0, 50.0)
        store.append_many("a", t, t)
        store.flush()
        save_store(store, str(tmp_path / "archive.npz"))
        store.journal_mark_durable()
        # One append_many call is one journal record; the watermark covers it.
        assert read_watermark(wal_dir) >= 1
        store.close()
        # A reopen replays nothing: the archive owns the data now.
        fresh = TimeSeriesStore(journal=wal_dir)
        assert fresh.recovery.replayed_samples == 0
        assert fresh.recovery.skipped_records >= 0
        fresh.close()

    def test_acked_batches_after_save_watermark_recover(self, tmp_path):
        # Batches journaled after a save reference NAMES interned before
        # the save's durable watermark; they must resolve on recovery, not
        # drop silently as replay conflicts.
        wal_dir = str(tmp_path / "wal")
        store = TimeSeriesStore(journal=wal_dir)
        names = ("d.a", "d.b")
        rng = np.random.default_rng(7)
        for t in range(10):
            store.ingest("t", SampleBatch(float(t), names, rng.normal(size=2)))
        store.flush()
        save_store(store, str(tmp_path / "archive.npz"))  # moves watermark
        for t in range(10, 20):
            store.ingest("t", SampleBatch(float(t), names, rng.normal(size=2)))
        store.flush()
        reference = {n: store.query(n) for n in names}
        store.sync_journal()
        del store  # crash: no close()

        recovered = TimeSeriesStore(journal=wal_dir)
        assert recovered.recovery.replay_conflicts == 0
        assert recovered.recovery.replayed_samples == 10 * 2
        for name in names:
            rt, rv = recovered.query(name)
            t, v = reference[name]
            assert _bits_equal(rt, t[10:]) and _bits_equal(rv, v[10:])
        recovered.close()

    def test_names_survive_segment_pruning(self, tmp_path, monkeypatch):
        # Small segments so the save's mark_durable actually deletes the
        # segment holding the original NAMES interning record.
        _small_segments(monkeypatch, 512, 64)
        wal_dir = str(tmp_path / "wal")
        store = TimeSeriesStore(journal=wal_dir)
        names = ("p.a", "p.b", "p.c")
        rng = np.random.default_rng(11)
        for t in range(60):
            store.ingest("t", SampleBatch(float(t), names, rng.normal(size=3)))
        store.flush()
        before = len([f for f in os.listdir(wal_dir) if f.endswith(".seg")])
        save_store(store, str(tmp_path / "archive.npz"))
        after = len([f for f in os.listdir(wal_dir) if f.endswith(".seg")])
        assert after < before  # the early segments really were pruned
        for t in range(60, 80):
            store.ingest("t", SampleBatch(float(t), names, rng.normal(size=3)))
        store.flush()
        reference = {n: store.query(n) for n in names}
        store.sync_journal()
        del store  # crash: no close()

        recovered = TimeSeriesStore(journal=wal_dir)
        assert recovered.recovery.replay_conflicts == 0
        for name in names:
            rt, rv = recovered.query(name)
            t, v = reference[name]
            assert _bits_equal(rt, t[60:]) and _bits_equal(rv, v[60:])
        recovered.close()


# ---------------------------------------------------------------------------
# Checksummed persistence (v4)
# ---------------------------------------------------------------------------
class TestChecksummedPersistence:
    def _store(self):
        store = TimeSeriesStore()
        rng = np.random.default_rng(9)
        t = np.arange(0.0, 500.0)
        for i in range(8):
            store.append_many(f"rack.s{i}", t, rng.normal(100.0, 3.0, t.size))
        store.flush()
        return store

    def test_bitflip_degrades_and_counts(self, tmp_path):
        store = self._store()
        path = str(tmp_path / "a.npz")
        save_store(store, path)
        corrupt_artifact(path, mode="bitflip", rng=np.random.default_rng(1))
        loaded = load_store(path)
        assert loaded.corrupt_artifacts >= 1
        snap = loaded.metrics.snapshot()
        assert snap["telemetry.durability.corrupt_artifacts"] >= 1.0
        # Every series that did load is bit-identical to the original.
        for name in loaded.names():
            t, v = loaded.query(name)
            ot, ov = store.query(name)
            assert _bits_equal(t, ot) and _bits_equal(v, ov)

    def test_truncation_is_a_typed_refusal(self, tmp_path):
        store = self._store()
        path = str(tmp_path / "a.npz")
        save_store(store, path)
        corrupt_artifact(path, mode="truncate",
                         rng=np.random.default_rng(2))
        with pytest.raises((PersistenceError, Exception)) as err:
            loaded = load_store(path)
            # Severe truncation may still parse: then it must degrade,
            # never serve silently-wrong series.
            assert loaded.corrupt_artifacts >= 1
            raise PersistenceError("degraded as required", path=path)
        if isinstance(err.value, PersistenceError):
            assert err.value.path == path

    def test_sharded_member_damage_degrades_per_member(self, tmp_path):
        sharded = ShardedStore(shards=3)
        rng = np.random.default_rng(3)
        names = tuple(f"n.s{i}" for i in range(12))
        for t in range(50):
            sharded.ingest(
                "t", SampleBatch(float(t), names, rng.normal(size=12))
            )
        sharded.flush()
        path = str(tmp_path / "a.npz")
        save_store(sharded, path)
        victim = str(tmp_path / "a.shard1.npz")
        corrupt_artifact(victim, mode="truncate",
                         rng=np.random.default_rng(4))
        loaded = load_store(path)
        assert loaded.corrupt_artifacts >= 1
        # Healthy shards' series are intact and exact.
        healthy = [n for n in names if sharded.shard_of(n) != 1]
        assert healthy
        for name in healthy:
            t, v = loaded.query(name)
            ot, ov = sharded.query(name)
            assert _bits_equal(t, ot) and _bits_equal(v, ov)

    @staticmethod
    def _local_spans(data: bytes):
        """(local header, member payload) byte spans, read straight from the
        zip local headers ("PK\\x03\\x04" records)."""
        with zipfile.ZipFile(io.BytesIO(data)) as z:
            infos = z.infolist()
        headers, payloads = [], []
        for info in infos:
            at = info.header_offset
            assert data[at:at + 4] == b"PK\x03\x04"
            name_len, extra_len = struct.unpack_from("<HH", data, at + 26)
            start = at + 30 + name_len + extra_len
            headers.append((at, start))
            payloads.append((start, start + info.compress_size))
        return headers, payloads

    def _two_shard_archive(self, tmp_path):
        store = ShardedStore(shards=2)
        rng = np.random.default_rng(5)
        names = tuple(f"c.s{i}" for i in range(6))
        for t in range(40):
            store.ingest("t", SampleBatch(float(t), names,
                                          rng.normal(100.0, 15.0, 6)))
        store.flush()
        path = str(tmp_path / "a.npz")
        save_store(store, path)
        return store, path, str(tmp_path / "a.shard0.npz")

    def test_composed_store_never_serves_a_damaged_byte(self, tmp_path):
        """Any one damaged byte of a shard archive — every local-header
        byte plus 512 seeded offsets — is refused, counted, or harmless."""
        store, path, victim = self._two_shard_archive(tmp_path)
        original = open(victim, "rb").read()
        headers, _ = self._local_spans(original)
        offsets = {o for a, b in headers for o in range(a, b)}
        offsets.update(
            np.random.default_rng(0).integers(0, len(original), 512).tolist()
        )
        reference = {n: store.query(n) for n in store.names()}
        outcomes = {"refused": 0, "degraded": 0, "identical": 0}
        for offset in sorted(offsets):
            damaged = bytearray(original)
            damaged[offset] ^= 0xFF
            with open(victim, "wb") as fh:
                fh.write(damaged)
            try:
                loaded = load_store(path)
            except PersistenceError:
                outcomes["refused"] += 1
                continue
            if loaded.corrupt_artifacts >= 1:
                outcomes["degraded"] += 1
                continue
            assert sorted(loaded.names()) == sorted(reference), offset
            for name, (t, v) in reference.items():
                lt, lv = loaded.query(name)
                assert _bits_equal(lt, t) and _bits_equal(lv, v), offset
            outcomes["identical"] += 1
        assert outcomes["degraded"] > 0 and outcomes["identical"] > 0

    def test_bitflip_lands_in_a_member_payload(self, tmp_path):
        _, _, victim = self._two_shard_archive(tmp_path)
        original = open(victim, "rb").read()
        _, payloads = self._local_spans(original)
        for seed in range(100):
            event = corrupt_artifact(victim, mode="bitflip",
                                     rng=np.random.default_rng(seed))
            offset = event.detail["offset"]
            assert any(a <= offset < b for a, b in payloads), (seed, offset)
            with open(victim, "wb") as fh:
                fh.write(original)

    def test_save_is_atomic_over_existing_archive(self, tmp_path):
        from repro.ioutil import commit_hook

        store = self._store()
        path = str(tmp_path / "a.npz")
        save_store(store, path)
        before = os.path.getsize(path)

        def bomb(dest):
            raise RuntimeError("power cut")

        other = TimeSeriesStore()
        other.append_many("x", np.arange(3.0), np.ones(3))
        with commit_hook(bomb):
            with pytest.raises(RuntimeError):
                save_store(other, path)
        assert os.path.getsize(path) == before  # old archive untouched
        assert sorted(load_store(path).names()) == sorted(store.names())
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


# ---------------------------------------------------------------------------
# Anti-entropy repair and the loss-accounting audit
# ---------------------------------------------------------------------------
class TestAntiEntropy:
    W = 100.0

    def _diverged_set(self):
        """Primary+replica where the replica missed two full windows."""
        rs = ReplicaSet(0, replication=1)
        rng = np.random.default_rng(21)
        names = ("p.a", "p.b")
        t = 0.0
        # Both members share the first three windows.
        for _ in range(30):
            rs.ingest("t", SampleBatch(t, names, rng.normal(size=2)))
            t += 10.0
        rs.flush()
        rs.mark_down(1)
        missed = 0
        while t < 500.0:  # replica misses windows [300, 400) and [400, 500)
            rs.ingest("t", SampleBatch(t, names, rng.normal(size=2)))
            missed += len(names)
            t += 10.0
        rs.flush()
        rs.revive(1, resync=False)
        # One write past the divergent span closes those windows.
        rs.ingest("t", SampleBatch(t, names, rng.normal(size=2)))
        rs.flush()
        return rs, missed

    def test_repairs_only_differing_windows(self):
        rs, _ = self._diverged_set()
        summary = rs.anti_entropy(window_s=self.W, now=500.0)
        assert summary["diverged_windows"] == 4  # 2 windows x 2 series
        assert summary["repaired_windows"] == 4
        assert summary["repaired_samples"] > 0
        # Replica now bit-matches the primary over the repaired span.
        for name in ("p.a", "p.b"):
            pt, pv = rs.members[0].query(name, until=500.0)
            st, sv = rs.members[1].query(name, until=500.0)
            assert _bits_equal(pt, st) and _bits_equal(pv, sv)
        again = rs.anti_entropy(window_s=self.W, now=500.0)
        assert again["diverged_windows"] == 0

    def test_repair_heals_loss_accounting(self):
        # Satellite audit: a repaired window must not still be counted as
        # lost — missed_writes shrinks by exactly the samples restored.
        rs, missed = self._diverged_set()
        assert rs.missed_writes[1] == missed
        rs.anti_entropy(window_s=self.W, now=500.0)
        # Everything inside closed windows was healed; only the samples
        # landed past the last closed boundary can still be outstanding.
        assert rs.missed_writes[1] < missed
        assert rs.missed_writes[1] == 0
        assert rs.repaired_samples[1] >= missed

    def test_resync_revive_resets_both_loss_counters(self):
        rs = ReplicaSet(0, replication=1)
        rng = np.random.default_rng(22)
        rs.degrade(1.0, np.random.default_rng(1), member=1)
        for t in range(20):
            rs.ingest("t", SampleBatch(float(t), ("a",), rng.normal(size=1)))
        rs.degrade(0.0, np.random.default_rng(1), member=1)
        rs.mark_down(1)
        for t in range(20, 30):
            rs.ingest("t", SampleBatch(float(t), ("a",), rng.normal(size=1)))
        assert rs.dropped_writes[1] > 0 and rs.missed_writes[1] > 0
        rs.revive(1, resync=True)
        # Audit: a full resync healed everything — neither counter may
        # keep charging the member for samples it now holds.
        assert rs.dropped_writes[1] == 0
        assert rs.missed_writes[1] == 0
        pt, pv = rs.members[0].query("a")
        st, sv = rs.members[1].query("a")
        assert _bits_equal(pt, st) and _bits_equal(pv, sv)

    def test_counters_exported_in_metrics(self):
        rs, _ = self._diverged_set()
        rs.anti_entropy(window_s=self.W, now=500.0)
        snap = rs.metrics.snapshot()
        assert snap["telemetry.shard.0.repaired_windows"] >= 1.0
        assert snap["telemetry.shard.0.diverged_windows"] >= 1.0


class TestAntiEntropyOnRollups:
    @staticmethod
    def _serves_raw_bits_after_repair(rs, raw, names, until):
        """The sweep left no loss, and every tier-served resample on both
        members equals a raw store's bits."""
        snap = rs.metrics.snapshot()
        for key in ("missed_writes", "dropped_writes", "lost_samples"):
            assert snap[f"telemetry.shard.0.{key}"] == 0.0
        served = [m.rollups.buckets_served for m in rs.members]
        for member in rs.members:
            for name in names:
                for step in (300.0, 900.0, 3600.0):
                    for agg in sorted(SERVABLE_AGGREGATIONS):
                        got = member.resample(name, 0.0, until, step, agg)
                        want = raw.resample(name, 0.0, until, step, agg)
                        assert _bits_equal(got[0], want[0])
                        assert _bits_equal(got[1], want[1]), (name, step, agg)
        assert all(
            m.rollups.buckets_served > before for m, before in zip(rs.members, served)
        )

    def test_repaired_member_serves_raw_bits_from_its_tiers(self):
        """A sweep repairs a member that shed half its writes; afterwards
        tier-served resamples on both members equal a raw store's bits,
        and the repaired member's loss gauges read 0."""
        store = ShardedStore(shards=1, replication=1, rollups=True)
        raw = TimeSeriesStore()
        rs = store.replica_sets[0]
        names = tuple(f"r.s{i}" for i in range(4))
        rng = np.random.default_rng(33)
        rs.degrade(0.5, np.random.default_rng(5), member=1)
        for k in range(720):  # 10 s cadence; sheds through the first hour
            if k == 360:
                rs.degrade(0.0, np.random.default_rng(5), member=1)
            batch = SampleBatch(10.0 * k, names, np.round(rng.normal(50, 5, 4), 2))
            store.ingest("t", batch)
            raw.ingest("t", batch)
        assert rs.dropped_writes[1] > 0
        summary = store.anti_entropy(window_s=600.0)
        assert summary["repaired_windows"] > 0
        self._serves_raw_bits_after_repair(rs, raw, names, 7200.0)

    def test_repair_rereads_demoted_samples_of_a_finalised_hour(self):
        """With an archive and a retention shorter than the 1 h tier, a
        sweep that repairs a window inside a finalised hour rebuilds that
        hour's bucket from a maintenance read reaching into the archive."""
        store = ShardedStore(
            shards=1, replication=1, rollups=True, archive=True, retention=1800.0
        )
        raw = TimeSeriesStore()
        rs = store.replica_sets[0]
        names = tuple(f"r.s{i}" for i in range(4))
        rng = np.random.default_rng(34)
        for k in range(1141):  # 10 s cadence, to t = 11 400 s
            if k in (1020, 1080):  # sheds only in [10 200, 10 800): the
                # sweep's floor is latest - retention + window = 10 200
                rs.degrade(0.5 if k == 1020 else 0.0,
                           np.random.default_rng(5), member=1)
            batch = SampleBatch(10.0 * k, names, np.round(rng.normal(50, 5, 4), 2))
            store.ingest("t", batch)
            raw.ingest("t", batch)
        assert rs.dropped_writes[1] > 0
        store.flush()
        repaired = rs.members[1]
        assert repaired.rollups.cursor_time(names[0], 3600.0) == 10800.0
        scans = repaired.archive.cold_scans
        summary = store.anti_entropy(window_s=600.0)
        assert summary["repaired_windows"] > 0
        assert repaired.rollups.buckets_repaired > 0
        # Hour 2 spans [7 200, 10 800); below 9 600 it is cold.
        assert repaired.archive.cold_scans > scans
        self._serves_raw_bits_after_repair(rs, raw, names, 11400.0)


class TestResyncedMemberSurvivesCrash:
    def test_revived_member_keeps_cold_history_across_a_crash(self, tmp_path):
        # A journaled member rebuilt by revive(resync=True) must journal
        # what it took from its peer, cold history included: after a
        # crash it has to serve the same samples as the peer, because
        # anti-entropy never looks below its retention floor.
        names = tuple(f"s{i}" for i in range(4))
        rng = np.random.default_rng(41)
        base = str(tmp_path / "wal")

        def open_store():
            return ShardedStore(shards=1, replication=1, retention=600.0,
                                archive=True, journal=base)

        def ingest(store, start, count):
            for k in range(start, start + count):
                store.ingest(
                    "t", SampleBatch(10.0 * k, names, rng.normal(size=4))
                )

        store = open_store()
        ingest(store, 0, 400)
        rs = store.replica_sets[0]
        rs.mark_down(1)
        ingest(store, 400, 100)
        store.flush()
        rs.revive(1, resync=True)
        revived = rs.members[1]
        assert revived.query("s0")[0].size == 500
        assert revived.archive.scan("s0")[0].size > 400  # mostly cold
        reference = {n: rs.members[0].query(n) for n in names}
        store.sync_journal()
        del store, rs, revived  # crash: no close()

        reopened = open_store()
        try:
            assert reopened.anti_entropy(window_s=600.0)["diverged_windows"] == 0
            for member in reopened.replica_sets[0].members:
                for name in names:
                    t, v = member.query(name)
                    rt, rv = reference[name]
                    assert _bits_equal(t, rt) and _bits_equal(v, rv)
            reopened.replica_sets[0].mark_down(0)
            assert reopened.query("s0")[0].size == 500
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Worker-process WAL recovery (the parallel runtime path)
# ---------------------------------------------------------------------------
class TestWorkerWalRecovery:
    def _ingest(self, store, names, rng, start, count):
        for t in range(start, start + count):
            store.ingest(
                "t", SampleBatch(float(t), names, rng.normal(size=len(names)))
            )

    def test_crash_restart_loses_no_acked_samples(self, tmp_path):
        names = tuple(f"w.s{i}" for i in range(8))
        rng = np.random.default_rng(31)
        store = ShardedStore(
            shards=2, replication=1, parallel=True,
            journal=str(tmp_path / "wal"),
        )
        try:
            self._ingest(store, names, rng, 0, 60)
            store.flush()
            store.sync_journal()
            acked = {n: store.query(n) for n in names}
            self._ingest(store, names, rng, 60, 20)  # unacked tail
            for shard in range(2):
                store.runtime.crash_worker(shard)
                store.runtime.restart_worker(shard)
            store.flush()
            for name in names:
                t, v = store.query(name)
                at, av = acked[name]
                assert at.size <= t.size
                assert _bits_equal(t[: at.size], at)
                assert _bits_equal(v[: at.size], av)
        finally:
            store.close()

    def test_torn_wal_tail_recovers_acked(self, tmp_path):
        names = tuple(f"w.s{i}" for i in range(8))
        rng = np.random.default_rng(32)
        base = str(tmp_path / "wal")
        store = ShardedStore(
            shards=2, replication=1, parallel=True, journal=base,
        )
        try:
            self._ingest(store, names, rng, 0, 60)
            store.flush()
            store.sync_journal()
            acked = {n: store.query(n) for n in names}
            self._ingest(store, names, rng, 60, 20)
            store.runtime.crash_worker(0)
            tear_wal_tail(os.path.join(base, "shard0", "wal"), nbytes=16)
            store.runtime.restart_worker(0)
            store.flush()
            for name in names:
                t, v = store.query(name)
                at, av = acked[name]
                assert _bits_equal(t[: at.size], at)
                assert _bits_equal(v[: at.size], av)
        finally:
            store.close()

    def test_replay_continues_past_a_mid_journal_gap(self, tmp_path, monkeypatch):
        # A byte flipped mid-journal drops the rest of its segment.  The
        # first restart replays up to the gap and takes the rest from the
        # ring; the next incarnation journals after the gap, so the replay
        # after a second crash must pick up at that incarnation's MARK.
        names = tuple(f"w.s{i}" for i in range(16))
        rng = np.random.default_rng(35)
        base = str(tmp_path / "wal")
        _small_segments(monkeypatch, 2048, 256)  # workers inherit by fork
        store = ShardedStore(shards=1, parallel=True, journal=base)
        try:
            self._ingest(store, names, rng, 0, 60)
            store.flush()
            store.sync_journal()
            store.runtime.crash_worker(0)
            wal = os.path.join(base, "shard0", "wal")
            segments = sorted(os.listdir(wal))
            assert len(segments) == 5
            victim = os.path.join(wal, segments[1])
            with open(victim, "r+b") as fh:
                fh.seek(os.path.getsize(victim) // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0xFF]))
            store.runtime.restart_worker(0)
            self._ingest(store, names, rng, 60, 40)
            store.flush()
            store.sync_journal()
            acked = {n: store.query(n) for n in names}
            assert all(t.size == 100 for t, _ in acked.values())
            store.runtime.crash_worker(0)
            store.runtime.restart_worker(0)
            for name in names:
                t, v = store.query(name)
                at, av = acked[name]
                assert _bits_equal(t, at) and _bits_equal(v, av)
        finally:
            store.close()

    def test_cold_reopen_keeps_ingesting(self, tmp_path):
        # A reopened store's fresh rings continue the journal's sequence:
        # the first batches after the reopen are applied, not passed over
        # as positions the journal already covers.
        names = tuple(f"w.s{i}" for i in range(4))
        rng = np.random.default_rng(36)
        base = str(tmp_path / "wal")
        store = ShardedStore(
            shards=2, replication=1, parallel=True, journal=base,
        )
        self._ingest(store, names, rng, 0, 10)
        store.close()
        reopened = ShardedStore(
            shards=2, replication=1, parallel=True, journal=base,
        )
        try:
            self._ingest(reopened, names, rng, 10, 5)
            reopened.flush()
            reopened.sync_journal()
            for name in names:
                assert reopened.query(name)[0].tolist() == list(range(15))
            for shard in range(2):
                reopened.runtime.crash_worker(shard)
                reopened.runtime.restart_worker(shard)
            for name in names:
                assert reopened.query(name)[0].tolist() == list(range(15))
        finally:
            reopened.close()

    def test_cold_reopen_replays_journals(self, tmp_path):
        names = tuple(f"w.s{i}" for i in range(4))
        rng = np.random.default_rng(33)
        base = str(tmp_path / "wal")
        store = ShardedStore(
            shards=2, replication=1, parallel=True, journal=base,
        )
        store.ingest("t", SampleBatch(1.0, names, rng.normal(size=4)))
        store.flush()
        reference = {n: store.query(n) for n in names}
        store.close()

        reopened = ShardedStore(
            shards=2, replication=1, parallel=True, journal=base,
        )
        try:
            reopened.flush()
            assert reopened.recovered_samples >= len(names)
            for name in names:
                t, v = reopened.query(name)
                rt, rv = reference[name]
                assert _bits_equal(t, rt) and _bits_equal(v, rv)
        finally:
            reopened.close()


class TestDurabilityDrill:
    ARCHIVE_PHASES = ("archive_bitflip", "archive_truncate")
    LIVE_PHASES = ("worker_kill", "torn_wal", "cold_reopen")

    def test_drill_loses_no_acked_samples(self):
        """Regression: the torn-tail phase cut fsynced records whenever the
        unacked tail had not reached the file, losing acked samples; and a
        bitflip in an unchecked zip header byte went undetected (seed 8)."""
        from repro.oda.chaos import durability_drill

        for seed in range(10):
            card = durability_drill(seed)
            phases = card["phases"]
            assert card["pass"], (seed, card)
            for phase in self.LIVE_PHASES:
                assert phases[phase]["lost_acked_samples"] == 0, (seed, phases)
            for phase in self.ARCHIVE_PHASES:
                assert phases[phase]["detected"] >= 1, (seed, phases)
                assert phases[phase]["silently_wrong_samples"] == 0

    def test_cli_prints_and_writes_the_card(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "card.json"
        assert main(["durability", "--seed", "8", "--out", str(out)]) == 0
        card = json.loads(out.read_text())
        assert set(card) == {"seed", "config", "phases", "totals", "pass"}
        assert set(card["phases"]) == set(self.LIVE_PHASES + self.ARCHIVE_PHASES)
        assert set(card["totals"]) == {
            "acked_samples", "lost_acked_samples", "silently_wrong_samples",
            "undetected_corruptions", "recovered_samples",
        }
        assert "durability drill PASSED" in capsys.readouterr().out

    def test_loader_bug_is_not_detection(self, monkeypatch):
        """Only a typed refusal counts as detecting the damage."""
        import repro.oda.chaos as chaos

        def broken(path):
            raise TypeError("loader bug")

        monkeypatch.setattr(chaos, "load_store", broken)
        with pytest.raises(TypeError, match="loader bug"):
            chaos.durability_drill(0, batches=8)


# ---------------------------------------------------------------------------
# Replay reproduces live ingest: accepts and refuses the same batches
# ---------------------------------------------------------------------------
_SHAPES = (("a",), ("a", "b"), ("b", "c"), ("c", "a", "c"), ("d",))


def _content(store) -> dict:
    return {
        name: tuple(a.tobytes() for a in store.query(name))
        for name in store.names()
    }


class TestReplayMatchesLiveIngest:
    def test_rejected_batch_does_not_cost_later_samples(self, tmp_path):
        store = TimeSeriesStore(journal=str(tmp_path))
        for t in (10.0, 20.0, 15.0, 30.0, 40.0):
            try:
                store.ingest("t", SampleBatch(t, ("a",), np.array([t])))
            except StoreError:
                assert t == 15.0
        store.sync_journal()
        store.close()
        reopened = TimeSeriesStore(journal=str(tmp_path))
        try:
            assert reopened.query("a")[0].tolist() == [10.0, 20.0, 30.0, 40.0]
            assert reopened.recovery.replay_conflicts == 0
        finally:
            reopened.close()

    def test_replay_stages_one_run_at_a_time(self, tmp_path, monkeypatch):
        """Each run of same-shape records is applied once, when a record of
        another shape ends it: disjoint shapes never pile up in staging."""
        store = TimeSeriesStore(journal=str(tmp_path))
        for t in range(12):
            names = (("a",), ("b",), ("c",))[t // 2 % 3]
            store.ingest("t", SampleBatch(float(t), names, np.array([t])))
        live = _content(store)
        store.close()

        staged_blocks = []
        stage = TimeSeriesStore._stage

        def spy(self, names, t, values):
            staged_blocks.append(len(self._blocks))
            return stage(self, names, t, values)

        monkeypatch.setattr(TimeSeriesStore, "_stage", spy)
        reopened = TimeSeriesStore(journal=str(tmp_path))
        try:
            assert _content(reopened) == live
            assert max(staged_blocks) == 1
            assert reopened.flushes == 6  # one per run of two records
        finally:
            reopened.close()

    def test_single_shape_replay_flushes_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 4)
        store = TimeSeriesStore(journal=str(tmp_path))
        for t in range(10):
            store.ingest("t", SampleBatch(float(t), ("a", "b"), np.ones(2)))
        store.close()
        reopened = TimeSeriesStore(journal=str(tmp_path))
        try:
            assert reopened.flushes == 1
            assert reopened.query("a")[0].size == 10
        finally:
            reopened.close()

    def _parallel_store(self, tmp_path):
        return ShardedStore(
            shards=1, parallel=True, journal=str(tmp_path / "wal"),
        )

    def _crash_and_restart(self, store):
        store.sync_journal()
        store.runtime.crash_worker(0)
        store.runtime.restart_worker(0)

    def test_worker_replays_past_out_of_order_slot(self, tmp_path):
        store = self._parallel_store(tmp_path)
        try:
            for t in (10.0, 5.0, 20.0):
                store.ingest("t", SampleBatch(t, ("a",), np.array([t])))
            assert store.query("a")[0].tolist() == [10.0, 20.0]
            assert store.runtime.shard_stats(0)["ingest_errors"] == 1
            self._crash_and_restart(store)
            assert store.query("a")[0].tolist() == [10.0, 20.0]
        finally:
            store.close()

    def test_worker_replays_same_time_rewrite(self, tmp_path):
        store = self._parallel_store(tmp_path)
        try:
            for t, values in ((10.0, [1.0, 2.0]), (10.0, [7.0, 8.0]),
                              (20.0, [5.0, 6.0])):
                store.ingest("t", SampleBatch(t, ("a", "b"), np.array(values)))
            live = _content(store)
            assert store.query("a")[1].tolist() == [7.0, 5.0]
            self._crash_and_restart(store)
            assert _content(store) == live
        finally:
            store.close()

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(0, len(_SHAPES) - 1),
                st.integers(-2, 3),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1, max_size=40,
        ),
        threshold=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_reopen_equals_live_content(self, writes, threshold):
        """Shapes overlap (one repeats a name), times repeat and go back."""
        with tempfile.TemporaryDirectory() as journal, \
                pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", threshold)
            live = TimeSeriesStore(journal=journal)
            t = 0.0
            for shape, step, value in writes:
                t += step
                names = _SHAPES[shape]
                values = value + np.arange(len(names), dtype=np.float64)
                try:
                    live.ingest("t", SampleBatch(t, names, values))
                except StoreError:
                    pass
            content, samples = _content(live), live.samples_ingested
            live.close()
            reopened = TimeSeriesStore(journal=journal)
            try:
                assert _content(reopened) == content
                assert reopened.samples_ingested == samples
                assert reopened.recovery.replay_conflicts == 0
            finally:
                reopened.close()


# ---------------------------------------------------------------------------
# Supervised anti-entropy sweeps
# ---------------------------------------------------------------------------
class TestSupervisedAntiEntropy:
    def test_watchdog_round_robins_replica_sets(self):
        from repro.oda import DataCenter

        dc = DataCenter(
            seed=17, racks=1, nodes_per_rack=4, shards=2, replication=1,
            telemetry_period=120.0,
        )
        supervisor = dc.enable_supervision()
        supervisor.watch_replicas(dc.store, window_s=600.0)
        assert len(supervisor.replica_watches) == 1
        supervisor.watch_replicas(dc.store)  # idempotent per store
        assert len(supervisor.replica_watches) == 1
        dc.generate_workload(days=0.05, jobs_per_day=24)
        dc.run(seconds=0.05 * 86400.0)
        sweeps = sum(rs.anti_entropy_sweeps for rs in dc.store.replica_sets)
        assert sweeps >= 2  # the watchdog swept more than one set
        snap = supervisor.metrics.snapshot()
        assert snap["oda.supervisor.replica_watches"] == 1.0
