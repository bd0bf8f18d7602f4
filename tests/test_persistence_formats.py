"""Persistence format: the tiered state (rollup/archive switches,
still-encoded cold chunks, materialized rollup tiers) round-trips, a v4
header that still records a tier as its old configuration dict loads with
the tier on, an archive with individually missing cold chunks degrades
instead of failing, and a header of any other version — the retired
v1/v2/v3 included — is refused with a typed error naming the file.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import PersistenceError
from repro.telemetry import (
    ShardedStore,
    TimeSeriesStore,
    load_store,
    save_store,
)
from repro.ioutil import crc32
from repro.telemetry.persistence import _META_CRC_KEY, _META_KEY, _encode_meta

DAY = 86400.0


def _bits_equal(a, b) -> bool:
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


def _tiered_store() -> TimeSeriesStore:
    store = TimeSeriesStore(rollups=True, archive=True, retention=7200.0)
    rng = np.random.default_rng(11)
    t = np.arange(0.0, 2 * DAY, 10.0)
    store.append_many("rack.power", t, rng.normal(220.0, 5.0, t.size))
    store.append_many("rack.temp", t[:300], rng.normal(30.0, 1.0, 300))
    return store


def _header(path: str) -> dict:
    with np.load(path) as z:
        return json.loads(bytes(z[_META_KEY]).decode("utf-8"))


def _rewrite(path: str, out: str, *, version: int = 4, **header):
    """Clone an archive with its header pinned to another version and the
    ``header`` fields replaced, under a valid header checksum."""
    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
    meta["version"] = version
    meta.update(header)
    data[_META_KEY] = _encode_meta(meta)
    data[_META_CRC_KEY] = np.array(
        [crc32(data[_META_KEY].tobytes())], dtype=np.uint64
    )
    np.savez_compressed(out, **data)
    return out


class TestFormatMatrix:
    def test_v3_round_trips_tiers(self, tmp_path):
        store = _tiered_store()
        path = str(tmp_path / "v3.npz")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.rollups is not None
        assert loaded.archive.chunk_count() == store.archive.chunk_count()
        for agg in ("mean", "min", "max", "sum", "count"):
            _, r1 = store.resample("rack.power", 0.0, 2 * DAY, 3600.0, agg)
            _, r2 = loaded.resample("rack.power", 0.0, 2 * DAY, 3600.0, agg)
            assert _bits_equal(r1, r2), agg
        t1, v1 = store.query("rack.power")
        t2, v2 = loaded.query("rack.power")
        assert _bits_equal(t1, t2) and _bits_equal(v1, v2)

    def test_v3_restores_tier_state_not_just_config(self, tmp_path):
        store = _tiered_store()
        path = str(tmp_path / "v3.npz")
        save_store(store, path)
        loaded = load_store(path)
        saved = store.rollups.tier_state("rack.power")
        restored = loaded.rollups.tier_state("rack.power")
        assert len(saved) == len(restored)
        for (s1, c1, a1), (s2, c2, a2) in zip(saved, restored):
            assert s1 == s2 and c1 == c2
            assert np.array_equal(a1["idx"], a2["idx"])
            assert _bits_equal(a1["sum"], a2["sum"])

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_retired_version_header_refused(self, tmp_path, version):
        current = str(tmp_path / "current.npz")
        save_store(_tiered_store(), current)
        older = _rewrite(
            current, str(tmp_path / f"v{version}.npz"), version=version
        )
        with pytest.raises(PersistenceError) as err:
            load_store(older)
        assert err.value.path == older
        assert f"version {version} " in str(err.value)
        assert "readable: 4" in str(err.value)

    def test_dict_tier_header_loads_with_the_tiers_on(self, tmp_path):
        """Before the tiers became switches, a v4 header recorded each as
        its configuration dict; such an archive loads with both tiers on,
        the same tier set and the same bits."""
        store = _tiered_store()
        current = str(tmp_path / "current.npz")
        save_store(store, current)
        meta = _header(current)
        assert (meta["rollups"], meta["archive"]) == (True, True)
        older = _rewrite(
            current, str(tmp_path / "dicts.npz"),
            rollups={"steps": [10.0, 60.0, 300.0, 3600.0]},
            archive={"chunk_samples": 8192, "compaction_trigger": 8},
        )
        assert _header(older)["archive"] == {
            "chunk_samples": 8192, "compaction_trigger": 8,
        }
        loaded = load_store(older)
        assert loaded.rollups is not None and loaded.archive is not None
        assert loaded.archive.chunk_count() == store.archive.chunk_count()
        for name in ("rack.power", "rack.temp"):
            assert ([s for s, _, _ in loaded.rollups.tier_state(name)]
                    == [s for s, _, _ in store.rollups.tier_state(name)])
            for agg in ("mean", "min", "max", "sum", "count"):
                _, r1 = store.resample(name, 0.0, 2 * DAY, 3600.0, agg)
                _, r2 = loaded.resample(name, 0.0, 2 * DAY, 3600.0, agg)
                assert _bits_equal(r1, r2), (name, agg)
            t1, v1 = store.query(name)
            t2, v2 = loaded.query(name)
            assert _bits_equal(t1, t2) and _bits_equal(v1, v2)

    def test_unknown_version_rejected(self, tmp_path):
        store = _tiered_store()
        v3 = str(tmp_path / "v3.npz")
        save_store(store, v3)
        bad = _rewrite(v3, str(tmp_path / "v99.npz"), version=99)
        with pytest.raises(PersistenceError) as err:
            load_store(bad)
        assert err.value.path == bad

    def test_missing_cold_chunk_degrades(self, tmp_path):
        store = _tiered_store()
        path = str(tmp_path / "v3.npz")
        save_store(store, path)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        victims = [k for k in data
                   if k.startswith("__cold__::rack.power::0::")]
        assert victims
        for k in victims:
            del data[k]
        damaged = str(tmp_path / "damaged.npz")
        np.savez_compressed(damaged, **data)
        loaded = load_store(damaged)  # must not raise
        assert loaded.archive.missing_chunks == 1
        assert loaded.archive.chunk_count() == store.archive.chunk_count() - 1
        # Remaining history still queries fine.
        t, v = loaded.query("rack.power")
        lost = store.archive.chunks("rack.power")[0].count
        t_all, _ = store.query("rack.power")
        assert t.size == t_all.size - lost
        snap = loaded.archive.metrics.snapshot()
        assert snap["telemetry.archive.missing_chunks"] == 1.0

    def test_sharded_manifest_round_trips_config(self, tmp_path):
        from repro.telemetry.sample import SampleBatch

        names = tuple(f"n{i}.p" for i in range(5))
        store = ShardedStore(shards=2, replication=1, rollups=True,
                             archive=True, retention=3600.0)
        rng = np.random.default_rng(3)
        for t in np.arange(0.0, 30000.0, 10.0):
            store.ingest("m", SampleBatch(float(t), names,
                                          rng.normal(100.0, 2.0, 5)))
        path = str(tmp_path / "sharded.npz")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.rollups is True and loaded.archive is True
        g1, m1 = store.align(list(names), 0.0, 30000.0, 600.0, "mean",
                             fill="nan")
        g2, m2 = loaded.align(list(names), 0.0, 30000.0, 600.0, "mean",
                              fill="nan")
        assert _bits_equal(m1, m2)
        # Every replica member received the cold chunks.
        for rs in loaded.replica_sets:
            assert all(m.archive.chunk_count() > 0 for m in rs.members)

    def test_cold_only_series_round_trips(self, tmp_path):
        """A series whose samples are all demoted (no hot buffer) still
        saves and reloads."""
        store = TimeSeriesStore(archive=True)
        t = np.arange(0.0, 1000.0, 10.0)
        store.append_many("m", t, np.ones(t.size))
        # Demote everything by hand, then drop the hot series: adopting
        # the chunks alone produces cold-only state.
        chunks_src = TimeSeriesStore(archive=True, retention=100.0)
        chunks_src.append_many("m", t, np.ones(t.size))
        cold = TimeSeriesStore(archive=True)
        cold.archive.adopt("m", chunks_src.archive.chunks("m"))
        path = str(tmp_path / "coldonly.npz")
        assert save_store(cold, path) == 1
        loaded = load_store(path)
        ts, vs = loaded.query("m")
        ref_t, _ = chunks_src.archive.scan("m", float("-inf"), float("inf"))
        assert ts.size >= ref_t.size
