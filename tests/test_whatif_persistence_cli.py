"""Tests for the what-if replay API, store persistence and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import WorkloadGenerator, default_catalog
from repro.apps.generator import JobRequest
from repro.cli import main
from repro.errors import InsufficientDataError, StoreError
from repro.software import (
    EasyBackfillPolicy,
    FcfsPolicy,
    compare_policies,
    replay,
)
from repro.telemetry import SampleBatch, TimeSeriesStore, load_store, save_store
from repro.telemetry import store as store_module


def trace(jobs_per_day=24.0, days=0.5, seed=7, max_nodes=16):
    generator = WorkloadGenerator(
        np.random.default_rng(seed), jobs_per_day=jobs_per_day, max_nodes=max_nodes
    )
    return generator.generate(0.0, days * 86_400.0)


class TestReplay:
    def test_replay_completes_trace(self):
        result = replay(trace(), FcfsPolicy())
        assert result.total == len(trace())
        assert result.completed > 0
        assert result.it_energy_kwh > 0
        assert result.makespan_s > 0

    def test_empty_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            replay([], FcfsPolicy())

    def test_backfill_no_worse_makespan(self):
        requests = trace(jobs_per_day=40.0)
        fcfs = replay(requests, FcfsPolicy())
        easy = replay(requests, EasyBackfillPolicy())
        assert easy.makespan_s <= fcfs.makespan_s * 1.05
        assert easy.completed >= fcfs.completed

    def test_compare_policies_sorted(self):
        requests = trace()
        results = compare_policies(
            requests,
            {"fcfs": FcfsPolicy(), "easy": EasyBackfillPolicy()},
        )
        assert [r.policy_name for r in results]
        spans = [r.makespan_s for r in results]
        assert spans == sorted(spans)

    def test_stall_detection_terminates(self):
        """A policy that never starts anything must not drain forever."""

        class NeverPolicy(FcfsPolicy):
            name = "never"

            def select(self, ctx):
                return []

        result = replay(trace(days=0.2), NeverPolicy(), max_days=5.0)
        assert result.completed == 0
        assert result.makespan_s == 0.0

    def test_replay_result_rows(self):
        result = replay(trace(), EasyBackfillPolicy())
        rows = dict(result.rows())
        assert rows["policy"] == "easy_backfill"
        assert "utilization" in rows


class TestPersistence:
    def make_store(self):
        store = TimeSeriesStore(retention=None)
        t = np.arange(0.0, 500.0, 5.0)
        store.append_many("a.power", t, np.sin(t))
        store.append_many("b.temp", t, np.cos(t))
        return store

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "archive.npz")
        original = self.make_store()
        assert save_store(original, path) == 2
        loaded = load_store(path)
        assert loaded.names() == original.names()
        for name in original.names():
            t0, v0 = original.query(name)
            t1, v1 = loaded.query(name)
            assert (t0 == t1).all() and (v0 == v1).all()

    def test_subset_save(self, tmp_path):
        path = str(tmp_path / "subset.npz")
        save_store(self.make_store(), path, names=["a.power"])
        loaded = load_store(path)
        assert loaded.names() == ["a.power"]

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, x=np.ones(3))
        with pytest.raises(StoreError):
            load_store(path)

    def test_config_round_trips(self, tmp_path):
        """Archives persist retention and restore it."""
        path = str(tmp_path / "configured.npz")
        store = TimeSeriesStore(retention=3600.0)
        store.append_many("a.power", np.arange(10.0), np.ones(10))
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.retention == 3600.0

    @pytest.mark.parametrize("sharded", [False, True])
    def test_header_with_retired_store_keys_loads(
        self, tmp_path, monkeypatch, sharded
    ):
        """Archives written while the store took a staging threshold and a
        retention slack carry both in the header; loading ignores them."""
        from repro.telemetry import ShardedStore, persistence

        config_meta = persistence._config_meta
        monkeypatch.setattr(
            persistence, "_config_meta",
            lambda store: {**config_meta(store),
                           "retention_slack": 0.125, "flush_threshold": 32},
        )
        path = str(tmp_path / "old.npz")
        store = (ShardedStore(shards=2, retention=3600.0) if sharded
                 else TimeSeriesStore(retention=3600.0))
        store.append_many("a.power", np.arange(10.0), np.arange(10.0))
        save_store(store, path)
        with np.load(path) as archive:
            header = persistence._read_meta(archive, path)
        assert header["retention_slack"] == 0.125
        assert header["flush_threshold"] == 32
        loaded = load_store(path)
        assert loaded.retention == 3600.0
        assert loaded.query("a.power")[1].tolist() == list(np.arange(10.0))

    def test_staged_only_store_round_trips(self, tmp_path, monkeypatch):
        """Regression: un-flushed staged samples must reach the archive."""
        path = str(tmp_path / "staged.npz")
        monkeypatch.setattr(store_module, "FLUSH_THRESHOLD", 10_000)
        store = TimeSeriesStore()  # never auto-flushes
        batch_names = ("a.power", "b.temp")
        for t in range(5):
            store.ingest("t", SampleBatch(float(t), batch_names, np.ones(2) * t))
        assert store.staged_samples == 10
        save_store(store, path)
        loaded = load_store(path)
        for name in batch_names:
            times, values = loaded.query(name)
            np.testing.assert_array_equal(times, np.arange(5.0))
            np.testing.assert_array_equal(values, np.arange(5.0))

    def test_v1_archive_refused(self, tmp_path):
        """A hand-built pre-checksum archive is refused, not guessed at."""
        import json

        from repro.errors import PersistenceError

        path = str(tmp_path / "v1.npz")
        t = np.arange(4.0)
        meta = {"version": 1, "series": ["old.metric"], "retention": 60.0,
                "samples": 4}
        np.savez_compressed(
            path,
            **{
                "old.metric::t": t,
                "old.metric::v": t * 2,
                "__meta__": np.frombuffer(
                    json.dumps(meta).encode("utf-8"), dtype=np.uint8
                ),
            },
        )
        with pytest.raises(PersistenceError) as err:
            load_store(path)
        assert err.value.path == path

    def test_unreadable_version_rejected(self, tmp_path):
        import json

        path = str(tmp_path / "future.npz")
        meta = {"version": 99, "series": []}
        np.savez_compressed(path, __meta__=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8))
        with pytest.raises(StoreError):
            load_store(path)


class TestShardedPersistence:
    def make_sharded(self, replication=1):
        from repro.telemetry import SampleBatch, ShardedStore

        store = ShardedStore(shards=3, replication=replication)
        names = tuple(f"rack{r}.node{n}.power" for r in range(2) for n in range(4))
        rng = np.random.default_rng(5)
        for t in range(20):
            store.ingest("t", SampleBatch(float(t), names, rng.random(len(names))))
        return store

    def test_sharded_round_trip(self, tmp_path):
        from repro.telemetry import ShardedStore

        path = str(tmp_path / "site.npz")
        original = self.make_sharded()
        count = save_store(original, path)
        assert count == len(original.names())
        # Manifest plus one archive per shard.
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["site.npz", "site.shard0.npz", "site.shard1.npz",
                         "site.shard2.npz"]
        loaded = load_store(path)
        assert isinstance(loaded, ShardedStore)
        assert loaded.shards == 3 and loaded.replication == 1
        assert loaded.names() == original.names()
        for name in original.names():
            t0, v0 = original.query(name)
            t1, v1 = loaded.query(name)
            np.testing.assert_array_equal(t0, t1)
            np.testing.assert_array_equal(v0, v1)

    def test_shard_archive_loads_standalone(self, tmp_path):
        path = str(tmp_path / "site.npz")
        original = self.make_sharded()
        save_store(original, path)
        shard0 = load_store(str(tmp_path / "site.shard0.npz"))
        assert isinstance(shard0, TimeSeriesStore)
        assert shard0.names() == original.replica_sets[0].primary.names()

    def test_sharded_subset_save(self, tmp_path):
        path = str(tmp_path / "subset.npz")
        original = self.make_sharded(replication=0)
        keep = original.names()[:3]
        save_store(original, path, names=keep)
        loaded = load_store(path)
        assert loaded.names() == sorted(keep)

    def test_sharded_save_survives_failover(self, tmp_path):
        """Archiving reads through failover: a dead primary does not lose
        the shard's series as long as a replica is up."""
        path = str(tmp_path / "failed.npz")
        original = self.make_sharded(replication=1)
        original.replica_sets[1].mark_down(0)
        save_store(original, path)
        loaded = load_store(path)
        assert loaded.names() == original.names()


class TestCli:
    def test_classify_command(self, capsys):
        assert main(["classify", "dashboards", "for", "facility", "cooling"]) == 0
        out = capsys.readouterr().out
        assert "Descriptive x Building Infrastructure" in out

    def test_classify_out_of_domain(self, capsys):
        assert main(["classify", "zzz", "qqq"]) == 1

    def test_roadmap_command(self, capsys):
        assert main(["roadmap", "--covered", "descriptive:applications",
                     "--horizon", "2"]) == 0
        out = capsys.readouterr().out
        assert "1." in out and "2." in out

    def test_roadmap_bad_cell(self, capsys):
        assert main(["roadmap", "--covered", "nonsense"]) == 1

    def test_survey_command(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Figure 3" in out

    def test_simulate_command(self, capsys, tmp_path):
        path = str(tmp_path / "run.npz")
        assert main([
            "simulate", "--days", "0.05", "--jobs-per-day", "10",
            "--save-store", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "Run KPIs" in out
        assert load_store(path).names()

    def test_simulate_sharded_command(self, capsys, tmp_path):
        from repro.telemetry import ShardedStore

        path = str(tmp_path / "sharded.npz")
        assert main([
            "simulate", "--days", "0.02", "--jobs-per-day", "5",
            "--shards", "4", "--replication", "1", "--save-store", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded store: 4 shards x 2 copies" in out
        loaded = load_store(path)
        assert isinstance(loaded, ShardedStore)
        assert loaded.shards == 4
        assert loaded.names()

    def test_simulate_gives_one_card_per_seed(self, capsys, tmp_path):
        """One seed, one answer: a tiered, sharded, replicated run prints
        the same card twice and saves the same bytes for every series."""
        cards, stores = [], []
        for run in range(2):
            path = str(tmp_path / f"run{run}.npz")
            assert main([
                "simulate", "--seed", "3", "--rollups", "--archive",
                "--retention", "3600", "--shards", "2", "--replication", "1",
                "--racks", "1", "--nodes-per-rack", "4", "--days", "0.25",
                "--save-store", path,
            ]) == 0
            cards.append(capsys.readouterr().out.replace(path, "<archive>"))
            stores.append(load_store(path))
        assert "cold tier:" in cards[0]
        assert cards[0] == cards[1]
        first, second = stores
        assert first.names() == second.names()
        for name in first.names():
            t1, v1 = first.query(name)
            t2, v2 = second.query(name)
            assert t1.tobytes() == t2.tobytes(), name
            assert v1.tobytes() == v2.tobytes(), name
