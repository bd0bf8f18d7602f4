"""The replica tier's loss state is what the members lack.

A replica set numbers its writes and keeps, per member, the writes that
member did not apply (its holes).  ``missed_writes``/``dropped_writes`` are
derived from a member's holes and ``lost_*`` from the writes every member
lacks, so each reads what the member stores actually lack — through
resyncs, anti-entropy repairs and worker restarts alike.  A repair merges
the members' samples, so it never removes the last copy of one.  Every
check here counts the lacking samples from the member stores themselves.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import SampleBatch, ShardedStore

NAMES = tuple(f"ledger.s{i:02d}" for i in range(12))


class Written:
    """Every sample handed to a store, by series."""

    def __init__(self):
        self.times = {}

    def ingest(self, store, t: float, names=NAMES) -> None:
        store.ingest("t", SampleBatch(t, names, np.full(len(names), t)))
        for name in names:
            self.times.setdefault(name, []).append(t)

    def append_many(self, store, name: str, times: np.ndarray) -> None:
        store.append_many(name, times, -times)
        self.times.setdefault(name, []).extend(times.tolist())

    def truth(self, store, shard: int):
        """(samples each member lacks, samples no member holds) of one
        shard, counted from its member stores."""
        rs = store.replica_sets[shard]
        missing = []  # per member: name -> times it lacks
        for member in rs.members:
            missing.append({
                name: np.setdiff1d(
                    times, member.query(name)[0] if name in member else []
                )
                for name, times in self.times.items()
                if store.shard_of(name) == shard
            })
        lacking = [sum(m.size for m in gaps.values()) for gaps in missing]
        lost = sum(
            len(set.intersection(*(set(gaps[name].tolist()) for gaps in missing)))
            for name in missing[0]
        )
        return lacking, lost


def ledger(rs):
    """(each member's missed + dropped samples, lost samples)."""
    return (
        np.add(rs.missed_writes, rs.dropped_writes).tolist(),
        rs.lost_samples,
    )


def _parallel(journal: str, replication: int = 1, shards: int = 1) -> ShardedStore:
    return ShardedStore(
        shards=shards, replication=replication, parallel=True, journal=journal,
    )


# ---------------------------------------------------------------------------
# Scenarios the restart offsets, the heal arithmetic and the resync reset
# each counted wrong
# ---------------------------------------------------------------------------
class TestRestartRebuildsTheLedger:
    def test_down_member_is_not_counted_twice_by_ring_replay(self, tmp_path):
        """Member 0 is down for all 30 batches: it lacks 360 samples before
        and after a worker restart that replays the ring."""
        store = _parallel(str(tmp_path))
        written = Written()
        try:
            rs = store.replica_sets[0]
            rs.mark_down(0)
            for t in range(30):
                written.ingest(store, float(t))
            assert rs.missed_writes == [360, 0]
            store.runtime.crash_worker(0)
            assert store.runtime.check_workers() == [0]
            assert rs.missed_writes == [360, 0]
            assert written.truth(store, 0) == ([360, 0], 0)
            assert ledger(rs) == ([360, 0], 0)
        finally:
            store.close()

    def test_write_lost_before_a_restart_is_held_after_it(self, tmp_path):
        """Both members miss batches 5..14; member 1 comes back without a
        resync, and the restart replays the journal into it: no write is
        lost any more, and member 0 (down at the restart) lacks all 80."""
        store = _parallel(str(tmp_path))
        written = Written()
        names = NAMES[:4]
        try:
            rs = store.replica_sets[0]
            for t in range(20):
                if t == 5:
                    rs.mark_down(0)
                    rs.mark_down(1)
                if t == 15:
                    rs.revive(1, resync=False)
                written.ingest(store, float(t), names)
            assert rs.lost_samples == 40
            store.sync_journal()
            store.runtime.crash_worker(0)
            assert store.runtime.check_workers() == [0]
            assert rs.lost_samples == 0
            assert rs.missed_writes == [80, 0]
            assert written.truth(store, 0) == ([80, 0], 0)
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Repairs only add: resync and anti-entropy merge the members' samples
# ---------------------------------------------------------------------------
class TestResyncKeepsTheMembersOwnSamples:
    def test_resync_beside_a_peer_that_shed_writes(self):
        """Member 0 holds all 80 samples and is resynced beside member 1,
        which shed half its writes: the merge keeps member 0's samples, and
        member 1 still lacks its 40, and says so."""
        store = ShardedStore(shards=1, replication=1)
        written = Written()
        rs = store.replica_sets[0]
        rs.degrade(0.5, np.random.default_rng(1), member=1)
        for t in range(10):
            written.ingest(store, float(t), NAMES[:8])
        rs.mark_down(0)
        rs.revive(0, resync=True)
        lacking, lost = written.truth(store, 0)
        assert (lacking, lost) == ([0, 40], 0)
        assert ledger(rs) == (lacking, lost)
        assert rs.dropped_writes == [0, 40]


class TestAntiEntropyMerges:
    def test_sample_only_the_overwritten_member_held_survives(self):
        """Member 0 misses t = 2 and member 1 misses t = 3, so each holds a
        sample of window 0 the other lacks: the sweep gives both members
        both samples."""
        store = ShardedStore(shards=1, replication=1)
        written = Written()
        rs = store.replica_sets[0]
        for t in (0.0, 1.0):
            written.ingest(store, t, ("a",))
        for t, down in ((2.0, 0), (3.0, 1)):
            rs.mark_down(down)
            written.ingest(store, t, ("a",))
            rs.revive(down, resync=False)
        written.ingest(store, 10.0, ("a",))
        assert written.truth(store, 0) == ([1, 1], 0)
        store.anti_entropy(window_s=10)
        for member in rs.members:
            assert member.query("a")[0].tolist() == [0.0, 1.0, 2.0, 3.0, 10.0]
        assert written.truth(store, 0) == ([0, 0], 0)
        assert rs.lost_samples == 0
        assert rs.missed_writes == [0, 0]

    def test_repeated_time_in_a_bulk_append_keeps_the_last_writer(self):
        """Both members store the bulk append's last writer at t = 5, so
        the sweep that fills member 1's hole at t = 6 keeps it too."""
        store = ShardedStore(shards=1, replication=1)
        rs = store.replica_sets[0]
        store.append_many("a", [5.0, 5.0], [1.0, 2.0])
        rs.mark_down(1)
        store.append("a", 6.0, 6.0)
        rs.revive(1, resync=False)
        store.append("a", 20.0, 20.0)
        store.anti_entropy(window_s=10)
        for member in rs.members:
            t, v = member.query("a")
            assert t.tolist() == [5.0, 6.0, 20.0]
            assert v.tolist() == [2.0, 6.0, 20.0]

    def test_disputed_timestamp_goes_to_the_primary_on_a_tie(self):
        """Member 1 sheds a same-time rewrite of t = 4, so both members
        hold five samples of window 0 that disagree at t = 4: the sweep
        gives both the primary's value, as the copy it replaced did."""
        store = ShardedStore(shards=1, replication=1)
        rs = store.replica_sets[0]
        rng = np.random.default_rng(0)
        for t in range(5):
            store.ingest("t", SampleBatch(float(t), ("a",), np.array([float(t)])))
        rs.degrade(1.0, rng, member=1)
        store.ingest("t", SampleBatch(4.0, ("a",), np.array([-4.0])))
        rs.degrade(0.0, rng, member=1)
        store.ingest("t", SampleBatch(10.0, ("a",), np.array([10.0])))
        assert [m.query("a")[1][4] for m in rs.members] == [-4.0, 4.0]
        assert store.anti_entropy(window_s=10)["repaired_windows"] == 1
        for member in rs.members:
            t, v = member.query("a")
            assert t.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 10.0]
            assert v.tolist() == [0.0, 1.0, 2.0, 3.0, -4.0, 10.0]


# ---------------------------------------------------------------------------
# Retention: a hole below the cutoff is history no member keeps
# ---------------------------------------------------------------------------
class TestHolesAgeOutUnderRetention:
    def test_holes_below_the_retention_cutoff_are_dropped(self):
        """Member 1 misses 1 000 writes of 2 series and comes back without
        a resync; 490 writes later every one of them lies below the
        retention cutoff, where no member holds samples: it lacks none."""
        store = ShardedStore(shards=1, replication=1, retention=100)
        written = Written()
        rs = store.replica_sets[0]
        names = NAMES[:2]
        rs.mark_down(1)
        for t in range(1000):
            written.ingest(store, float(t), names)
        rs.revive(1, resync=False)
        for t in range(1000, 1490):
            written.ingest(store, float(t), names)
        assert rs.missed_writes == [0, 0]
        assert rs._holes == [{}, {}]  # the hole map stops growing
        cutoff = 1489.0 - 100
        for member in rs.members:
            for name in names:
                kept = [t for t in written.times[name] if t >= cutoff]
                assert member.query(name)[0].tolist() == kept


# ---------------------------------------------------------------------------
# The property: after every step, the loss state is what the stores lack
# ---------------------------------------------------------------------------
W = 5.0  # anti-entropy window, in clock seconds


def steps(members: int, max_size: int = 16):
    """Steps on a store of ``members`` members per shard (shard indices
    are taken modulo the shard count)."""
    shard, member = st.integers(0, 7), st.integers(0, members - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("ingest"), st.integers(1, 4)),
        st.tuples(st.just("append_many"), st.integers(0, len(NAMES) - 1),
                  st.integers(1, 8)),
        st.tuples(st.just("mark_down"), shard, member),
        st.tuples(st.just("degrade"), shard, member,
                  st.sampled_from([0.0, 0.5, 1.0])),
        st.tuples(st.just("revive"), shard, member, st.booleans()),
        st.tuples(st.just("anti_entropy")),
        st.tuples(st.just("crash"), shard),
    ), min_size=1, max_size=max_size)


def _run(store, steps, seed: int) -> None:
    written = Written()
    rng = np.random.default_rng(seed)
    clock = 0.0
    truth = [written.truth(store, shard) for shard in range(store.shards)]
    for op, *args in steps:
        if op == "ingest":
            for _ in range(args[0]):
                clock += 1.0
                written.ingest(store, clock)
        elif op == "append_many":
            name, n = NAMES[args[0]], args[1]
            times = clock + 1.0 + np.arange(n, dtype=np.float64)
            clock += n
            written.append_many(store, name, times)
        elif op == "anti_entropy":
            store.anti_entropy(window_s=W)
        elif op == "crash":
            if store.runtime is None:
                continue
            shard = args[0] % store.shards
            store.runtime.crash_worker(shard)
            assert store.runtime.check_workers() == [shard]
        else:
            rs = store.replica_sets[args[0] % store.shards]
            if op == "mark_down":
                rs.mark_down(args[1])
            elif op == "degrade":
                rs.degrade(args[2], rng, member=args[1])
            else:
                rs.revive(args[1], resync=args[2])
        repair = op == "anti_entropy" or (op == "revive" and args[2])
        for shard, rs in enumerate(store.replica_sets):
            before, truth[shard] = truth[shard], written.truth(store, shard)
            assert ledger(rs) == truth[shard], (op, args)
            if repair:  # a repair never removes the last copy of a sample
                assert truth[shard][1] <= before[1], (op, args)


class TestLedgerProperty:
    """After every step of an interleaving of writes, faults, revivals,
    sweeps and (parallel tier only) worker crashes, each member's missed +
    dropped samples are what its store lacks of everything written, and
    ``lost_samples`` is what no member holds; after every repair no more
    samples are lost than before it.  Stores keep everything (no
    retention), so every sample written stays owed."""

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @settings(max_examples=60, deadline=None)
    @given(steps=steps(2), seed=st.integers(0, 2**16))
    def test_in_process(self, shards, steps, seed):
        _run(ShardedStore(shards=shards, replication=1), steps, seed)

    @pytest.mark.parametrize("shards", [1, 8])
    @settings(max_examples=60, deadline=None)
    @given(steps=steps(3), seed=st.integers(0, 2**16))
    def test_in_process_three_members(self, shards, steps, seed):
        _run(ShardedStore(shards=shards, replication=2), steps, seed)

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @settings(max_examples=6, deadline=None)
    @given(steps=steps(2, max_size=12), seed=st.integers(0, 2**16))
    def test_parallel_with_journal(self, shards, steps, seed):
        workdir = tempfile.mkdtemp(prefix="ledger-prop-")
        store = None
        try:
            store = _parallel(workdir, 1, shards)
            _run(store, steps, seed)
        finally:
            if store is not None:
                store.close()
            shutil.rmtree(workdir, ignore_errors=True)
