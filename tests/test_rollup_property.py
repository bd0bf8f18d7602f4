"""Property tests: tiered storage is bit-exact.

Two families of invariants, both required by the tiered-storage design:

* **Codec exactness** — the cold-tier codecs (delta-of-delta timestamp
  packing, XOR float packing) are lossless for *arbitrary* float64
  payloads: NaN, ±inf, -0.0, subnormals, mixed magnitudes; and for any
  monotonically increasing timestamp vector, regular cadence or not.
* **Tier-served ≡ raw-reduce** — a query answered (fully or partially)
  from materialized rollup tiers returns the same bits as the same query
  reduced from raw samples, across shard counts, with and without cold
  demotion, in-process and with worker-process shards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import SERVABLE_AGGREGATIONS, TimeSeriesStore
from repro.telemetry.archive import (
    ColdChunk,
    decode_timestamps,
    decode_values,
    encode_timestamps,
    encode_values,
)
from repro.telemetry.distributed import ShardedStore


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# ---------------------------------------------------------------------------
# Codec exactness
# ---------------------------------------------------------------------------
any_float64 = st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64
)
finite_float64 = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)


class TestCodecExactness:
    @given(vals=st.lists(any_float64, min_size=0, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_value_codec_round_trips_any_float64(self, vals):
        values = np.array(vals, dtype=np.float64)
        params, bitmap, payload = encode_values(values)
        out = decode_values(params, bitmap, payload)
        assert np.array_equal(_bits(values), _bits(out))

    @given(ticks=st.lists(finite_float64, min_size=0, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_timestamp_codec_round_trips_any_monotonic(self, ticks):
        times = np.unique(np.array(ticks, dtype=np.float64))
        params, payload = encode_timestamps(times)
        out = decode_timestamps(params, payload)
        assert np.array_equal(_bits(times), _bits(out))

    @given(
        start=st.floats(min_value=0.0, max_value=1e9),
        period=st.sampled_from([0.2, 1.0, 5.0, 10.0, 60.0]),
        n=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=100, deadline=None)
    def test_regular_cadence_round_trips(self, start, period, n):
        times = start + np.arange(n) * period
        params, payload = encode_timestamps(times)
        assert np.array_equal(_bits(times), _bits(decode_timestamps(
            params, payload)))

    @given(
        vals=st.lists(any_float64, min_size=1, max_size=200),
        deltas=st.lists(
            st.floats(min_value=1e-3, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_cold_chunk_round_trips(self, vals, deltas):
        n = min(len(vals), len(deltas))
        times = np.cumsum(np.array(deltas[:n], dtype=np.float64))
        values = np.array(vals[:n], dtype=np.float64)
        chunk = ColdChunk.encode(times, values)
        t, v = chunk.decode()
        assert np.array_equal(_bits(times), _bits(t))
        assert np.array_equal(_bits(values), _bits(v))


# ---------------------------------------------------------------------------
# Tier-served queries match raw reduction, bit for bit
# ---------------------------------------------------------------------------
def _make_series(seed: int, period: float, hours: float, gap: bool):
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, hours * 3600.0, period)
    if gap and times.size > 40:
        # Knock a contiguous window out of the middle: exercises NaN
        # (not 0) semantics for count/sum through the tiers.
        lo = times.size // 3
        hi = 2 * times.size // 3
        times = np.concatenate([times[:lo], times[hi:]])
    values = np.round(rng.normal(220.0, 8.0, times.size) * 4) / 4
    return times, values


query_params = st.tuples(
    st.sampled_from(sorted(SERVABLE_AGGREGATIONS)),
    st.sampled_from([60.0, 300.0, 600.0, 3600.0]),
    st.sampled_from([1.0, 5.0, 10.0, 30.0]),  # ingest period
    st.booleans(),                            # gap in the middle
    st.integers(min_value=0, max_value=2**31),
)


class TestTierServedIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    @given(params=query_params)
    @settings(max_examples=25, deadline=None)
    def test_sharded_tier_query_equals_raw(self, shards, params):
        agg, step, period, gap, seed = params
        hours = 8.0
        names = ["n0.p", "n1.p", "n2.p"]
        tiered = ShardedStore(shards=shards, rollups=True)
        raw = TimeSeriesStore()
        for i, name in enumerate(names):
            t, v = _make_series(seed + i, period, hours, gap)
            tiered.append_many(name, t, v)
            raw.append_many(name, t, v)
        until = hours * 3600.0
        g1, r1 = tiered.resample(names[0], 0.0, until, step, agg)
        g2, r2 = raw.resample(names[0], 0.0, until, step, agg)
        assert np.array_equal(_bits(g1), _bits(g2))
        assert np.array_equal(_bits(r1), _bits(r2))
        a1, m1 = tiered.align(names, 0.0, until, step, agg, fill="nan")
        a2, m2 = raw.align(names, 0.0, until, step, agg, fill="nan")
        assert np.array_equal(_bits(m1), _bits(m2))

    @given(params=query_params)
    @settings(max_examples=25, deadline=None)
    def test_demoted_tier_query_equals_raw(self, params):
        """Retention demotes most history to cold chunks; queries must
        still match an untiered store holding everything hot."""
        agg, step, period, gap, seed = params
        t, v = _make_series(seed, period, 8.0, gap)
        tiered = TimeSeriesStore(rollups=True, archive=True,
                                 retention=3600.0)
        raw = TimeSeriesStore()
        tiered.append_many("m", t, v)
        raw.append_many("m", t, v)
        g1, r1 = tiered.resample("m", 0.0, 8 * 3600.0, step, agg)
        g2, r2 = raw.resample("m", 0.0, 8 * 3600.0, step, agg)
        assert np.array_equal(_bits(r1), _bits(r2))
        t1, v1 = tiered.query("m")
        assert np.array_equal(_bits(v), _bits(v1))

    @given(params=query_params)
    @settings(max_examples=5, deadline=None)
    def test_parallel_tier_query_equals_raw(self, params):
        """Worker-process shards (rollups maintained worker-side) answer
        identically to a single in-process raw store."""
        agg, step, period, gap, seed = params
        names = ["a.p", "b.p"]
        raw = TimeSeriesStore()
        tiered = ShardedStore(shards=2, parallel=True, rollups=True)
        try:
            for i, name in enumerate(names):
                t, v = _make_series(seed + i, period, 2.0, gap)
                tiered.append_many(name, t, v)
                raw.append_many(name, t, v)
            until = 2 * 3600.0
            g1, r1 = tiered.resample(names[0], 0.0, until, step, agg)
            g2, r2 = raw.resample(names[0], 0.0, until, step, agg)
            assert np.array_equal(_bits(r1), _bits(r2))
            a1, m1 = tiered.align(names, 0.0, until, step, agg, fill="nan")
            a2, m2 = raw.align(names, 0.0, until, step, agg, fill="nan")
            assert np.array_equal(_bits(m1), _bits(m2))
        finally:
            tiered.close()
