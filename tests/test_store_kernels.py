"""Property tests: vectorized resample kernels match the scalar reference.

Every aggregation in :data:`VECTORIZED_AGGREGATIONS` must agree with the
scalar :data:`AGGREGATIONS` callable it replaces, bucket for bucket — on
random series, including empty buckets, single-sample buckets and the
partial trailing bucket.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TimeSeriesStore
from repro.telemetry.store import AGGREGATIONS, VECTORIZED_AGGREGATIONS
from tests.reference import scalar_align, scalar_resample

VECTOR_AGGS = sorted(VECTORIZED_AGGREGATIONS)

#: The store's kernels and the per-bucket reference, by the name the gap
#: tests parametrize on.
ENGINES = {"vectorized": TimeSeriesStore.resample, "scalar": scalar_resample}


def _assert_engines_agree(store, name, since, until, step, agg):
    grid_v, vec = store.resample(name, since, until, step, agg=agg)
    grid_s, ref = scalar_resample(store, name, since, until, step, agg=agg)
    assert grid_v.tolist() == grid_s.tolist()
    assert vec.shape == ref.shape
    nan_v, nan_s = np.isnan(vec), np.isnan(ref)
    assert (nan_v == nan_s).all(), f"{agg}: NaN (empty-bucket) mask differs"
    np.testing.assert_allclose(vec[~nan_v], ref[~nan_s], rtol=1e-9, atol=1e-9)


class TestKernelEquivalence:
    @pytest.mark.parametrize("agg", VECTOR_AGGS)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=150,
        ),
        step=st.floats(min_value=0.3, max_value=40.0),
        until=st.floats(min_value=1.0, max_value=120.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_scalar_on_random_series(self, agg, times, step, until):
        """Random irregular series: sparse (empty + single-sample buckets),
        dense clusters, and a partial trailing bucket when until % step != 0."""
        times = np.sort(np.asarray(times, dtype=np.float64))
        rng = np.random.default_rng(int(times.sum() * 1000) % 2**32)
        values = rng.normal(scale=100.0, size=times.size)
        store = TimeSeriesStore()
        store.append_many("m", times, values)
        _assert_engines_agree(store, "m", 0.0, until, step, agg)

    @pytest.mark.parametrize("agg", VECTOR_AGGS)
    def test_all_buckets_empty(self, agg):
        store = TimeSeriesStore()
        store.append("m", 1000.0, 1.0)
        _, out = store.resample("m", 0.0, 100.0, 10.0, agg=agg)
        assert np.isnan(out).all()

    @pytest.mark.parametrize("agg", VECTOR_AGGS)
    def test_single_sample_buckets(self, agg):
        store = TimeSeriesStore()
        store.append_many("m", np.array([5.0, 25.0, 45.0]),
                          np.array([1.0, -2.0, 3.0]))
        _assert_engines_agree(store, "m", 0.0, 50.0, 10.0, agg)

    @pytest.mark.parametrize("agg", VECTOR_AGGS)
    def test_partial_trailing_bucket(self, agg):
        store = TimeSeriesStore()
        store.append_many("m", np.arange(17.0), np.arange(17.0) * 3.0)
        # until=16 -> 1 full bucket [0,10) + partial [10,16] incl. t=16.
        _assert_engines_agree(store, "m", 0.0, 16.0, 10.0, agg)

    @pytest.mark.parametrize("agg", VECTOR_AGGS)
    def test_nan_samples_propagate_like_scalar(self, agg):
        store = TimeSeriesStore()
        values = np.array([1.0, np.nan, 3.0, 4.0])
        store.append_many("m", np.arange(4.0), values)
        grid_v, vec = store.resample("m", 0.0, 4.0, 2.0, agg=agg)
        _, ref = scalar_resample(store, "m", 0.0, 4.0, 2.0, agg=agg)
        # NaN *samples* poison their bucket identically in both engines
        # (count is NaN-blind in both).
        assert np.array_equal(vec, ref, equal_nan=True)

    def test_scalar_only_aggs_fall_back(self):
        store = TimeSeriesStore()
        store.append_many("m", np.arange(20.0), np.arange(20.0))
        for agg in ("std", "median", "p95", "rate"):
            assert agg not in VECTORIZED_AGGREGATIONS
            _, out = store.resample("m", 0.0, 20.0, 5.0, agg=agg)
            assert out.size == 4 and np.isfinite(out).all()

    def test_align_engines_agree(self):
        store = TimeSeriesStore()
        rng = np.random.default_rng(7)
        for i in range(4):
            n = 40 + 10 * i
            store.append_many(f"s{i}", np.sort(rng.uniform(0, 100, n)),
                              rng.normal(size=n))
        for fill in ("ffill", "nan"):
            grid_v, mat_v = store.align([f"s{i}" for i in range(4)],
                                        0.0, 95.0, 7.0, fill=fill)
            grid_s, mat_s = scalar_align(store, [f"s{i}" for i in range(4)],
                                         0.0, 95.0, 7.0, fill=fill)
            assert grid_v.tolist() == grid_s.tolist()
            assert (np.isnan(mat_v) == np.isnan(mat_s)).all()
            np.testing.assert_allclose(mat_v[~np.isnan(mat_v)],
                                       mat_s[~np.isnan(mat_s)], rtol=1e-9)

    def test_every_scalar_agg_has_consistent_registry(self):
        # Vectorized kernels may only exist for aggs the scalar table knows.
        assert set(VECTORIZED_AGGREGATIONS) <= set(AGGREGATIONS)


class TestGapBucketRegression:
    """Audited gap-bucket contract: a bucket with no samples is NaN — never
    0 — for every aggregation, in BOTH engines.  ``count`` and ``sum`` are
    the regression-prone cases (0 is a plausible-but-wrong answer there),
    and the rollup tier-serving path is committed to the same contract."""

    def _store_with_hole(self):
        store = TimeSeriesStore()
        t = np.concatenate([np.arange(0.0, 50.0, 5.0),
                            np.arange(200.0, 250.0, 5.0)])
        store.append_many("m", t, np.ones(t.size))
        return store

    @pytest.mark.parametrize("agg", ["count", "sum"])
    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_gap_buckets_are_nan_not_zero(self, agg, engine):
        store = self._store_with_hole()
        _, v = ENGINES[engine](store, "m", 0.0, 250.0, 10.0, agg=agg)
        hole = v[5:20]  # buckets covering (50, 200): no samples
        assert np.isnan(hole).all(), f"{engine}/{agg}: gap must be NaN"
        assert not np.any(v == 0.0), f"{engine}/{agg}: 0 would fake data"

    @pytest.mark.parametrize("agg", ["count", "sum"])
    def test_engines_agree_on_gap_mask(self, agg):
        store = self._store_with_hole()
        _, vec = store.resample("m", 0.0, 250.0, 10.0, agg=agg)
        _, sca = scalar_resample(store, "m", 0.0, 250.0, 10.0, agg=agg)
        assert np.array_equal(np.isnan(vec), np.isnan(sca))
        np.testing.assert_allclose(vec[~np.isnan(vec)], sca[~np.isnan(sca)],
                                   rtol=1e-12)

    def test_leading_and_trailing_gaps(self):
        store = TimeSeriesStore()
        store.append_many("m", np.array([55.0, 57.0]), np.array([1.0, 2.0]))
        for resample in ENGINES.values():
            _, v = resample(store, "m", 0.0, 100.0, 10.0, agg="count")
            assert np.isnan(v[:5]).all() and np.isnan(v[6:]).all()
            assert v[5] == 2.0
