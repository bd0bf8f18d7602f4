"""Materialized downsample cascades (rollups) with a tier-serving planner.

DCDB Wintermute (PAPERS.md) keeps online ODA queries fast over months of
telemetry by maintaining pre-aggregated views next to the raw store.  This
module is that design for our stack: every series gets a cascade of
downsample tiers (:data:`TIER_STEPS`: 10s → 1m → 5m → 1h, a module
constant, not a setting) of ``sum/min/max/count`` (``mean`` is derived as
``sum/count``), maintained **incrementally** at ingest/flush time, and a
query planner that transparently serves ``resample``/``align`` buckets
from the coarsest sufficient tier, falling back to raw.

The engine holds only its tiers.  Its owner, a
:class:`~repro.telemetry.store.TimeSeriesStore`, hands each
:meth:`RollupEngine.observe` and :meth:`RollupEngine.repair` call its
maintenance read, and :meth:`RollupEngine.serve` returns only the
tier-served prefix of a query's buckets: the store reduces the rest
through its one raw path, the one a store without tiers answers every
bucket with.  Nothing here points back at the store, so a dropped store
is freed by reference counting alone.

Tiers only where they summarise
-------------------------------
A tier row costs 40 B and a raw sample 16 B, so a bucket must hold at least
three samples to be smaller than what it summarises.  Where raw history
stays answerable for good (the store has an archive, or no retention), a
tier is therefore *materialised* for a series only when its step is at
least :data:`SUMMARY_FACTOR` times the series' cadence: the median spacing
of its first :data:`CADENCE_SAMPLES` samples.  Until a series has that many
samples nothing is finalised; once decided, its tier list holds only the
materialised tiers, so the planner, repair and persistence never see the
others, and a query a missing tier would have served falls back to a finer
tier or to raw with the same bits.  The decision is made once: a later
cadence change costs only speed, never correctness.  A store with
retention and no archive keeps every tier for every series, because there
the tiers are the only memory beyond retention.

Bit-identity contract
---------------------
A bucket served from a tier is **bit-identical** to reducing the raw
samples with the vectorized kernels.  That holds by construction, not by
luck:

* Maintenance assigns each sample to the bucket the query path's
  ``searchsorted``-against-float-edges would pick (a ``floor`` candidate
  corrected against the actual edge floats), then reduces each bucket with
  the same sequential ``reduceat`` kernels over the same sample slices.
* A tier bucket ``[b·s, (b+1)·s)`` is *finalized* only once the series'
  last timestamp has reached the bucket's end edge — append-only ingest
  with last-writer-wins on the tail means finalized buckets can never
  change again.
* The planner only serves a query bucket when every edge involved is an
  exact float multiple of the tier step (``fmod`` checks) — then the edge
  floats used at maintenance equal the query's edge floats, so boundary
  decisions agree.  Integer-second telemetry always passes; pathological
  float grids fall back to raw.
* Float addition is not associative, so ``sum``/``mean`` are served only
  from the tier whose step equals the query step exactly.  ``min``/``max``
  (associative, NaN-propagating, ties resolved identically under ordered
  grouping) and ``count`` (small-integer arithmetic, exact) may combine
  ``k`` finer buckets into one query bucket.
* The final query bucket is always served from raw: its upper bound is
  closed (a sample exactly at ``until`` belongs to it) while tier buckets
  are half-open.
* Missing tier buckets are **gaps**: they resample to NaN, exactly like an
  empty raw bucket — never 0, for ``count`` and ``sum`` included.

Materialised tiers are never trimmed: they are the long-horizon memory
that outlives raw retention (the paper's month-scale use case).  Once raw
samples age out of an archive-less retention window, a tier keeps serving
the history raw can no longer answer, which is why that configuration
keeps every tier regardless of cadence.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StoreError
from repro.obs.metrics import MetricsRegistry

__all__ = ["RollupEngine", "SERVABLE_AGGREGATIONS", "TIER_STEPS"]

#: Aggregations the planner can serve from a tier (must have vectorized
#: kernels in :data:`repro.telemetry.store.VECTORIZED_AGGREGATIONS`).
SERVABLE_AGGREGATIONS = ("mean", "min", "max", "sum", "count")

#: Aggregations whose per-bucket values may be combined across k adjacent
#: tier buckets (associative under ordered grouping / exact integers).
_COMBINABLE = ("min", "max", "count")

#: The downsample cascade: tier bucket widths in seconds, strictly
#: increasing.  Each series materialises only the tiers that summarise its
#: cadence (see the module docstring), so a 60 s scrape keeps the 5 min and
#: 1 h tiers and a 1 s scrape keeps all four.
TIER_STEPS = (10.0, 60.0, 300.0, 3600.0)

_INITIAL_CAPACITY = 32

#: A tier materialises for a series only when its step is at least this
#: many times the series' cadence (see the module docstring).
SUMMARY_FACTOR = 4.0

#: The cadence of a series is the median spacing of this many first samples.
CADENCE_SAMPLES = 8

#: Bytes per tier row: int64 index + float64 sum/min/max + int64 count.
_ROW_BYTES = 40


def _bucket_of(t: float, step: float) -> int:
    """Index of the tier bucket holding ``t``, consistent with the float
    edge values ``fl(b * step)`` the query path compares against."""
    b = int(math.floor(t / step))
    while (b + 1) * step <= t:
        b += 1
    while b * step > t:
        b -= 1
    return b


def _buckets_of(times: np.ndarray, step: float) -> np.ndarray:
    """Vectorized :func:`_bucket_of`: edge-consistent bucket per sample."""
    b = np.floor(times / step).astype(np.int64)
    # Correct float-division rounding against the actual edge floats, the
    # same comparisons searchsorted-over-edges performs.
    b += ((b + 1).astype(np.float64) * step <= times).astype(np.int64)
    b -= (b.astype(np.float64) * step > times).astype(np.int64)
    return b


def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal adjacent values in non-empty
    ``keys``."""
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def _reduce_buckets(times: np.ndarray, values: np.ndarray, step: float):
    """Reduce sorted, non-empty samples into their tier buckets:
    ``(idx, sum, min, max, cnt)`` over the non-empty buckets.

    Same sequential-reduceat kernels over the same per-bucket sample
    slices the query path reduces: per-bucket bit identity.
    """
    buckets = _buckets_of(times, step)
    starts = _segment_starts(buckets)
    cnt = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=cnt[:-1])
    cnt[-1] = times.size - starts[-1]
    return (
        buckets[starts],
        np.add.reduceat(values, starts),
        np.minimum.reduceat(values, starts),
        np.maximum.reduceat(values, starts),
        cnt,
    )


class _TierSeries:
    """One (series, tier) pair: sparse finalized buckets + a cursor.

    Buckets are stored as parallel geometric-growth arrays keyed by int64
    bucket index (strictly increasing; only non-empty buckets exist).
    ``cursor`` is the exclusive end of the finalized index range: every
    bucket below it is immutable, everything at or above it must be
    answered from raw.
    """

    __slots__ = ("step", "cursor", "_idx", "_sum", "_min", "_max", "_cnt",
                 "_size")

    def __init__(self, step: float):
        self.step = step
        self.cursor: Optional[int] = None
        self._idx = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._sum = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._min = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._max = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._cnt = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        """Allocated bytes of the five columns, growth slack included."""
        return self._idx.shape[0] * _ROW_BYTES

    @property
    def idx(self) -> np.ndarray:
        return self._idx[: self._size]

    def column(self, field: str) -> np.ndarray:
        return getattr(self, "_" + field)[: self._size]

    def _grow(self, needed: int) -> None:
        capacity = self._idx.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        for attr in ("_idx", "_sum", "_min", "_max", "_cnt"):
            old = getattr(self, attr)
            new = np.empty(new_capacity, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, attr, new)

    def extend(self, idx, sums, mins, maxs, cnts) -> None:
        n = idx.size
        if n == 0:
            return
        if self._size and idx[0] <= self._idx[self._size - 1]:
            raise StoreError(
                f"rollup tier {self.step}: non-monotonic bucket extend"
            )
        end = self._size + n
        self._grow(end)
        self._idx[self._size : end] = idx
        self._sum[self._size : end] = sums
        self._min[self._size : end] = mins
        self._max[self._size : end] = maxs
        self._cnt[self._size : end] = cnts
        self._size = end

    # -- persistence glue ----------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "idx": self.idx.copy(),
            "sum": self.column("sum").copy(),
            "min": self.column("min").copy(),
            "max": self.column("max").copy(),
            "cnt": self.column("cnt").copy(),
        }

    def restore(self, cursor: int, arrays: Dict[str, np.ndarray]) -> None:
        if self._size:
            raise StoreError("cannot restore into a non-empty rollup tier")
        self.cursor = int(cursor)
        self.extend(
            np.asarray(arrays["idx"], dtype=np.int64),
            np.asarray(arrays["sum"], dtype=np.float64),
            np.asarray(arrays["min"], dtype=np.float64),
            np.asarray(arrays["max"], dtype=np.float64),
            np.asarray(arrays["cnt"], dtype=np.int64),
        )


class RollupEngine:
    """Incremental rollup maintenance plus the tier-serving query planner."""

    def __init__(self, raw_answerable: bool = False):
        """``raw_answerable`` says the owner keeps raw history answerable
        for good (an archive, or no retention); only then are tiers
        materialised by cadence, otherwise every series keeps every tier
        of :data:`TIER_STEPS`."""
        self._raw_answerable = raw_answerable
        # Materialised tiers per decided series, finest first.
        self._series: Dict[str, List[_TierSeries]] = {}
        self.buckets_finalized = 0
        self.buckets_repaired = 0
        self.buckets_served = 0
        self.tier_hits = 0
        self.partial_hits = 0
        self.raw_fallbacks = 0

    # ------------------------------------------------------------------
    # Maintenance (mutation epilogue)
    # ------------------------------------------------------------------
    def observe(
        self, name: str, t_first: float, t_last: float, read: Callable
    ) -> None:
        """Finalize every tier bucket completed by data up to ``t_last``.

        ``read(name, since, until)`` is the owner's maintenance read: the
        series' samples in ``[since, until]``, cold included and retention
        *not* enforced (finalization reads samples about to be trimmed —
        that pre-trim read is what makes rollups long-horizon memory).
        The first calls decide which tiers the series materialises (see
        the module docstring).  ``t_first`` (the series' overall first
        timestamp, cold included) seeds the cursors so the empty eternity
        before a series began is never materialized.  A bucket is complete exactly
        when its end edge is ``<= t_last``: appends must land at or after
        ``t_last``, and a last-writer-wins overwrite *at* ``t_last`` only
        touches the (never finalized) bucket holding ``t_last`` itself.
        """
        if not (math.isfinite(t_first) and math.isfinite(t_last)):
            return
        tiers = self._series.get(name)
        fetched = None
        if tiers is None:
            steps = TIER_STEPS
            if self._raw_answerable:
                # Decide the tier set from the series' own cadence; the
                # whole-history fetch then also feeds the first finalize.
                fetched = read(name, t_first, t_last)
                if len(fetched[0]) < CADENCE_SAMPLES:
                    return
                cadence = statistics.median(
                    np.diff(fetched[0][:CADENCE_SAMPLES]).tolist()
                )
                steps = [s for s in steps if s >= SUMMARY_FACTOR * cadence]
            tiers = self._series[name] = [_TierSeries(s) for s in steps]
        due = []
        for ts in tiers:
            if ts.cursor is None:
                ts.cursor = _bucket_of(t_first, ts.step)
            new_cursor = _bucket_of(t_last, ts.step)
            if new_cursor > ts.cursor:
                due.append((ts, new_cursor))
        if not due:
            return
        if fetched is None:
            # One fetch covers every due tier: lowest cursor edge to
            # highest new edge.
            fetched = read(
                name,
                min(ts.cursor * ts.step for ts, _ in due),
                max(c * ts.step for ts, c in due),
            )
        times = np.asarray(fetched[0], dtype=np.float64)
        values = np.asarray(fetched[1], dtype=np.float64)
        for ts, new_cursor in due:
            self._finalize(ts, new_cursor, times, values)

    def _finalize(
        self,
        ts: _TierSeries,
        new_cursor: int,
        times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Finalize ``ts`` up to ``new_cursor`` from sorted samples that
        cover its cursor edge through the new cursor edge."""
        s = ts.step
        # Tier buckets are half-open, so a sample exactly at the new cursor
        # edge stays un-finalized.
        lo, hi = times.searchsorted((ts.cursor * s, new_cursor * s))
        ts.cursor = new_cursor
        if hi <= lo:
            return
        reduced = _reduce_buckets(times[lo:hi], values[lo:hi], s)
        ts.extend(*reduced)
        self.buckets_finalized += int(reduced[0].size)

    def repair(self, name: str, since: float, until: float, read: Callable) -> int:
        """Recompute finalized buckets overlapping ``[since, until)`` from
        the owner's maintenance ``read`` (as for :meth:`observe`).

        Anti-entropy repair splices raw samples *below* the tier cursors —
        territory :meth:`observe` treats as immutable — so the affected
        bucket rows must be rebuilt from the repaired raw data or tier-served
        queries would keep answering from the pre-repair aggregates.
        Returns the number of bucket rows rewritten (including rows added
        or removed by the repair).
        """
        tiers = self._series.get(name)
        if tiers is None:
            return 0
        patched = 0
        for ts in tiers:
            if ts.cursor is None:
                continue
            s = ts.step
            lo = _bucket_of(since, s)
            hi = _bucket_of(until, s)
            if until == hi * s:
                hi -= 1
            hi = min(hi, ts.cursor - 1)
            if hi < lo:
                continue
            lo_edge, hi_edge = lo * s, (hi + 1) * s
            times, values = read(name, lo_edge, hi_edge)
            times = np.asarray(times, dtype=np.float64)
            values = np.asarray(values, dtype=np.float64)
            keep = slice(
                int(np.searchsorted(times, lo_edge, side="left")),
                int(np.searchsorted(times, hi_edge, side="left")),
            )
            times, values = times[keep], values[keep]
            if times.size:
                new_cols = _reduce_buckets(times, values, s)
            else:
                new_cols = (np.empty(0, dtype=np.int64),) * 5
            pos_lo = int(np.searchsorted(ts.idx, lo, side="left"))
            pos_hi = int(np.searchsorted(ts.idx, hi, side="right"))
            for attr, new_col in zip(
                ("_idx", "_sum", "_min", "_max", "_cnt"), new_cols
            ):
                old = getattr(ts, attr)
                setattr(ts, attr, np.concatenate(
                    (old[:pos_lo], new_col.astype(old.dtype), old[pos_hi:ts._size])
                ))
            ts._size = ts._idx.size
            patched += max(pos_hi - pos_lo, int(new_cols[0].size))
        self.buckets_repaired += patched
        return patched

    # ------------------------------------------------------------------
    # Planner (query path)
    # ------------------------------------------------------------------
    def serve(
        self, name: str, step: float, agg: str, edges: np.ndarray
    ) -> Optional[np.ndarray]:
        """The tier-served prefix of the buckets of ``edges``, from the
        coarsest sufficient tier.

        Returns the values of the leading buckets whose every underlying
        tier bucket is finalized — never the final one, whose closed upper
        bound only raw can answer — or ``None`` when no tier is eligible.
        The owner reduces the remaining buckets from raw samples.
        """
        if agg not in SERVABLE_AGGREGATIONS:
            return None
        tiers = self._series.get(name)
        n = int(edges.size) - 1
        if tiers is None or n < 2:
            return None
        for ts in reversed(tiers):  # coarsest tier first
            if ts.cursor is None:
                continue
            s = ts.step
            if math.fmod(step, s) != 0.0:
                continue
            k = int(round(step / s))
            if k < 1 or (k != 1 and agg not in _COMBINABLE):
                continue
            if np.any(np.fmod(edges, s) != 0.0):
                continue
            # Exact integer tier index of every edge (edges are exact
            # multiples of s, so the division is exact).
            m = np.rint(edges / s).astype(np.int64)
            # Servable prefix: every underlying tier bucket finalized, and
            # never the final query bucket (closed upper bound → raw).
            served = int(np.searchsorted(m[1:], ts.cursor, side="right"))
            served = min(served, n - 1)
            if served <= 0:
                continue
            out = np.full(served, np.nan)
            self._fill(ts, agg, m, k, served, out)
            if served == n - 1:
                self.tier_hits += 1
            else:
                self.partial_hits += 1
            self.buckets_served += served
            return out
        self.raw_fallbacks += 1
        return None

    def _fill(
        self,
        ts: _TierSeries,
        agg: str,
        m: np.ndarray,
        k: int,
        served: int,
        out: np.ndarray,
    ) -> None:
        idx = ts.idx
        lo = int(np.searchsorted(idx, m[0]))
        hi = int(np.searchsorted(idx, m[served]))
        if hi <= lo:
            return  # no stored buckets in range: all gaps stay NaN
        window = idx[lo:hi]
        if k == 1:
            pos = (window - m[0]).astype(np.intp)
            if agg == "mean":
                out[pos] = ts.column("sum")[lo:hi] / ts.column("cnt")[lo:hi]
            elif agg == "sum":
                out[pos] = ts.column("sum")[lo:hi]
            elif agg == "min":
                out[pos] = ts.column("min")[lo:hi]
            elif agg == "max":
                out[pos] = ts.column("max")[lo:hi]
            else:
                out[pos] = ts.column("cnt")[lo:hi].astype(np.float64)
            return
        # k finer buckets per query bucket: ordered grouping preserves the
        # sequential reduction (associative aggs only — planner-gated).
        q = (window - m[0]) // k
        starts = _segment_starts(q)
        pos = q[starts].astype(np.intp)
        if agg == "count":
            out[pos] = np.add.reduceat(
                ts.column("cnt")[lo:hi], starts
            ).astype(np.float64)
        elif agg == "min":
            out[pos] = np.minimum.reduceat(ts.column("min")[lo:hi], starts)
        else:
            out[pos] = np.maximum.reduceat(ts.column("max")[lo:hi], starts)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def series_tracked(self) -> int:
        return len(self._series)

    def _tiers(self):
        return (ts for tiers in self._series.values() for ts in tiers)

    @property
    def rows(self) -> int:
        """Finalized bucket rows across every materialised tier."""
        return sum(len(ts) for ts in self._tiers())

    @property
    def resident_bytes(self) -> int:
        """Bytes allocated for tier rows, growth slack included."""
        return sum(ts.nbytes for ts in self._tiers())

    def names(self) -> List[str]:
        return sorted(self._series)

    def cursor_time(self, name: str, step: float) -> Optional[float]:
        """Finalized-through timestamp of one tier (None if the series is
        untracked or that tier is not materialised for it)."""
        for ts in self._series.get(name, ()):
            if ts.step == step and ts.cursor is not None:
                return ts.cursor * ts.step
        return None

    def tier_state(self, name: str) -> List[Tuple[float, int, Dict[str, np.ndarray]]]:
        """Snapshot [(step, cursor, arrays), ...] for persistence."""
        out = []
        for ts in self._series.get(name, ()):
            if ts.cursor is None:
                continue
            out.append((ts.step, ts.cursor, ts.arrays()))
        return out

    def restore(
        self,
        name: str,
        state: List[Tuple[float, int, Dict[str, np.ndarray]]],
    ) -> None:
        """Re-install a persisted snapshot for ``name``.

        Saved tiers whose step is not in :data:`TIER_STEPS` are dropped.
        Where tiers are materialised by cadence, the snapshot's tiers are
        the series' tier set: a tier it lacks was not materialised and
        stays absent.  A snapshot from before tiers were gated holds every
        tier and is installed as saved: the answers are the same, but such
        a series keeps its non-summarising tiers.  Otherwise tiers missing
        from the snapshot start fresh and self-heal from (cold-aware) raw
        on the next observe.
        """
        saved = {float(step): (cursor, arrays) for step, cursor, arrays in state}
        tiers = self._series.get(name)
        if tiers is None:
            steps = TIER_STEPS
            if self._raw_answerable:
                steps = [s for s in steps if s in saved]
                if not steps:
                    return  # decided from the data on the next observe
            tiers = self._series[name] = [_TierSeries(s) for s in steps]
        for ts in tiers:
            if ts.step in saved and ts.cursor is None:
                ts.restore(*saved[ts.step])

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``telemetry.rollup.*`` subtree, built on
        each access: every instrument reads through to the engine."""
        r = MetricsRegistry()
        r.gauge("telemetry.rollup.series_tracked",
                "series with rollup cascades",
                fn=lambda: float(self.series_tracked))
        r.gauge("telemetry.rollup.rows",
                "finalized bucket rows across materialised tiers",
                fn=lambda: float(self.rows))
        r.gauge("telemetry.rollup.resident_bytes",
                "bytes allocated for tier rows",
                fn=lambda: float(self.resident_bytes))
        r.counter("telemetry.rollup.buckets_finalized",
                  "tier buckets finalized",
                  fn=lambda: float(self.buckets_finalized))
        r.counter("telemetry.rollup.buckets_served",
                  "query buckets answered from tiers",
                  fn=lambda: float(self.buckets_served))
        r.counter("telemetry.rollup.tier_hits",
                  "queries fully tier-served (bar the final bucket)",
                  fn=lambda: float(self.tier_hits))
        r.counter("telemetry.rollup.partial_hits",
                  "queries spliced from tier prefix + raw tail",
                  fn=lambda: float(self.partial_hits))
        r.counter("telemetry.rollup.raw_fallbacks",
                  "planner consultations that fell back to raw",
                  fn=lambda: float(self.raw_fallbacks))
        r.counter("telemetry.rollup.buckets_repaired",
                  "tier buckets rebuilt after anti-entropy repair",
                  fn=lambda: float(self.buckets_repaired))
        return r

    def health_counters(self) -> Dict[str, float]:
        return self.metrics.snapshot()
