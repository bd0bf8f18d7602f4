"""Materialized downsample cascades (rollups) with a tier-serving planner.

DCDB Wintermute (PAPERS.md) keeps online ODA queries fast over months of
telemetry by maintaining pre-aggregated views next to the raw store.  This
module is that design for our stack: every series gets a cascade of
downsample tiers (e.g. 10s → 1m → 1h) of ``sum/min/max/count`` (``mean``
is derived as ``sum/count``), maintained **incrementally** at ingest/flush
time, and a query planner that transparently serves ``resample``/``align``
buckets from the coarsest sufficient tier, falling back to raw.

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

Rollup tiers are never trimmed: they are the long-horizon memory that
outlives raw retention (the paper's month-scale use case).  Once raw
samples age out of an archive-less retention window, a tier keeps serving
the history raw can no longer answer.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError
from repro.obs.metrics import MetricsRegistry

__all__ = ["RollupConfig", "RollupEngine", "SERVABLE_AGGREGATIONS"]

#: Aggregations the planner can serve from a tier (must have vectorized
#: kernels in :data:`repro.telemetry.store.VECTORIZED_AGGREGATIONS`).
SERVABLE_AGGREGATIONS = ("mean", "min", "max", "sum", "count")

#: Aggregations whose per-bucket values may be combined across k adjacent
#: tier buckets (associative under ordered grouping / exact integers).
_COMBINABLE = ("min", "max", "count")

_INITIAL_CAPACITY = 32

#: (times, values) provider over ``[since, until]`` (closed), cold-aware.
FetchFn = Callable[[str, float, float], Tuple[np.ndarray, np.ndarray]]


class RollupConfig:
    """Downsample cascade tuning (picklable; ships to worker processes).

    Parameters
    ----------
    steps:
        Tier bucket widths in seconds, strictly increasing.  The classic
        cascade is ``(10.0, 60.0, 3600.0)``.
    """

    def __init__(self, steps: Sequence[float] = (10.0, 60.0, 3600.0)):
        steps = tuple(float(s) for s in steps)
        if not steps:
            raise StoreError("rollup config needs at least one tier step")
        for s in steps:
            if not (s > 0.0 and math.isfinite(s)):
                raise StoreError(f"rollup steps must be positive, got {s}")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise StoreError(
                f"rollup steps must be strictly increasing, got {steps}"
            )
        self.steps = steps

    def to_dict(self) -> dict:
        return {"steps": list(self.steps)}

    @classmethod
    def from_dict(cls, d: dict) -> "RollupConfig":
        return cls(steps=tuple(d.get("steps", (10.0, 60.0, 3600.0))))


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

    def __init__(
        self,
        config: Optional[RollupConfig],
        fetch: FetchFn,
        query_fetch: Optional[FetchFn] = None,
    ):
        """``fetch`` feeds maintenance and must return the series' data
        *without* enforcing retention (finalization reads samples about to
        be trimmed — that pre-trim read is what makes rollups long-horizon
        memory).  ``query_fetch`` (default: ``fetch``) feeds the planner's
        raw tail and must have exactly the query path's semantics,
        retention enforcement included, so spliced tails are bit-identical
        to a pure-raw query."""
        self.config = config or RollupConfig()
        self._fetch = fetch
        self._query_fetch = query_fetch if query_fetch is not None else fetch
        self._series: Dict[str, List[_TierSeries]] = {}
        self.buckets_finalized = 0
        self.buckets_repaired = 0
        self.buckets_served = 0
        self.tier_hits = 0
        self.partial_hits = 0
        self.raw_fallbacks = 0
        self._metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------
    # Maintenance (mutation epilogue)
    # ------------------------------------------------------------------
    def observe(self, name: str, t_first: float, t_last: float) -> None:
        """Finalize every tier bucket completed by data up to ``t_last``.

        ``t_first`` (the series' overall first timestamp, cold included)
        seeds the cursor on first contact so the empty eternity before a
        series began is never materialized.  A bucket is complete exactly
        when its end edge is ``<= t_last``: appends must land at or after
        ``t_last``, and a last-writer-wins overwrite *at* ``t_last`` only
        touches the (never finalized) bucket holding ``t_last`` itself.
        """
        if not (math.isfinite(t_first) and math.isfinite(t_last)):
            return
        tiers = self._series.get(name)
        if tiers is None:
            tiers = self._series[name] = [
                _TierSeries(s) for s in self.config.steps
            ]
        for ts in tiers:
            if ts.cursor is None:
                ts.cursor = _bucket_of(t_first, ts.step)
            new_cursor = _bucket_of(t_last, ts.step)
            if new_cursor > ts.cursor:
                self._finalize(name, ts, new_cursor)

    def _finalize(self, name: str, ts: _TierSeries, new_cursor: int) -> None:
        s = ts.step
        lo_edge = ts.cursor * s
        hi_edge = new_cursor * s
        times, values = self._fetch(name, lo_edge, hi_edge)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        # The fetch interval is closed; the bucket ending at hi_edge is
        # half-open, so a sample exactly at hi_edge stays un-finalized.
        cut = int(np.searchsorted(times, hi_edge, side="left"))
        times, values = times[:cut], values[:cut]
        ts.cursor = new_cursor
        if not times.size:
            return
        buckets = _buckets_of(times, s)
        starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
        ends = np.r_[starts[1:], times.size]
        idx = buckets[starts]
        # Same sequential-reduceat kernels over the same per-bucket sample
        # slices the query path reduces — per-bucket bit identity.
        ts.extend(
            idx,
            np.add.reduceat(values, starts),
            np.minimum.reduceat(values, starts),
            np.maximum.reduceat(values, starts),
            (ends - starts).astype(np.int64),
        )
        self.buckets_finalized += int(idx.size)

    def repair(self, name: str, since: float, until: float) -> int:
        """Recompute finalized buckets overlapping ``[since, until)``.

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
            times, values = self._fetch(name, lo_edge, hi_edge)
            times = np.asarray(times, dtype=np.float64)
            values = np.asarray(values, dtype=np.float64)
            keep = slice(
                int(np.searchsorted(times, lo_edge, side="left")),
                int(np.searchsorted(times, hi_edge, side="left")),
            )
            times, values = times[keep], values[keep]
            if times.size:
                buckets = _buckets_of(times, s)
                starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
                ends = np.r_[starts[1:], times.size]
                new_idx = buckets[starts]
                new_sum = np.add.reduceat(values, starts)
                new_min = np.minimum.reduceat(values, starts)
                new_max = np.maximum.reduceat(values, starts)
                new_cnt = (ends - starts).astype(np.int64)
            else:
                new_idx = np.empty(0, dtype=np.int64)
                new_sum = new_min = new_max = np.empty(0, dtype=np.float64)
                new_cnt = np.empty(0, dtype=np.int64)
            pos_lo = int(np.searchsorted(ts.idx, lo, side="left"))
            pos_hi = int(np.searchsorted(ts.idx, hi, side="right"))
            for attr, new_col in (
                ("_idx", new_idx), ("_sum", new_sum), ("_min", new_min),
                ("_max", new_max), ("_cnt", new_cnt),
            ):
                old = getattr(ts, attr)
                setattr(ts, attr, np.concatenate(
                    (old[:pos_lo], new_col.astype(old.dtype), old[pos_hi:ts._size])
                ))
            ts._size = ts._idx.size
            patched += max(pos_hi - pos_lo, int(new_idx.size))
        self.buckets_repaired += patched
        return patched

    # ------------------------------------------------------------------
    # Planner (query path)
    # ------------------------------------------------------------------
    def serve(
        self,
        name: str,
        since: float,
        until: float,
        step: float,
        agg: str,
        edges: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Serve the buckets of ``edges`` from the coarsest sufficient
        tier, splicing a raw-computed tail for unfinalized/final buckets.

        Returns the full per-bucket value array, or ``None`` when no tier
        is eligible (caller runs the raw path unchanged).
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
            if math.fmod(since, s) != 0.0:
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
            out = np.full(n, np.nan)
            self._fill(ts, agg, m, k, served, out)
            # Raw tail: identical fetch + kernel segmentation to what the
            # pure-raw path would run over these trailing edges.
            from repro.telemetry.store import resample_onto

            t_sub, v_sub = self._query_fetch(
                name, float(edges[served]), until
            )
            out[served:] = resample_onto(
                np.asarray(t_sub, dtype=np.float64),
                np.asarray(v_sub, dtype=np.float64),
                edges[served:], agg,
            )
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
        starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
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

    def names(self) -> List[str]:
        return sorted(self._series)

    def cursor_time(self, name: str, step: float) -> Optional[float]:
        """Finalized-through timestamp of one tier (None if untracked)."""
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

        Saved tiers whose step no longer exists in the config are dropped;
        configured tiers missing from the snapshot start fresh and
        self-heal from (cold-aware) raw on the next observe.
        """
        tiers = self._series.get(name)
        if tiers is None:
            tiers = self._series[name] = [
                _TierSeries(s) for s in self.config.steps
            ]
        by_step = {ts.step: ts for ts in tiers}
        for step, cursor, arrays in state:
            ts = by_step.get(float(step))
            if ts is not None and ts.cursor is None:
                ts.restore(cursor, arrays)

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``telemetry.rollup.*`` subtree."""
        if self._metrics is None:
            r = MetricsRegistry()
            r.gauge("telemetry.rollup.series_tracked",
                    "series with rollup cascades",
                    fn=lambda: float(self.series_tracked))
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
            self._metrics = r
        return self._metrics

    def health_counters(self) -> Dict[str, float]:
        return self.metrics.snapshot()
