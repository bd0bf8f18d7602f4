"""Columnar in-memory time-series store.

The store is the archive tier of the telemetry pipeline: every metric gets
an append-only pair of NumPy arrays (timestamps, values) that grow
geometrically and are queried by binary search.  Reads return **views** onto
the underlying buffers (no copies — see the hpc-parallel guides), so
analytics over long windows are zero-copy until they explicitly transform.

Features mirrored from production HPC monitoring databases (DCDB/KairosDB,
LDMS+DSOS, Prometheus):

* last-writer-wins ingest from the message bus,
* staged batch ingest: a bus batch is checked as a whole and lands as one
  row of a columnar block kept per batch shape, flushed to the per-series
  arrays every :data:`FLUSH_THRESHOLD` rows, when another write touches one
  of its series, or before any read (so queries always see every sample);
  journal replay and the parallel runtime's shard workers stage the same way,
* amortized retention: instead of sweeping every series on each new
  timestamp, a series is trimmed when its stale fraction reaches
  :data:`RETENTION_SLACK` (plus one round-robin peer per flush, so cold
  series are eventually reclaimed too); reads enforce the exact cutoff for
  the series being read,
* time-range queries,
* downsampling/resampling with standard aggregations — the common ones
  (``mean/min/max/sum/count/first/last``) run as vectorized ``reduceat``
  kernels keyed off a single ``searchsorted``,
* multi-metric alignment onto a common time grid (the input shape every
  multivariate analytics model wants), computing the bucket-edge grid once
  and sharing it across all series,
* optional retention limit per series.

Thread safety: because *reads mutate* (flush-on-read moves staged samples
into the columnar arrays, and reads enforce the exact retention cutoff),
every public entry point — ingest and query alike — takes one per-store
reentrant lock.  This is what lets the serving front door
(:mod:`repro.telemetry.serving`) run a pool of reader threads against a
store that a collector thread is still ingesting into.  Note that ``query``
returns *views*; a caller that holds a view across subsequent ingest may
observe retention compaction.  Consumers that cache results (the serving
result cache) copy under the lock.
"""

from __future__ import annotations

import fnmatch
import os
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, StoreError, UnknownMetricError
from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.archive import ArchiveTier
from repro.telemetry.durability import (
    RecoveryStats,
    WriteAheadJournal,
    iter_records,
    window_checksums as _window_checksums,
)
from repro.telemetry.rollup import RollupEngine
from repro.telemetry.sample import SampleBatch

__all__ = [
    "SeriesBuffer",
    "TimeSeriesStore",
    "AGGREGATIONS",
    "VECTORIZED_AGGREGATIONS",
    "align_columns",
    "bucket_edges",
    "resample_onto",
    "forward_fill",
    "check_resample_args",
    "check_tier_switches",
    "FLUSH_THRESHOLD",
    "RETENTION_SLACK",
]

#: Rows per staged batch shape at which the shape's block is flushed to the
#: columnar arrays.  Reads flush implicitly, so this only sets ingest
#: chunking, never visibility.
FLUSH_THRESHOLD = 256

#: Stale fraction of a series at which the ingest path compacts it to the
#: retention window (``0.0`` would trim eagerly on every flush).
RETENTION_SLACK = 0.25


def _rate(values: np.ndarray) -> float:
    """Aggregation helper: total increase across the bucket (for counters).

    Reset-aware: a counter that resets mid-bucket (process restart, wrap)
    shows a negative step; like Prometheus' ``increase``, the post-reset
    value is taken as the increment from zero, so the total never goes
    negative from a reset.
    """
    if values.size < 2:
        return 0.0
    deltas = np.diff(values)
    resets = deltas < 0
    if resets.any():
        deltas = deltas.copy()
        deltas[resets] = values[1:][resets]
    return float(deltas.sum())


#: Named aggregation functions usable in :meth:`TimeSeriesStore.resample`.
#: These scalar callables are the semantic reference; where a vectorized
#: kernel exists (:data:`VECTORIZED_AGGREGATIONS`) it must agree with them.
AGGREGATIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(np.mean(v)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "sum": lambda v: float(np.sum(v)),
    "last": lambda v: float(v[-1]),
    "first": lambda v: float(v[0]),
    "std": lambda v: float(np.std(v)),
    "median": lambda v: float(np.median(v)),
    "count": lambda v: float(v.size),
    "p95": lambda v: float(np.percentile(v, 95)),
    "rate": _rate,
}


# Vectorized bucket kernels.  Each receives the in-range ``values`` plus the
# start/end sample index of every *non-empty* bucket (strictly increasing
# starts, ends[-1] == values.size) and returns one value per bucket.  Empty
# buckets never reach a kernel — the caller leaves them NaN.  That holds for
# ``count`` and ``sum`` too: a gap bucket is "no data" (NaN), never 0, in
# the per-bucket loop, the kernels AND the rollup tier-serving path
# (a materialized tier with no bucket at a position fills NaN) — the three
# must stay in lockstep or tier-served answers diverge from raw on gaps.  Consecutive
# non-empty buckets are contiguous through any empty buckets between them
# (empty buckets have zero width in sample space), which is exactly the
# segment layout ``reduceat`` reduces over.
VECTORIZED_AGGREGATIONS: Dict[str, Callable[..., np.ndarray]] = {
    "sum": lambda v, s, e: np.add.reduceat(v, s),
    "mean": lambda v, s, e: np.add.reduceat(v, s) / (e - s),
    "min": lambda v, s, e: np.minimum.reduceat(v, s),
    "max": lambda v, s, e: np.maximum.reduceat(v, s),
    "count": lambda v, s, e: (e - s).astype(np.float64),
    "first": lambda v, s, e: v[s],
    "last": lambda v, s, e: v[e - 1],
}

_INITIAL_CAPACITY = 64

#: Bound on the per-store cache of compiled ``select`` patterns.
_SELECT_CACHE_CAP = 256


# ---------------------------------------------------------------------------
# Resample kernels, shared by TimeSeriesStore and the federated query layer
# (repro.telemetry.distributed): any engine that can produce the in-range
# (times, values) of a series reuses exactly these functions, so single-store
# and sharded/federated results are bit-for-bit identical by construction.
# ---------------------------------------------------------------------------
def bucket_edges(since: float, until: float, step: float) -> np.ndarray:
    """Bucket-edge grid for ``[since, until]`` in steps of ``step``."""
    n_buckets = int(np.ceil((until - since) / step - 1e-9))
    return since + np.arange(n_buckets + 1) * step


def align_columns(
    names: Sequence[str],
    since: float,
    until: float,
    step: float,
    agg: str,
    fill: str,
    column: Callable[[str, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """The body of every ``align``: validate, build one bucket-edge grid,
    and stack one column per series, forward-filled under ``"ffill"``.

    ``column(name, edges)`` yields a series' per-bucket values; the single
    store and the federated engine differ only in where it comes from.
    """
    if fill not in ("ffill", "nan"):
        raise StoreError(f"unknown fill mode {fill!r}")
    check_resample_args(step, agg)
    if until <= since or not names:
        return np.empty(0), np.empty((0, len(names)))
    edges = bucket_edges(since, until, step)
    columns = []
    for name in names:
        v = column(name, edges)
        if fill == "ffill":
            v = forward_fill(v)
        columns.append(v)
    return edges[:-1], np.column_stack(columns)


def check_resample_args(step: float, agg: str) -> None:
    """Validate shared resample/align arguments."""
    if step <= 0:
        raise StoreError(f"step must be positive, got {step}")
    if agg not in AGGREGATIONS:
        raise StoreError(
            f"unknown aggregation {agg!r}; valid: {sorted(AGGREGATIONS)}"
        )


def check_tier_switches(rollups, archive) -> None:
    """Refuse a ``rollups``/``archive`` argument that is not a bool."""
    for kind, value in (("rollups", rollups), ("archive", archive)):
        if not isinstance(value, bool):
            raise ConfigurationError(
                f"{kind} must be a bool, got {type(value).__name__}"
            )


def resample_onto(
    times: np.ndarray,
    values: np.ndarray,
    edges: np.ndarray,
    agg: str,
) -> np.ndarray:
    """Aggregate in-range samples onto the buckets defined by ``edges``.

    The caller guarantees ``times`` is already restricted to the query range
    (the final edge absorbs every remaining sample, so a closed upper bound
    works).  Empty buckets yield NaN.  Aggregations with a ``reduceat``
    kernel (:data:`VECTORIZED_AGGREGATIONS`) use it; the rest
    (``std/median/p95/rate``) reduce bucket by bucket.
    """
    out = np.full(edges.size - 1, np.nan)
    if not times.size:
        return out
    # One searchsorted keys every kernel: sample index of each edge.
    idx = np.searchsorted(times, edges)
    # The query is already capped at `until`, so the (possibly partial)
    # final bucket absorbs every remaining sample.
    idx[-1] = times.size
    starts = idx[:-1]
    ends = idx[1:]
    kernel = VECTORIZED_AGGREGATIONS.get(agg)
    if kernel is not None:
        nonempty = ends > starts
        if nonempty.any():
            out[nonempty] = kernel(values, starts[nonempty], ends[nonempty])
        return out
    agg_fn = AGGREGATIONS[agg]
    for i in range(out.size):
        lo, hi = starts[i], ends[i]
        if hi > lo:
            out[i] = agg_fn(values[lo:hi])
    return out


def forward_fill(v: np.ndarray) -> np.ndarray:
    """Vectorized forward fill of NaNs; leading NaNs stay NaN."""
    if not v.size:
        return v
    mask = np.isnan(v)
    if not mask.any():
        return v
    idx = np.where(~mask, np.arange(v.size), 0)
    np.maximum.accumulate(idx, out=idx)
    v = v[idx]
    if mask[0]:
        first_valid = int(np.argmax(~mask)) if (~mask).any() else v.size
        v[:first_valid] = np.nan
    return v


class SeriesBuffer:
    """Append-only (time, value) series with geometric growth.

    Timestamps must be non-decreasing; equal timestamps overwrite in place
    (last writer wins), which is how repeated publishes of the same scrape
    behave in real stores.
    """

    def __init__(self, name: str, capacity: int = _INITIAL_CAPACITY):
        self.name = name
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __reduce__(self):
        # Pickled (a shard worker's reply), a buffer ships its samples, not
        # its spare capacity.
        return _buffer_of, (self.name, self.times, self.values)

    @property
    def times(self) -> np.ndarray:
        """View of the stored timestamps (do not mutate)."""
        return self._times[: self._size]

    @property
    def values(self) -> np.ndarray:
        """View of the stored values (do not mutate)."""
        return self._values[: self._size]

    def _grow(self, needed: int) -> None:
        capacity = self._times.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        for attr in ("_times", "_values"):
            old = getattr(self, attr)
            new = np.empty(new_capacity, dtype=np.float64)
            new[: self._size] = old[: self._size]
            setattr(self, attr, new)

    def append(self, time: float, value: float) -> None:
        """Append one sample; overwrite if ``time`` equals the last sample."""
        if self._size and time < self._times[self._size - 1]:
            raise StoreError(
                f"series {self.name}: out-of-order append at t={time} "
                f"(last t={self._times[self._size - 1]})"
            )
        if self._size and time == self._times[self._size - 1]:
            self._values[self._size - 1] = value
            return
        self._grow(self._size + 1)
        self._times[self._size] = time
        self._values[self._size] = value
        self._size += 1

    def append_many(self, times: np.ndarray, values: np.ndarray) -> None:
        """Vectorized bulk append of already-sorted samples.

        Must start at or after the last stored timestamp.  Equal timestamps
        keep one sample, the last writer's — within the batch and against
        the last stored sample alike — matching :meth:`append` applied
        sample by sample.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise StoreError("append_many arrays must be 1-D and equal length")
        if times.size == 0:
            return
        steps = np.diff(times)
        if not (steps > 0).all():
            if np.any(steps < 0):
                raise StoreError(
                    f"series {self.name}: times must be non-decreasing"
                )
            keep = np.append(steps != 0, True)  # the last of each equal run
            times, values = times[keep], values[keep]
        if self._size:
            last = self._times[self._size - 1]
            if times[0] < last:
                raise StoreError(
                    f"series {self.name}: bulk append must start at or after "
                    f"the last sample (t={times[0]} < last t={last})"
                )
            head = int(np.searchsorted(times, last, side="right"))
            if head:
                # Leading samples share the last stored timestamp: collapse
                # them onto it, keeping the final writer's value.
                self._values[self._size - 1] = values[head - 1]
                times = times[head:]
                values = values[head:]
                if times.size == 0:
                    return
        self._grow(self._size + times.size)
        self._times[self._size : self._size + times.size] = times
        self._values[self._size : self._size + times.size] = values
        self._size += times.size

    def range(self, since: float, until: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return (times, values) views for samples with ``since <= t <= until``."""
        lo = int(np.searchsorted(self.times, since, side="left"))
        hi = int(np.searchsorted(self.times, until, side="right"))
        return self._times[lo:hi], self._values[lo:hi]

    def latest(self) -> Tuple[float, float]:
        """The most recent (time, value); raises if empty."""
        if not self._size:
            raise StoreError(f"series {self.name} is empty")
        i = self._size - 1
        return float(self._times[i]), float(self._values[i])

    def value_at(self, time: float) -> float:
        """Last-observation-carried-forward value at ``time``.

        Raises :class:`StoreError` if ``time`` precedes the first sample.
        """
        idx = int(np.searchsorted(self.times, time, side="right")) - 1
        if idx < 0:
            raise StoreError(
                f"series {self.name}: no sample at or before t={time}"
            )
        return float(self._values[idx])

    def trim_before(self, cutoff: float) -> int:
        """Drop samples strictly older than ``cutoff``; returns count dropped.

        Compacts in place so the buffer does not grow without bound under a
        retention policy.
        """
        lo = int(np.searchsorted(self.times, cutoff, side="left"))
        if lo == 0:
            return 0
        keep = self._size - lo
        self._times[:keep] = self._times[lo : self._size]
        self._values[:keep] = self._values[lo : self._size]
        self._size = keep
        return lo


def _buffer_of(name: str, times: np.ndarray, values: np.ndarray) -> SeriesBuffer:
    buf = SeriesBuffer(name, capacity=max(1, times.size))
    buf.append_many(times, values)
    return buf


class _Block:
    """Columnar staging for one batch shape: a time column + a row matrix.

    Every staged row covers every series of the shape, so the last staged
    time is each of those series' last time — the only ordering check a
    staged ingest needs.  A name repeated inside one batch keeps its last
    column (last writer wins, as :class:`SampleBatch` documents).
    """

    __slots__ = ("names", "series", "cols", "times", "rows", "n", "last")

    def __init__(self, names: Tuple[str, ...], capacity: int):
        self.names = names
        index = {name: j for j, name in enumerate(names)}
        if len(index) == len(names):
            self.series, self.cols = names, None
        else:
            self.series = tuple(index)
            self.cols = np.fromiter(index.values(), np.intp, len(index))
        self.times = np.empty(capacity, dtype=np.float64)
        self.rows = np.empty((capacity, len(names)), dtype=np.float64)
        self.n = 0
        self.last = float("-inf")  # times[n - 1], kept as a Python float

    def push(self, time: float, values: np.ndarray) -> None:
        """Stage one row; the caller has checked ``time`` is in order."""
        n = self.n
        if n and time == self.last:
            self.rows[n - 1] = values  # last writer wins
            return
        if n == self.times.shape[0]:
            times = np.empty(2 * n, dtype=np.float64)
            rows = np.empty((2 * n, len(self.names)), dtype=np.float64)
            times[:n] = self.times
            rows[:n] = self.rows
            self.times, self.rows = times, rows
        self.times[n] = time
        self.rows[n] = values
        self.n = n + 1
        self.last = time


class TimeSeriesStore:
    """Named collection of :class:`SeriesBuffer` with query helpers.

    Parameters
    ----------
    retention:
        If given, samples older than ``latest_time - retention`` seconds are
        trimmed opportunistically on ingest.  The ingest path trims a series
        only when its stale fraction reaches :data:`RETENTION_SLACK`
        (amortized O(1) per sample instead of an O(total series) sweep per
        new timestamp); any read of a series first enforces the exact
        cutoff, so queries never observe samples older than the retention
        window.
    rollups:
        ``True`` switches on the materialized 10s/1m/5m/1h downsample
        cascade (:mod:`.rollup`, :data:`~repro.telemetry.rollup.TIER_STEPS`).
        ``resample``/``align`` then transparently serve eligible buckets
        from the coarsest sufficient tier, bit-identical to raw reduction.
        With an archive or without retention, a series keeps only the tiers
        at least 4× coarser than its cadence; with retention and no archive
        it keeps them all.
    archive:
        ``True`` switches on the compressed cold tier (:mod:`.archive`).
        The retention sweep then *demotes* expiring samples into immutable
        Gorilla-coded chunks instead of deleting them, and reads below the
        hot window decode cold chunks straight into the shared resample
        kernels.
    journal:
        Directory of a write-ahead journal (:mod:`.durability`), or
        ``None`` for none.  Every write is journaled before it is staged;
        a store opened over a directory that already holds segments
        replays them first — the crash-recovery path.

    ``rollups`` and ``archive`` take only a bool; anything else raises
    :class:`~repro.errors.ConfigurationError`.  The tier shapes are
    constants of their modules, not settings.
    """

    def __init__(
        self,
        retention: Optional[float] = None,
        rollups: bool = False,
        archive: bool = False,
        journal=None,
    ):
        check_tier_switches(rollups, archive)
        self._series: Dict[str, SeriesBuffer] = {}
        # Staging: one block per batch shape holding rows, and the block
        # (if any) each staged series sits in.  A series is staged in at
        # most one block, so per-series order is the block's row order.
        self._blocks: Dict[Tuple[str, ...], _Block] = {}
        self._block_of: Dict[str, _Block] = {}
        self.retention = retention
        self.rollups: Optional[RollupEngine] = None
        if rollups:
            self.rollups = RollupEngine(raw_answerable=retention is None or archive)
        self.archive: Optional[ArchiveTier] = ArchiveTier() if archive else None
        self.samples_ingested = 0
        self.flushes = 0
        self.retention_trims = 0
        self.samples_trimmed = 0
        self._latest_time = float("-inf")
        self._names_cache: Optional[List[str]] = None
        self._select_cache: Dict[str, Callable] = {}
        self._sweep_queue: List[str] = []
        # Reentrant because reads nest (align -> resample_column -> query)
        # and rollup maintenance re-enters via the maintenance read.
        self._lock = threading.RLock()
        # Durability: write-ahead journal + crash-recovery bookkeeping.
        self._journal: Optional[WriteAheadJournal] = None
        self._journal_names: Dict[Tuple[str, ...], int] = {}
        self._replaying = False  # replay stages whole runs: no threshold flush
        self.corrupt_artifacts = 0  # damaged persisted artifacts degraded at load
        self.repaired_samples = 0  # samples spliced in by anti-entropy repair
        self.recovery: Optional[RecoveryStats] = None
        if journal is not None:
            self.recovery = self._recover_journal(os.fspath(journal))
            self._journal = WriteAheadJournal(
                journal, start_seq=self.recovery.last_seq + 1
            )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, topic: str, batch: SampleBatch) -> None:
        """Bus-compatible sink: store every sample of ``batch``.

        The ``topic`` is ignored for storage purposes (metric names are
        already fully qualified) but kept in the signature so the store can
        be subscribed directly: ``bus.subscribe("#", store.ingest)``.

        The batch lands as one row of its shape's staging block and is
        flushed to the columnar arrays :data:`FLUSH_THRESHOLD` rows at a time;
        reads flush implicitly first, so this is invisible to queries.  A
        batch is all-or-nothing: if any of its series already holds a later
        sample, :class:`StoreError` is raised before anything is journaled
        or staged.
        """
        if _OBS.enabled:
            with _OBS.tracer.span(
                "store.ingest", sim_time=batch.time, samples=len(batch)
            ):
                return self._stage(tuple(batch.names), batch.time, batch.values)
        return self._stage(tuple(batch.names), batch.time, batch.values)

    def _journal_names_id(self, names: Tuple[str, ...]) -> int:
        """Intern a name tuple in the journal (mirrors ring interning)."""
        names_id = self._journal_names.get(names)
        if names_id is None:
            # max+1, not len(): the table is seeded from recovery, so ids
            # must extend the journal's numbering, never reuse it.
            names_id = 1 + max(self._journal_names.values(), default=-1)
            self._journal_names[names] = names_id
            self._journal.append_names(names_id, names)
        return names_id

    def _stage(
        self, names: Tuple[str, ...], t: float, values: np.ndarray
    ) -> None:
        """Validate, journal and stage one batch row (the ingest path)."""
        with self._lock:
            block = self._blocks.get(names)
            if block is None:
                self._check_new_shape(names, t)
            elif t < block.last:
                raise StoreError(
                    f"out-of-order ingest at t={t}: this batch's series "
                    f"were last written at t={block.last}"
                )
            if self._journal is not None:
                self._journal.append_batch(
                    self._journal_names_id(names), t, values
                )
            if block is None:
                block = self._open_block(names)
            block.push(t, values)
            self.samples_ingested += len(names)
            if t > self._latest_time:
                self._latest_time = t
            # Replay applies each run of same-shape records once, when the
            # run ends (``_recover_journal``), not in threshold-sized pieces.
            if block.n >= FLUSH_THRESHOLD and not self._replaying:
                self._flush_block(block)

    def _check_new_shape(self, names: Tuple[str, ...], t: float) -> None:
        """Before staging an unstaged shape: flush any block staging one of
        its series (keeping per-series order), then check ``t`` against
        every series' stored tail."""
        block_of, series = self._block_of, self._series
        for name in names:
            other = block_of.get(name)
            if other is not None:
                self._flush_block(other)
            buf = series.get(name)
            if buf is not None and buf._size and t < buf._times[buf._size - 1]:
                raise StoreError(
                    f"series {name}: out-of-order ingest at t={t} "
                    f"(last t={buf._times[buf._size - 1]})"
                )

    def _open_block(self, names: Tuple[str, ...]) -> _Block:
        """Create the staging block of ``names`` and any series it adds."""
        block = self._blocks[names] = _Block(
            names, min(FLUSH_THRESHOLD, _INITIAL_CAPACITY)
        )
        for name in block.series:
            self._buffer(name)
            self._block_of[name] = block
        return block

    def _flush_block(self, block: _Block) -> int:
        """Apply one staged block to its series; returns samples moved."""
        del self._blocks[block.names]
        for name in block.series:
            del self._block_of[name]
        n = block.n
        if block.series:  # an empty batch stages rows but no series
            rows = block.rows[:n]
            if block.cols is not None:
                rows = rows[:, block.cols]
            self._apply_block(block.series, block.times[:n], rows)
            self.flushes += 1
        return n * len(block.series)

    def _flush_series(self, name: str) -> int:
        """Flush the block staging ``name``, if any (before reads and
        direct writes); returns samples moved."""
        block = self._block_of.get(name)
        return self._flush_block(block) if block is not None else 0

    def _buffer(self, name: str) -> SeriesBuffer:
        """The buffer of ``name``, creating the (empty) series if needed."""
        buf = self._series.get(name)
        if buf is None:
            buf = self._series[name] = SeriesBuffer(name)
            self._names_cache = None
        return buf

    def _observe_rollups(self, buf: SeriesBuffer) -> None:
        """Mutation epilogue: finalize any tier buckets the new tail
        completed.  Runs before the retention sweep so finalization reads
        samples about to be demoted/trimmed while they are still hot."""
        if self.rollups is None or not buf._size:
            return
        t_first = float(buf._times[0])
        if self.archive is not None and buf.name in self.archive:
            t_first = min(t_first, self.archive.first_time(buf.name))
        self.rollups.observe(
            buf.name, t_first, float(buf._times[buf._size - 1]),
            self._rollup_fetch,
        )

    def flush(self, name: Optional[str] = None) -> int:
        """Flush staged samples for ``name`` (or every series) to columnar
        storage; returns the number of samples flushed.

        Reads flush the touched series implicitly — this is only needed to
        force full compaction, e.g. before persisting or at shutdown.
        """
        if _OBS.enabled:
            with _OBS.tracer.span("store.flush") as sp:
                flushed = self._flush(name)
                sp.set_attr("samples", flushed)
                return flushed
        return self._flush(name)

    def _flush(self, name: Optional[str] = None) -> int:
        with self._lock:
            if name is not None:
                return self._flush_series(name)
            return sum(
                self._flush_block(block) for block in list(self._blocks.values())
            )

    def append(self, name: str, time: float, value: float) -> None:
        """Append one sample to ``name``, creating the series if needed."""
        self.append_many(name, (time,), (value,))

    def append_many(self, name: str, times: np.ndarray, values: np.ndarray) -> None:
        """Vectorized bulk append to a single series."""
        with self._lock:
            times = np.asarray(times, dtype=np.float64)
            if self._journal is not None:
                self._journal.append_many(name, times, values)
            self._flush_series(name)
            buf = self._buffer(name)
            buf.append_many(times, values)
            self.samples_ingested += int(times.size)
            if times.size and float(times[-1]) > self._latest_time:
                self._latest_time = float(times[-1])
            self._observe_rollups(buf)
            if self.retention is not None:
                self._maybe_trim(buf, exact=False)
                self._sweep_one()

    def append_block(
        self, names: Sequence[str], times: np.ndarray, rows: np.ndarray
    ) -> None:
        """Columnar bulk append: one shared time axis, one column per series.

        Semantically identical to calling :meth:`append_many` once per
        ``names[i]`` with ``rows[:, i]`` (equal times keep the last row),
        but the shared validation (dtype coercion, ordering check,
        latest-time bookkeeping) is hoisted out of the per-series loop and
        a series whose buffer simply extends skips straight to the slice
        copy.  This is the shard worker's apply path: with wide fleet
        scrapes (thousands of series, a few rows per flush) the per-series
        call overhead is the whole cost, so the hoisting is what the
        scale-out ingest throughput rests on.
        """
        times = np.asarray(times, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        n = times.size
        if times.ndim != 1 or rows.ndim != 2 or rows.shape[0] != n or \
                rows.shape[1] != len(names):
            raise StoreError(
                "append_block needs times[n] and rows[n, len(names)]"
            )
        if n == 0 or not names:
            return
        steps = np.diff(times)
        if not (steps > 0).all():
            if np.any(steps < 0):
                raise StoreError("append_block: times must be non-decreasing")
            keep = np.append(steps != 0, True)  # the last of each equal run
            times, rows = times[keep], rows[keep]
            n = times.size
        with self._lock:
            if self._journal is not None:
                self._journal.append_block(
                    self._journal_names_id(tuple(names)), times, rows
                )
            for name in names:
                self._flush_series(name)
            self._apply_block(names, times, rows)
            self.samples_ingested += n * len(names)

    def _apply_block(
        self, names: Sequence[str], times: np.ndarray, rows: np.ndarray
    ) -> None:
        """The columnar apply behind :meth:`append_block` and every staging
        flush: ``rows[:, i]`` onto series ``names[i]``, then the rollup and
        retention epilogue.  The caller holds the lock, has flushed any
        staged rows of ``names`` and counts the samples."""
        n = times.size
        t0, last = times[0], float(times[-1])
        series = self._series
        for i, name in enumerate(names):
            buf = series.get(name)
            if buf is None:
                buf = self._buffer(name)
            size = buf._size
            if size and t0 <= buf._times[size - 1]:
                # Overlaps the stored tail: let append_many handle the
                # last-writer-wins collapse (and ordering errors).
                try:
                    buf.append_many(times, rows[:, i])
                except StoreError:
                    # The columns before this one are already applied:
                    # count them, so version_stamp() moves with content.  A
                    # staged block cannot get here: ingest checked its rows.
                    if i:
                        self.samples_ingested += n * i
                        self._latest_time = max(self._latest_time, last)
                    raise
            else:
                end = size + n
                buf._grow(end)
                buf._times[size:end] = times
                buf._values[size:end] = rows[:, i]
                buf._size = end
        if last > self._latest_time:
            self._latest_time = last
        if self.rollups is not None:
            for name in names:
                self._observe_rollups(series[name])
        if self.retention is not None:
            for name in names:
                self._maybe_trim(series[name], exact=False)
            self._sweep_one()

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _maybe_trim(self, buf: SeriesBuffer, exact: bool) -> None:
        """Trim ``buf`` to the retention window.

        With ``exact=False`` (ingest path) the trim is skipped until the
        stale fraction reaches :data:`RETENTION_SLACK`, amortizing the memmove;
        with ``exact=True`` (read path) the cutoff is enforced strictly.

        With an archive tier attached, the expiring prefix is **demoted**
        into compressed cold chunks before it leaves the hot arrays, so
        retention bounds hot memory without losing history.
        """
        if not buf._size:
            return
        cutoff = self._latest_time - float(self.retention or 0.0)
        if buf._times[0] >= cutoff:
            return
        if not exact and RETENTION_SLACK > 0.0:
            stale = int(np.searchsorted(buf.times, cutoff, side="left"))
            if stale < RETENTION_SLACK * buf._size:
                return
        if self.archive is not None:
            lo = int(np.searchsorted(buf.times, cutoff, side="left"))
            if lo:
                self.archive.demote(
                    buf.name, buf._times[:lo], buf._values[:lo]
                )
        dropped = buf.trim_before(cutoff)
        if dropped:
            self.retention_trims += 1
            self.samples_trimmed += dropped

    def _sweep_one(self) -> None:
        """Watermark-check one extra series, round-robin.

        Gives cold series (no longer receiving data) an amortized O(1) path
        to reclamation without sweeping the whole store per append.  A
        series with staged rows is skipped: its own flush trims it once
        the rollups have observed those rows, so the samples of its open
        tier buckets never leave before the buckets are finalized.
        """
        if not self._sweep_queue:
            self._sweep_queue = list(self._series)
        name = self._sweep_queue.pop()
        buf = self._series.get(name)
        if buf is not None and name not in self._block_of:
            self._maybe_trim(buf, exact=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            if self._names_cache is None:
                self._names_cache = sorted(self._series)
            return list(self._names_cache)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def series(self, name: str) -> SeriesBuffer:
        """Read accessor: flushes staged samples and enforces retention."""
        with self._lock:
            buf = self._series.get(name)
            if buf is None:
                raise UnknownMetricError(name)
            self._flush_series(name)
            if self.retention is not None:
                self._maybe_trim(buf, exact=True)
            return buf

    @property
    def latest_time(self) -> float:
        """Largest timestamp ingested so far (-inf when empty)."""
        return self._latest_time

    @property
    def staged_samples(self) -> int:
        """Samples currently parked in staging blocks (pre-flush)."""
        with self._lock:
            return sum(b.n * len(b.series) for b in self._blocks.values())

    def version_stamp(self) -> Tuple[float, float, float, float]:
        """Cheap monotone fingerprint of store content.

        ``(samples_ingested, latest_time, series_count, samples_trimmed)``
        changes whenever any write lands, so two queries bracketed by equal
        stamps are guaranteed to see identical data — this is the per-shard
        ingest watermark the serving result cache keys its invalidation on.
        (Retention trims are a deterministic function of ``latest_time``
        and reads enforce the exact cutoff, so an unchanged stamp also
        pins what retention has visibly removed.)
        """
        with self._lock:
            return (
                float(self.samples_ingested),
                self._latest_time,
                float(len(self._series)),
                float(self.samples_trimmed),
            )

    # ------------------------------------------------------------------
    # Durability: journal control, crash recovery, anti-entropy splicing
    # ------------------------------------------------------------------
    @property
    def journal(self) -> Optional[WriteAheadJournal]:
        """The write-ahead journal (None when durability is disabled)."""
        return self._journal

    def sync_journal(self) -> int:
        """Force a journal group commit + fsync; returns the durable seq."""
        with self._lock:
            return self._journal.sync() if self._journal is not None else 0

    def flush_journal(self) -> int:
        """Hand buffered journal records to the OS (survives process kill)."""
        with self._lock:
            return self._journal.flush() if self._journal is not None else 0

    def journal_mark_durable(self, seq: Optional[int] = None) -> int:
        """Declare journaled data persisted elsewhere; prunes covered segments.

        Called by :func:`~repro.telemetry.persistence.save_store` after a
        successful atomic save so the journal never grows past one
        checkpoint interval.  Returns the number of segments pruned.
        """
        with self._lock:
            if self._journal is None:
                return 0
            if seq is None:
                seq = self._journal.sync()
            # Hand the live interning table along: pruning may delete the
            # segments holding the original NAMES records while batches
            # above the watermark still reference those ids.
            return self._journal.mark_durable(
                seq,
                names={
                    nid: names for names, nid in self._journal_names.items()
                },
            )

    def close(self) -> None:
        """Flush staging and cleanly close the journal (idempotent)."""
        with self._lock:
            self._flush()
            if self._journal is not None:
                self._journal.close()

    def _recover_journal(self, directory: str) -> RecoveryStats:
        """Replay an existing journal into this (empty) store.

        Tolerates damage: a torn tail truncates replay, a corrupt record
        drops the rest of its segment, and a record the store refuses
        (out-of-order after a partial tear) is counted, not raised.  Batch
        records go through the live ingest path, so replay accepts and
        refuses exactly what live ingest did; each run of same-shape
        records is staged whole and applied once, when it ends.
        """
        stats = RecoveryStats()
        names_map: Dict[int, Tuple[str, ...]] = {}
        self._replaying = True
        try:
            # NAMES pre-pass: batches appended between a save's journal
            # flush and its mark_durable sit above the watermark but
            # *before* the table re-interned at the mark, so a single
            # ordered pass could hit a batch whose NAMES record only
            # appears later.  Ids are never remapped, so seeding the full
            # table up front is safe.
            for rec in iter_records(directory, stats=RecoveryStats()):
                if rec[0] == "names":
                    names_map[rec[2]] = rec[3]
            run = None  # names of the run of batch records being staged
            for rec in iter_records(directory, stats=stats):
                kind = rec[0]
                if kind == "names":
                    names_map[rec[2]] = rec[3]
                    continue
                # "mark" records are runtime watermarks; stats.last_mark
                # captures them for the worker-restart path.
                if kind in ("batch", "block"):
                    names = names_map.get(rec[2])
                    if names is None or len(names) != rec[4].shape[-1]:
                        stats.replay_conflicts += 1
                        continue
                try:
                    if kind == "batch":
                        # A record of another shape ends the run: apply it.
                        if run is not names and run in self._blocks:
                            self._flush_block(self._blocks[run])
                        run = names
                        self._stage(names, rec[3], rec[4])
                    elif kind == "many":
                        self.append_many(rec[2], rec[3], rec[4])
                    elif kind == "block":
                        self.append_block(names, rec[3], rec[4])
                except StoreError:
                    stats.replay_conflicts += 1
            self._flush()
        finally:
            self._replaying = False
        # Seed the interning table from what the journal holds, so this
        # incarnation extends the journal's id numbering instead of
        # restarting at 0 and remapping ids already on disk.
        self._journal_names = {
            tuple(names): nid for nid, names in names_map.items()
        }
        return stats

    def window_checksums(
        self, name: str, window_s: float, until: Optional[float] = None
    ) -> Dict[int, Tuple[int, int]]:
        """Per-time-window fingerprints of the hot tier of ``name``.

        Anti-entropy compares these across replicas instead of shipping
        data.  Windows at or past ``until`` are excluded so the currently
        filling window is never flagged mid-ingest.  Unknown series map to
        the empty dict (a replica that missed a series' creation *should*
        diverge on every window the peer holds).
        """
        with self._lock:
            if name not in self._series:
                return {}
            buf = self.series(name)
            return _window_checksums(
                buf.times, buf.values, window_s, until=until
            )

    def window_data(
        self, name: str, window_s: float, window: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Copy of the hot samples of ``name`` inside one checksum window."""
        with self._lock:
            buf = self.series(name)
            t = buf.times
            lo = int(np.searchsorted(t, window * window_s, side="left"))
            hi = int(np.searchsorted(t, (window + 1) * window_s, side="left"))
            return t[lo:hi].copy(), buf.values[lo:hi].copy()

    def replace_window(
        self,
        name: str,
        since: float,
        until: float,
        times: np.ndarray,
        values: np.ndarray,
    ) -> int:
        """Splice-repair: replace the samples of ``name`` in ``[since, until)``.

        This is the anti-entropy write path — it may rewrite *past* data,
        which normal ingest forbids.  Replacement samples must be sorted and
        lie within the window.  Affected rollup buckets are recomputed from
        the repaired raw data.  Returns the net change in sample count.
        Repairs are not journaled, so a crash loses them.  The next sweep
        re-detects such a divergence only while its window is above the
        sweep's floor; once a lost repair, or a divergence no sweep saw,
        ages below that floor, no sweep compares it again (ROADMAP,
        "Anti-entropy that covers the whole history and survives a crash").
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.ndim != 1 or times.shape != values.shape:
            raise StoreError("replace_window needs matching 1-d times/values")
        if times.size and (
            np.any(np.diff(times) < 0)
            or times[0] < since
            or times[-1] >= until
        ):
            raise StoreError(
                f"replace_window: samples must be sorted within "
                f"[{since}, {until})"
            )
        with self._lock:
            self._buffer(name)  # ensure the series exists
            buf = self.series(name)
            t = buf.times
            lo = int(np.searchsorted(t, since, side="left"))
            hi = int(np.searchsorted(t, until, side="left"))
            new_t = np.concatenate((t[:lo], times, t[hi:]))
            new_v = np.concatenate((buf.values[:lo], values, buf.values[hi:]))
            buf._times = new_t
            buf._values = new_v
            buf._size = new_t.size
            added, removed = int(times.size), hi - lo
            self.repaired_samples += added
            # Repairs are writes: bump the ingest counter so version_stamp
            # moves and serving caches invalidate.
            self.samples_ingested += added
            if new_t.size and float(new_t[-1]) > self._latest_time:
                self._latest_time = float(new_t[-1])
            if self.rollups is not None:
                self.rollups.repair(name, since, until, self._rollup_fetch)
            return added - removed

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments over the store counters, built on each access:
        every instrument reads through to the store."""
        r = MetricsRegistry()
        r.counter("telemetry.store.samples", "samples ingested",
                  fn=lambda: float(self.samples_ingested))
        r.gauge("telemetry.store.series", "distinct series held",
                fn=lambda: float(len(self._series)))
        r.gauge("telemetry.store.staged", "samples parked in staging",
                fn=lambda: float(self.staged_samples))
        r.counter("telemetry.store.flushes", "staged block flushes",
                  fn=lambda: float(self.flushes))
        r.counter("telemetry.store.retention_trims", "retention compactions",
                  fn=lambda: float(self.retention_trims))
        r.counter("telemetry.store.samples_trimmed",
                  "samples dropped by retention",
                  fn=lambda: float(self.samples_trimmed))
        r.counter("telemetry.durability.corrupt_artifacts",
                  "damaged persisted artifacts degraded at load",
                  fn=lambda: float(self.corrupt_artifacts))
        r.counter("telemetry.durability.repaired_samples",
                  "samples spliced in by anti-entropy repair",
                  fn=lambda: float(self.repaired_samples))
        if self._journal is not None:
            j = self._journal
            r.counter("telemetry.durability.journal_records",
                      "records appended to the write-ahead journal",
                      fn=lambda: float(j.records))
            r.counter("telemetry.durability.journal_bytes",
                      "journal bytes handed to the OS",
                      fn=lambda: float(j.bytes_written))
            r.counter("telemetry.durability.journal_syncs",
                      "journal fsync group commits",
                      fn=lambda: float(j.syncs))
            r.counter("telemetry.durability.journal_rotations",
                      "journal segment rotations",
                      fn=lambda: float(j.rotations))
        if self.recovery is not None:
            rec = self.recovery
            r.counter("telemetry.durability.recovered_records",
                      "journal records replayed at open",
                      fn=lambda: float(rec.replayed_records))
            r.counter("telemetry.durability.recovered_samples",
                      "samples recovered from the journal at open",
                      fn=lambda: float(rec.replayed_samples))
            r.counter("telemetry.durability.torn_tail_drops",
                      "journal tails torn by a crash mid-write",
                      fn=lambda: float(rec.torn_tail_drops))
            r.counter("telemetry.durability.corrupt_journal_records",
                      "journal frames failing CRC at recovery",
                      fn=lambda: float(rec.corrupt_records))
        return r

    def metric_registries(self) -> List[MetricsRegistry]:
        """The store's registry plus its rollup and cold-tier registries."""
        return [self.metrics] + [
            tier.metrics for tier in (self.rollups, self.archive)
            if tier is not None
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _rollup_fetch(
        self, name: str, since: float, until: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cold + hot range read with retention deliberately NOT enforced.

        The store hands this to :meth:`RollupEngine.observe` and
        :meth:`RollupEngine.repair` as their maintenance read (the engine
        keeps no reference to the store).  Finalization runs in
        the mutation epilogue, *before* the retention sweep; reading
        pre-trim here is what lets finalized buckets keep history that the
        hot tier is about to drop (long-horizon memory when no archive tier
        is attached).  Cold samples are strictly older than everything hot
        (demotion moves a time-prefix), so the splice stays sorted.
        """
        with self._lock:
            buf = self._series.get(name)
            if buf is None:
                if self.archive is not None and name in self.archive:
                    return self.archive.scan(name, since, until)
                raise UnknownMetricError(name)
            self._flush_series(name)
            ht, hv = buf.range(since, until)
            if self.archive is not None and name in self.archive:
                ct, cv = self.archive.scan(name, since, until)
                if ct.size:
                    if not ht.size:
                        return ct, cv
                    return np.concatenate((ct, ht)), np.concatenate((cv, hv))
            return ht, hv

    def query(
        self, name: str, since: float = float("-inf"), until: float = float("inf")
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Range query; returns (times, values) arrays.

        Enforces the exact retention cutoff, then reads like the
        :meth:`_rollup_fetch` splice.  Without an archive tier these are
        zero-copy views over the hot arrays; when the range reaches demoted
        history, overlapping cold chunks are decoded and spliced in front
        (fresh arrays).
        """
        with self._lock:
            buf = self._series.get(name)
            if buf is not None and self.retention is not None:
                self._flush_series(name)
                self._maybe_trim(buf, exact=True)
            return self._rollup_fetch(name, since, until)

    def latest(self, name: str) -> Tuple[float, float]:
        """Most recent (time, value) for ``name``."""
        with self._lock:
            buf = self.series(name)
            if not buf._size and self.archive is not None and name in self.archive:
                t_last = self.archive.last_time(name)
                value = self.archive.value_at(name, t_last)
                if value is not None:
                    return t_last, value
            return buf.latest()

    def value_at(self, name: str, time: float) -> float:
        """Last-observation-carried-forward lookup (cold-tier aware)."""
        with self._lock:
            try:
                return self.series(name).value_at(time)
            except StoreError:
                if self.archive is not None:
                    value = self.archive.value_at(name, time)
                    if value is not None:
                        return value
                raise

    def resample_column(
        self,
        name: str,
        since: float,
        until: float,
        step: float,
        agg: str,
        edges: np.ndarray,
    ) -> np.ndarray:
        """One per-bucket value column on a precomputed edge grid
        (``edges`` is :func:`bucket_edges` of ``since, until, step``).

        This is the planner-aware primitive ``resample``/``align`` and the
        federated query engine share: the coarsest rollup tier serves the
        eligible leading buckets, and the rest reduce raw (cold-aware)
        samples from :meth:`query` with the shared kernels — so every
        caller gets identical bits.
        """
        with self._lock:
            head = None
            if self.rollups is not None:
                # Staged rows first: they advance the tier cursors, and a
                # stale cursor would start the raw rest where retention has
                # already trimmed.
                self._flush_series(name)
                head = self.rollups.serve(name, step, agg, edges)
            n = 0 if head is None else head.size
            times, values = self.query(name, float(edges[n]), until)
            rest = resample_onto(times, values, edges[n:], agg)
            return rest if head is None else np.concatenate((head, rest))

    def resample(
        self,
        name: str,
        since: float,
        until: float,
        step: float,
        agg: str = "mean",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Downsample a series onto buckets of width ``step``.

        Buckets are left-closed ``[t, t+step)``; each output timestamp is the
        bucket start.  When ``until - since`` is not an exact multiple of
        ``step``, the final bucket is partial and covers ``[t, until]``
        (closed, so a sample exactly at ``until`` is included rather than
        silently dropped).  Empty buckets yield ``NaN`` so gaps stay visible
        to descriptive analytics rather than being silently interpolated.
        """
        if _OBS.enabled:
            with _OBS.tracer.span("store.resample", metric=name, agg=agg):
                return self._resample_impl(name, since, until, step, agg)
        return self._resample_impl(name, since, until, step, agg)

    def _resample_impl(
        self,
        name: str,
        since: float,
        until: float,
        step: float,
        agg: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        check_resample_args(step, agg)
        if until <= since:
            return np.empty(0), np.empty(0)
        with self._lock:
            edges = bucket_edges(since, until, step)
            return edges[:-1], self.resample_column(
                name, since, until, step, agg, edges
            )

    def align(
        self,
        names: Sequence[str],
        since: float,
        until: float,
        step: float,
        agg: str = "mean",
        fill: str = "ffill",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Align several series onto a common grid.

        Returns ``(grid, matrix)`` where ``matrix[i, j]`` is series ``j`` at
        grid point ``i``.  ``fill`` controls gap handling: ``"ffill"``
        carries the last observation forward, ``"nan"`` leaves gaps.

        The bucket-edge grid is computed once and shared by every series, so
        an N-series alignment costs one grid build plus N kernel passes.

        This produces exactly the dense design matrix multivariate analytics
        (PCA, anomaly detectors, regressors) consume.
        """
        if _OBS.enabled:
            with _OBS.tracer.span("store.align", series=len(names), agg=agg):
                return self._align_impl(names, since, until, step, agg, fill)
        return self._align_impl(names, since, until, step, agg, fill)

    def _align_impl(
        self,
        names: Sequence[str],
        since: float,
        until: float,
        step: float,
        agg: str,
        fill: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        with self._lock:
            return align_columns(
                names, since, until, step, agg, fill,
                lambda name, edges: self.resample_column(
                    name, since, until, step, agg, edges
                ),
            )

    def select(self, pattern: str) -> List[str]:
        """Names of stored series matching a shell-style pattern."""
        with self._lock:
            matcher = self._select_cache.get(pattern)
            if matcher is None:
                if len(self._select_cache) >= _SELECT_CACHE_CAP:
                    self._select_cache.clear()
                matcher = self._select_cache[pattern] = re.compile(
                    fnmatch.translate(pattern)
                ).match
            return [n for n in self.names() if matcher(n)]
