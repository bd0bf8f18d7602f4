"""Write-ahead journal and crash-recovery primitives for telemetry stores.

Production ODA deployments live or die on surviving daemon crashes without
losing accepted telemetry (Netti et al.; DCDB Wintermute runs its collection
daemons under exactly this constraint).  This module supplies the durability
layer: an append-only, CRC-framed write-ahead journal that a
:class:`~repro.telemetry.store.TimeSeriesStore` writes *before* mutating its
in-memory buffers, plus the recovery scanner that replays the intact record
prefix after a crash — tolerating a torn tail — and the chaos injectors that
damage journals and persisted artifacts on purpose.

Journal layout
--------------

A journal is a directory of segment files ``wal-<startseq>.seg``::

    segment := header record*
    header  := magic "RWAL" | u8 version | u8 crc_algo | u16 reserved | u64 start_seq
    record  := u32 payload_len | u32 crc(payload) | payload
    payload := u8 rtype | u64 seq | body

Record types cover the store's ingest surface: ``NAMES`` interns a name
tuple under a small integer id (mirroring the parallel runtime's ring
interning), ``BATCH`` is one wide sample batch against an interned id,
``MANY`` carries a per-series append, ``BLOCK`` a columnar block,
and ``MARK`` an opaque external watermark (the parallel runtime stores ring
sequence numbers there so a restarted worker knows where ring replay should
resume).

Group commit & sync cadence
---------------------------

Appends are encoded into an in-process buffer and handed to the OS in one
``write(2)`` per :data:`GROUP_BYTES`, not per record.  Every append also
checks the fsync deadline: once :data:`SYNC_INTERVAL_S` has passed since
the last fsync, the append flushes the buffer and fsyncs.  The loss window
on power failure is therefore bounded only *while appends continue* — the
deadline is checked by the next append, so records buffered just before
the writer goes quiet stay unsynced until it appends again or calls
:meth:`WriteAheadJournal.flush` (survives a process kill),
:meth:`WriteAheadJournal.sync` or :meth:`WriteAheadJournal.close` (survive
power loss).

``flushed_seq`` is the highest sequence handed to the OS; ``synced_seq``
the highest fsynced.  Acknowledgement protocols should ack no further than
the guarantee they advertise.

Recovery tolerates damage instead of raising: a torn tail (partial final
record after a crash mid-write) truncates replay at the last intact record;
a corrupt record mid-journal drops the rest of that segment and continues
with the next, with every drop counted on :class:`RecoveryStats`.
"""

from __future__ import annotations

import io
import json
import os
import struct
import time as _time
import zipfile
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import JournalError
from repro.ioutil import CRC_ALGO, atomic_write_json, crc32, fsync_dir

__all__ = [
    "GROUP_BYTES",
    "SYNC_INTERVAL_S",
    "SEGMENT_MAX_BYTES",
    "RecoveryStats",
    "WriteAheadJournal",
    "DurabilityFaultEvent",
    "journal_dir",
    "iter_records",
    "scan_journal",
    "read_watermark",
    "window_checksums",
    "tail_segment",
    "tear_wal_tail",
    "corrupt_artifact",
]

_MAGIC = b"RWAL"
_VERSION = 1
_HEADER = struct.Struct("<4sBBHQ")  # magic, version, crc_algo, reserved, start_seq
_FRAME = struct.Struct("<II")  # payload_len, crc
_PREFIX = struct.Struct("<BQ")  # rtype, seq
_ALGO_IDS = {"crc32": 0, "crc32c": 1}
_ALGO_NAMES = {v: k for k, v in _ALGO_IDS.items()}

REC_NAMES = 1
REC_BATCH = 2
REC_MANY = 3
REC_BLOCK = 4
REC_MARK = 5

_WATERMARK_FILE = "DURABLE"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"

#: Buffered journal bytes handed to the OS in one write (group commit).
GROUP_BYTES = 64 * 1024
#: Longest gap between fsyncs while appends continue.
SYNC_INTERVAL_S = 0.05
#: A segment rotates once it holds this many bytes.
SEGMENT_MAX_BYTES = 4 * 1024 * 1024


def journal_dir(base, shard: int, member: int | None = None) -> str:
    """The journal directory of one shard of a deployment under ``base``.

    An in-process member journals to ``<base>/shard<i>/member<j>``; a shard
    worker journals its whole replica set to ``<base>/shard<i>/wal``.  The
    layout is fixed so a reopened deployment replays each journal into the
    member (or worker) that wrote it.
    """
    leaf = "wal" if member is None else f"member{member}"
    return os.path.join(os.fspath(base), f"shard{shard}", leaf)


@dataclass
class RecoveryStats:
    """Outcome of one journal scan/replay."""

    segments: int = 0
    records: int = 0
    replayed_records: int = 0
    skipped_records: int = 0  # at or below the durable watermark
    replayed_samples: int = 0
    torn_tail_drops: int = 0  # segments ending in a partial/corrupt tail record
    corrupt_records: int = 0  # mid-journal frames failing CRC (rest of segment dropped)
    replay_conflicts: int = 0  # intact records the store refused during replay
    dropped_bytes: int = 0
    last_seq: int = 0
    last_mark: int | None = None

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _segment_path(directory: str, start_seq: int) -> str:
    return os.path.join(directory, f"{_SEGMENT_PREFIX}{start_seq:020d}{_SEGMENT_SUFFIX}")


def _list_segments(directory: str) -> list[tuple[int, str]]:
    out = []
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return out
    for name in entries:
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
            digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            try:
                out.append((int(digits), os.path.join(directory, name)))
            except ValueError:
                continue
    out.sort()
    return out


def read_watermark(directory: str) -> int:
    """Return the durable watermark sequence (0 if none recorded)."""
    try:
        with open(os.path.join(directory, _WATERMARK_FILE), "r", encoding="utf-8") as fh:
            return int(json.load(fh).get("seq", 0))
    except (OSError, ValueError):
        return 0


class WriteAheadJournal:
    """Append-only CRC-framed journal with group commit and rotation.

    ``directory`` is created on demand; a journal opened over segments a
    previous incarnation left continues their sequence numbering in a new
    segment.  Not thread-safe by itself; the owning store serialises
    access under its own lock (matching every other store internal).
    """

    def __init__(self, directory, *, start_seq: int | None = None):
        self.dir = os.fspath(directory)
        os.makedirs(self.dir, exist_ok=True)
        segments = _list_segments(self.dir)
        if start_seq is None:
            # Resume numbering after whatever the existing journal holds.
            start_seq = 1
            if segments:
                stats = RecoveryStats()
                for _ in iter_records(self.dir, stats=stats, min_seq=0):
                    pass
                start_seq = max(stats.last_seq + 1, segments[-1][0])
        self._next_seq = max(1, int(start_seq))
        self._fh: io.BufferedWriter | None = None
        self._segment_start = 0
        self._segment_bytes = 0
        self._buffer = bytearray()
        self._buffer_first_seq = 0
        self.flushed_seq = self._next_seq - 1
        self.synced_seq = self._next_seq - 1
        self._last_sync = _time.monotonic()
        # Observability counters (wired into the store's metrics registry).
        self.records = 0
        self.bytes_written = 0
        self.syncs = 0
        self.rotations = 0
        self.closed = False
        # Always begin a fresh segment: appending after a torn tail would
        # bury the tear mid-segment where recovery treats it as corruption.
        self._rotate()

    # -- encoding ---------------------------------------------------------

    def _frame(self, rtype: int, body: bytes) -> bytes:
        seq = self._next_seq
        self._next_seq += 1
        payload = _PREFIX.pack(rtype, seq) + body
        return _FRAME.pack(len(payload), crc32(payload)) + payload

    def append_names(self, names_id: int, names: Sequence[str]) -> int:
        blob = json.dumps(list(names), separators=(",", ":")).encode("utf-8")
        return self._append(REC_NAMES, struct.pack("<I", names_id) + blob)

    def append_batch(self, names_id: int, time: float, values) -> int:
        vals = np.ascontiguousarray(values, dtype=np.float64)
        body = struct.pack("<Id", names_id, float(time)) + vals.tobytes()
        return self._append(REC_BATCH, body, samples=vals.size)

    def append_many(self, name: str, times, values) -> int:
        t = np.ascontiguousarray(times, dtype=np.float64)
        v = np.ascontiguousarray(values, dtype=np.float64)
        nb = name.encode("utf-8")
        body = struct.pack("<HI", len(nb), t.size) + nb + t.tobytes() + v.tobytes()
        return self._append(REC_MANY, body, samples=t.size)

    def append_block(self, names_id: int, times, rows) -> int:
        t = np.ascontiguousarray(times, dtype=np.float64)
        r = np.ascontiguousarray(rows, dtype=np.float64)
        body = struct.pack("<III", names_id, t.size, r.shape[1] if r.ndim == 2 else 0)
        body += t.tobytes() + r.tobytes()
        return self._append(REC_BLOCK, body, samples=r.size)

    def append_mark(self, value: int) -> int:
        return self._append(REC_MARK, struct.pack("<Q", int(value)))

    # -- group commit -----------------------------------------------------

    def _append(self, rtype: int, body: bytes, *, samples: int = 0) -> int:
        if self.closed:
            raise JournalError("journal is closed")
        frame = self._frame(rtype, body)
        if not self._buffer:
            self._buffer_first_seq = self._next_seq - 1
        self._buffer += frame
        self.records += 1
        # The fsync deadline is checked on every append, not only on group
        # boundaries: a trickle writer that never fills the group buffer
        # still gets its fsync once the interval has passed.
        sync_due = _time.monotonic() - self._last_sync >= SYNC_INTERVAL_S
        if sync_due or len(self._buffer) >= GROUP_BYTES:
            self._flush_buffer()
            if sync_due:
                self._fsync()
        return self._next_seq - 1

    def _flush_buffer(self) -> None:
        if not self._buffer:
            return
        if self._segment_bytes >= SEGMENT_MAX_BYTES:
            self._rotate()
        assert self._fh is not None
        self._fh.write(self._buffer)
        self._fh.flush()
        self._segment_bytes += len(self._buffer)
        self.bytes_written += len(self._buffer)
        self._buffer.clear()
        self.flushed_seq = self._next_seq - 1

    def _fsync(self) -> None:
        assert self._fh is not None
        os.fsync(self._fh.fileno())
        self.synced_seq = self.flushed_seq
        self.syncs += 1
        self._last_sync = _time.monotonic()

    def flush(self) -> int:
        """Hand buffered records to the OS (survives process kill)."""
        if not self.closed:
            self._flush_buffer()
        return self.flushed_seq

    def sync(self) -> int:
        """Flush and fsync (survives power loss). Returns the durable seq."""
        if not self.closed:
            self._flush_buffer()
            self._fsync()
        return self.synced_seq

    def _rotate(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
        self._segment_start = self._next_seq
        path = _segment_path(self.dir, self._segment_start)
        if os.path.exists(path):
            # A colliding segment can only be a dataless tail from a prior
            # incarnation (header-only, or fully torn): any intact record in
            # it would carry seq >= start_seq and resume numbering would have
            # moved past it.  Appending would bury a second header mid-file,
            # which recovery reads as a torn tail and then drops everything
            # after it — so replace the file outright.
            os.unlink(path)
        try:
            self._fh = open(path, "xb")
        except FileExistsError as exc:  # pragma: no cover - defensive
            raise JournalError(f"segment {path!r} already exists") from exc
        header = _HEADER.pack(
            _MAGIC, _VERSION, _ALGO_IDS[CRC_ALGO], 0, self._segment_start
        )
        self._fh.write(header)
        self._fh.flush()
        self._segment_bytes = _HEADER.size
        self.rotations += 1
        fsync_dir(self.dir)

    # -- truncation -------------------------------------------------------

    def mark_durable(self, seq: int, *, names=None) -> int:
        """Record that everything at or below ``seq`` is safely persisted.

        Segments wholly covered by the watermark are deleted (never the
        active one); recovery skips records at or below it.  Returns the
        number of segments pruned.

        ``names`` is the owner's live interning table
        (``{names_id: (name, ...)}``).  Pruning may delete the segments that
        held the original NAMES records, which would leave every later BATCH
        or BLOCK record unresolvable on replay — so the table is re-appended
        (registration is idempotent) before the watermark is written, at
        sequences above it, where recovery always yields it.
        """
        seq = int(seq)
        if names:
            for names_id, name_tuple in names.items():
                self.append_names(names_id, name_tuple)
            self._flush_buffer()
            self._fsync()
        atomic_write_json(
            os.path.join(self.dir, _WATERMARK_FILE), {"seq": seq}, indent=None
        )
        pruned = 0
        segments = _list_segments(self.dir)
        for i, (start, path) in enumerate(segments):
            if start == self._segment_start:
                continue
            nxt = segments[i + 1][0] if i + 1 < len(segments) else self._segment_start
            if nxt <= seq + 1:
                try:
                    os.unlink(path)
                    pruned += 1
                except OSError:
                    pass
        if pruned:
            fsync_dir(self.dir)
        return pruned

    def close(self) -> None:
        if self.closed:
            return
        self._flush_buffer()
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
        self.synced_seq = self.flushed_seq
        self.closed = True


# -- recovery scan --------------------------------------------------------


def iter_records(
    directory: str,
    *,
    stats: RecoveryStats | None = None,
    min_seq: int | None = None,
) -> Iterator[tuple]:
    """Yield decoded records from a journal directory, oldest first.

    Damage degrades instead of raising: a bad frame in the *last* segment is
    a torn tail (scan stops there); a bad frame mid-journal drops the rest
    of its segment and continues.  Records with ``seq <= min_seq`` (default:
    the recorded durable watermark) are counted as skipped and not yielded —
    except NAMES interning records, which are always yielded (and also
    counted as skipped when below the watermark): registration is
    idempotent, and records above the watermark reference ids interned
    below it.

    Yields tuples keyed by record kind::

        ("names", seq, names_id, (name, ...))
        ("batch", seq, names_id, time, values)      # values: float64[k]
        ("many",  seq, name, times, values)         # float64[n] each
        ("block", seq, names_id, times, rows)       # rows: float64[n, k]
        ("mark",  seq, value)
    """
    stats = stats if stats is not None else RecoveryStats()
    if min_seq is None:
        min_seq = read_watermark(directory)
    segments = _list_segments(directory)
    for seg_idx, (start, path) in enumerate(segments):
        last_segment = seg_idx == len(segments) - 1
        try:
            data = open(path, "rb").read()
        except OSError:
            stats.torn_tail_drops += 1
            continue
        stats.segments += 1
        if len(data) < _HEADER.size:
            stats.torn_tail_drops += 1
            stats.dropped_bytes += len(data)
            continue
        magic, version, _algo, _res, hdr_seq = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC or version != _VERSION or hdr_seq != start:
            stats.corrupt_records += 1
            stats.dropped_bytes += len(data)
            continue
        off = _HEADER.size
        while off < len(data):
            if off + _FRAME.size > len(data):
                stats.torn_tail_drops += 1
                stats.dropped_bytes += len(data) - off
                break
            plen, crc = _FRAME.unpack_from(data, off)
            end = off + _FRAME.size + plen
            payload = data[off + _FRAME.size : end]
            if len(payload) != plen or crc32(payload) != crc or plen < _PREFIX.size:
                if last_segment:
                    stats.torn_tail_drops += 1
                else:
                    stats.corrupt_records += 1
                stats.dropped_bytes += len(data) - off
                break
            rtype, seq = _PREFIX.unpack_from(payload, 0)
            body = payload[_PREFIX.size:]
            off = end
            stats.records += 1
            stats.last_seq = max(stats.last_seq, seq)
            if seq <= min_seq:
                stats.skipped_records += 1
                if rtype != REC_NAMES:
                    continue
                rec = _decode(rtype, seq, body)
                if rec is None:
                    stats.corrupt_records += 1
                    continue
                yield rec
                continue
            rec = _decode(rtype, seq, body)
            if rec is None:
                stats.corrupt_records += 1
                continue
            stats.replayed_records += 1
            if rec[0] == "mark":
                stats.last_mark = rec[2]
            elif rec[0] == "batch":
                stats.replayed_samples += rec[4].size
            elif rec[0] == "many":
                stats.replayed_samples += rec[3].size
            elif rec[0] == "block":
                stats.replayed_samples += rec[4].size
            yield rec
    return


def _decode(rtype: int, seq: int, body: bytes):
    try:
        if rtype == REC_NAMES:
            (names_id,) = struct.unpack_from("<I", body, 0)
            names = tuple(json.loads(body[4:].decode("utf-8")))
            return ("names", seq, names_id, names)
        if rtype == REC_BATCH:
            names_id, t = struct.unpack_from("<Id", body, 0)
            values = np.frombuffer(body, dtype=np.float64, offset=12).copy()
            return ("batch", seq, names_id, t, values)
        if rtype == REC_MANY:
            nlen, n = struct.unpack_from("<HI", body, 0)
            name = body[6 : 6 + nlen].decode("utf-8")
            arr = np.frombuffer(body, dtype=np.float64, offset=6 + nlen)
            if arr.size != 2 * n:
                return None
            return ("many", seq, name, arr[:n].copy(), arr[n:].copy())
        if rtype == REC_BLOCK:
            names_id, n, k = struct.unpack_from("<III", body, 0)
            arr = np.frombuffer(body, dtype=np.float64, offset=12)
            if arr.size != n + n * k:
                return None
            times = arr[:n].copy()
            rows = arr[n:].reshape(n, k).copy()
            return ("block", seq, names_id, times, rows)
        if rtype == REC_MARK:
            (value,) = struct.unpack_from("<Q", body, 0)
            return ("mark", seq, value)
    except (struct.error, ValueError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    return None  # unknown record type from a future version: skip, don't crash


def scan_journal(directory: str) -> RecoveryStats:
    """Scan a journal without replaying it; returns integrity statistics."""
    stats = RecoveryStats()
    for _ in iter_records(directory, stats=stats):
        pass
    return stats


# -- window checksums (anti-entropy) ---------------------------------------


def window_checksums(
    times: np.ndarray, values: np.ndarray, window_s: float, *, until: float | None = None
) -> dict[int, tuple[int, int]]:
    """Per-time-window fingerprints of a sorted series.

    Returns ``{window_index: (crc, count)}`` where ``window_index`` is
    ``floor(t / window_s)``.  Two replicas holding bit-identical samples in
    a window produce identical fingerprints, so divergence detection is one
    dict comparison instead of a full data transfer.  Windows starting at or
    after ``until`` are excluded (callers pass a cutoff so the currently
    filling window is not flagged as divergent mid-ingest).
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if until is not None:
        cut = int(np.searchsorted(t, float(until), side="left"))
        t, v = t[:cut], v[:cut]
    if t.size == 0:
        return {}
    idx = np.floor_divide(t, float(window_s)).astype(np.int64)
    uniq, starts = np.unique(idx, return_index=True)
    out: dict[int, tuple[int, int]] = {}
    bounds = list(starts) + [t.size]
    for w, s, e in zip(uniq, bounds[:-1], bounds[1:]):
        crc = crc32(t[s:e].tobytes())
        crc = crc32(v[s:e].tobytes(), crc)
        out[int(w)] = (crc, int(e - s))
    return out


# -- chaos injectors -------------------------------------------------------


@dataclass
class DurabilityFaultEvent:
    """Ground-truth record of one injected durability fault."""

    kind: str
    path: str
    detail: dict = field(default_factory=dict)


def tail_segment(directory: str) -> tuple[str, int]:
    """``(path, size)`` of the newest journal segment that holds records —
    the segment :func:`tear_wal_tail` tears."""
    segments = _list_segments(directory)
    if not segments:
        raise JournalError(f"no journal segments under {directory!r}")
    for _start, path in reversed(segments):
        size = os.path.getsize(path)
        if size > _HEADER.size:
            return path, size
    raise JournalError(f"journal under {directory!r} holds no records to tear")


def tear_wal_tail(directory: str, *, nbytes: int | None = None, rng=None) -> DurabilityFaultEvent:
    """Truncate the newest journal segment mid-record (crash mid-write)."""
    path, size = tail_segment(directory)
    if nbytes is None:
        rng = rng if rng is not None else np.random.default_rng()
        nbytes = int(rng.integers(1, min(64, size - _HEADER.size) + 1))
    nbytes = max(1, min(int(nbytes), size - _HEADER.size))
    with open(path, "r+b") as fh:
        fh.truncate(size - nbytes)
    return DurabilityFaultEvent(
        "torn_wal", path, {"torn_bytes": nbytes, "new_size": size - nbytes}
    )


def _payload_spans(path: str) -> list[tuple[int, int]]:
    """``[start, end)`` byte spans of a zip archive's member payloads.

    A span runs from the end of a member's local header (fixed part, file
    name and extra field, as stored in the local header itself) to the end
    of its compressed data.  A flip in a span reaches the decoded bytes the
    zip CRC-32 and a store archive's array checksums cover — except a few
    deflate bits per member (such as the final-block flag and the bits
    after the last decoded byte) whose flip decodes to identical bytes; the
    headers and the central directory are covered by neither.
    """
    spans = []
    with zipfile.ZipFile(path) as archive, open(path, "rb") as fh:
        for info in archive.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            start = info.header_offset + 30 + name_len + extra_len
            spans.append((start, start + info.compress_size))
    return spans


def corrupt_artifact(path: str, *, mode: str = "bitflip", rng=None) -> DurabilityFaultEvent:
    """Damage a persisted artifact: flip one bit or truncate the file.

    On a zip archive (``.npz``) the flipped bit lands in a member payload
    span (:func:`_payload_spans`), the bytes a loader verifies; elsewhere it
    may land anywhere in the file.
    """
    if mode not in ("bitflip", "truncate"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    rng = rng if rng is not None else np.random.default_rng()
    size = os.path.getsize(path)
    if size == 0:
        raise JournalError(f"cannot corrupt empty artifact {path!r}")
    if mode == "bitflip":
        spans = _payload_spans(path) if zipfile.is_zipfile(path) else [(0, size)]
        lengths = np.cumsum([end - start for start, end in spans])
        pick = int(rng.integers(0, lengths[-1]))
        i = int(np.searchsorted(lengths, pick, side="right"))
        offset = spans[i][1] - int(lengths[i] - pick)
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ (1 << int(rng.integers(0, 8)))]))
        detail = {"offset": offset}
    else:
        keep = int(rng.integers(0, size))
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        detail = {"kept_bytes": keep, "old_size": size}
    return DurabilityFaultEvent(f"corrupt_{mode}", path, detail)
