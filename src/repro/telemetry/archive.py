"""Compressed columnar cold tier: Gorilla-style chunks in pure NumPy.

Long-horizon ODA (the paper's month-scale LLNL MW trace use case, and the
"ODA in Practice" observation that production deployments live or die on
long-term storage cost) needs history that is cheap to hold and still
queryable.  This module implements the cold tier the retention sweep
demotes into instead of deleting:

* **Timestamps** — delta-of-delta coding.  Two exact modes, picked per
  chunk: ``int`` mode losslessly rescales the float64 timestamps by a
  power of two into int64 ticks (exact both ways — power-of-two scaling
  never rounds), then packs zigzagged delta-of-deltas at the chunk's
  worst-case bit width, so a regular scrape cadence costs ~0 bits per
  sample; ``raw`` mode (pathological floats) packs deltas of the
  order-preserving uint64 key of each float64, never worse than the raw
  64 bits.
* **Values** — XOR float packing ala Facebook Gorilla: consecutive bit
  patterns are XORed, a 1-bit-per-sample bitmap marks the zero XORs
  (repeated values cost one bit), and the non-zero XORs are packed at the
  chunk-wide significant window ``[leading-zeros, 64 - trailing-zeros)``.
  Quantized sensor channels (integer watts, half-degree temps) share
  exponents and trailing mantissa zeros, so the window is narrow.

Both codecs are **bit-exact for every float64** — NaN payloads, ±inf,
``-0.0``, subnormals — verified by the hypothesis property suite, and the
bytes they write are pinned by golden digests (``test_archive_codec.py``).
Fixed-width bit streams are packed and unpacked by byte-plane kernels:
``np.unpackbits``/``np.packbits`` over each value's big-endian bytes, so a
chunk costs the same handful of NumPy calls at every bit width, with no
Python loop over bits or samples.  A regular cadence (every timestamp
delta-of-delta zero) decodes as one ``arange``.  A chunk holds at most
:data:`CHUNK_SAMPLES` samples and is immutable once encoded; compaction
merges adjacent undersized chunks (one decode each → re-encode) once
:data:`COMPACTION_TRIGGER` of them pile up, so a drip of tiny demotions
converges to full-size chunks.  Both are module constants, not settings:
a store only switches its archive on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StoreError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CHUNK_SAMPLES",
    "COMPACTION_TRIGGER",
    "ColdChunk",
    "ArchiveTier",
    "encode_timestamps",
    "decode_timestamps",
    "encode_values",
    "decode_values",
]

_SIGN = np.uint64(1) << np.uint64(63)
_ONE = np.uint64(1)

#: Target samples per encoded chunk.  Demotions larger than this are
#: split; compaction merges adjacent chunks back up toward it.
CHUNK_SAMPLES = 8192

#: A series' chunk list is compacted opportunistically once it holds this
#: many chunks below half of :data:`CHUNK_SAMPLES`.
COMPACTION_TRIGGER = 8

#: Largest power-of-two scale tried when coercing timestamps to ticks.
_MAX_TICK_SHIFT = 40
#: Tick magnitudes must stay exactly representable in float64.
_MAX_TICKS = float(1 << 53)


# ---------------------------------------------------------------------------
# Bit-level helpers (byte-plane kernels: no Python loop, uint8 intermediates)
#
# A value's big-endian bytes unpack into its 64 bits MSB-first, so an
# (n, width) matrix holding each value's low ``width`` bits, flattened row
# by row, is exactly the MSB-first bit stream the on-disk format holds.
# ---------------------------------------------------------------------------
def _pack_width(vals: np.ndarray, width: int) -> np.ndarray:
    """Pack uint64 ``vals`` (< 2**width each) at ``width`` bits into bytes."""
    if width == 0 or vals.size == 0:
        return np.empty(0, dtype=np.uint8)
    # Shifted to the top of the word, the low bits are the first columns.
    top = vals << np.uint64(64 - width)
    be = top.astype(">u8").view(np.uint8).reshape(-1, 8)
    return np.packbits(np.unpackbits(be, axis=1, count=width))


def _unpack_width(packed: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_width`: recover ``n`` uint64 values."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.zeros((n, 64), dtype=np.uint8)
    bits[:, 64 - width:] = np.unpackbits(
        packed, count=n * width).reshape(n, width)
    return np.packbits(bits, axis=1).view(">u8").ravel().astype(np.uint64)


def _width_of(vals: np.ndarray) -> int:
    """Bits needed for the widest value (0 when empty or all zero)."""
    if vals.size == 0:
        return 0
    return int(np.bitwise_or.reduce(vals)).bit_length()


def _zigzag(x: np.ndarray) -> np.ndarray:
    """Map int64 to uint64 with small magnitudes staying small."""
    return ((x << np.int64(1)) ^ (x >> np.int64(63))).view(np.uint64)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    neg = (z & _ONE).astype(np.int64)
    return (z >> _ONE).view(np.int64) ^ np.negative(neg)


def _float_key(times: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 key of float64 (monotone for non-NaN)."""
    bits = times.view(np.uint64)
    return np.where(bits & _SIGN == 0, bits | _SIGN, ~bits)


def _float_unkey(keys: np.ndarray) -> np.ndarray:
    bits = np.where(keys & _SIGN != 0, keys & ~_SIGN, ~keys)
    return bits.view(np.float64)


# ---------------------------------------------------------------------------
# Timestamp codec: delta-of-delta over int64 ticks (or uint64 float keys)
# ---------------------------------------------------------------------------
def _tick_shift(times: np.ndarray) -> Optional[int]:
    """Smallest power-of-two shift making every timestamp an exact int64
    tick (``None`` if no shift up to :data:`_MAX_TICK_SHIFT` works)."""
    if not np.all(np.isfinite(times)):
        return None
    if np.any((times == 0.0) & np.signbit(times)):
        # -0.0 == floor(-0.0) but int ticks cannot hold the sign bit.
        return None
    for shift in range(_MAX_TICK_SHIFT + 1):
        scaled = times * float(1 << shift)
        if np.any(np.abs(scaled) >= _MAX_TICKS):
            return None
        if np.all(scaled == np.floor(scaled)):
            return shift
    return None


def encode_timestamps(times: np.ndarray) -> Tuple[dict, np.ndarray]:
    """Encode non-decreasing float64 timestamps; returns (params, payload).

    The payload is a uint8 array; params is a small JSON-safe dict holding
    the mode, anchors and bit width needed to invert exactly.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    n = times.size
    if n and np.any(np.diff(times) < 0):
        raise StoreError("cold chunk timestamps must be non-decreasing")
    shift = _tick_shift(times) if n else 0
    if shift is not None:
        seq = (times * float(1 << shift)).astype(np.int64)
        mode = "int"
    else:
        seq = _float_key(times).view(np.int64)
        mode = "key"
    if n < 2:
        first = int(seq[0]) if n else 0
        return (
            {"mode": mode, "shift": shift or 0, "n": n,
             "first": first, "d0": 0, "width": 0},
            np.empty(0, dtype=np.uint8),
        )
    deltas = seq[1:] - seq[:-1]  # int64; wraps are impossible for times
    dod = deltas[1:] - deltas[:-1]
    z = _zigzag(dod)
    width = _width_of(z)
    params = {
        "mode": mode,
        "shift": shift or 0,
        "n": n,
        "first": int(seq[0]),
        "d0": int(deltas[0]),
        "width": width,
    }
    return params, _pack_width(z, width)


def decode_timestamps(params: dict, payload: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`encode_timestamps`."""
    n = int(params["n"])
    if n == 0:
        return np.empty(0, dtype=np.float64)
    width = int(params["width"])
    if width == 0:
        # Regular cadence: every delta-of-delta is zero.  int64 arithmetic
        # wraps exactly like the cumsum path, so key mode is covered too.
        seq = np.arange(n, dtype=np.int64) * np.int64(params["d0"])
        seq += np.int64(params["first"])
    else:
        seq = np.empty(n, dtype=np.int64)
        seq[0] = params["first"]
        dod = _unzigzag(_unpack_width(payload, n - 2, width))
        deltas = np.empty(n - 1, dtype=np.int64)
        deltas[0] = params["d0"]
        deltas[1:] = params["d0"] + np.cumsum(dod)
        seq[1:] = seq[0] + np.cumsum(deltas)
    if params["mode"] == "int":
        return seq.astype(np.float64) / float(1 << int(params["shift"]))
    return _float_unkey(seq.view(np.uint64))


# ---------------------------------------------------------------------------
# Value codec: XOR packing with a zero-XOR bitmap
# ---------------------------------------------------------------------------
def encode_values(values: np.ndarray) -> Tuple[dict, np.ndarray, np.ndarray]:
    """Encode float64 values; returns (params, bitmap, payload)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return (
            {"n": 0, "first": 0, "nonzero": 0, "trail": 0, "width": 0},
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.uint8),
        )
    bits = values.view(np.uint64)
    xors = bits[1:] ^ bits[:-1]
    nonzero = xors != 0
    xs = xors[nonzero]
    if xs.size:
        merged = int(np.bitwise_or.reduce(xs))
        trail = (merged & -merged).bit_length() - 1
        width = merged.bit_length() - trail
        payload = _pack_width(xs >> np.uint64(trail), width)
    else:
        trail = 0
        width = 0
        payload = np.empty(0, dtype=np.uint8)
    params = {
        "n": n,
        "first": int(bits[0]),
        "nonzero": int(xs.size),
        "trail": trail,
        "width": width,
    }
    return params, np.packbits(nonzero), payload


def decode_values(
    params: dict, bitmap: np.ndarray, payload: np.ndarray
) -> np.ndarray:
    """Exact inverse of :func:`encode_values`."""
    n = int(params["n"])
    if n == 0:
        return np.empty(0, dtype=np.float64)
    bits = np.empty(n, dtype=np.uint64)
    bits[0] = np.uint64(params["first"])
    if n > 1:
        nonzero = np.unpackbits(bitmap, count=n - 1).view(bool)
        xors = np.zeros(n - 1, dtype=np.uint64)
        sig = _unpack_width(payload, int(params["nonzero"]), int(params["width"]))
        xors[nonzero] = sig << np.uint64(params["trail"])
        bits[1:] = xors
        np.bitwise_xor.accumulate(bits, out=bits)
    return bits.view(np.float64)


# ---------------------------------------------------------------------------
# Chunks
# ---------------------------------------------------------------------------
class ColdChunk:
    """One immutable compressed (times, values) block of a single series."""

    __slots__ = ("count", "t_first", "t_last", "t_params", "v_params",
                 "t_payload", "v_bitmap", "v_payload")

    def __init__(self, count, t_first, t_last, t_params, v_params,
                 t_payload, v_bitmap, v_payload):
        self.count = count
        self.t_first = t_first
        self.t_last = t_last
        self.t_params = t_params
        self.v_params = v_params
        self.t_payload = t_payload
        self.v_bitmap = v_bitmap
        self.v_payload = v_payload

    @classmethod
    def encode(cls, times: np.ndarray, values: np.ndarray) -> "ColdChunk":
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.size != values.size or times.ndim != 1:
            raise StoreError("cold chunk arrays must be 1-D and equal length")
        if times.size == 0:
            raise StoreError("cannot encode an empty cold chunk")
        t_params, t_payload = encode_timestamps(times)
        v_params, v_bitmap, v_payload = encode_values(values)
        return cls(
            count=int(times.size),
            t_first=float(times[0]),
            t_last=float(times[-1]),
            t_params=t_params,
            v_params=v_params,
            t_payload=t_payload,
            v_bitmap=v_bitmap,
            v_payload=v_payload,
        )

    def decode(self) -> Tuple[np.ndarray, np.ndarray]:
        """Recover the exact (times, values) float64 arrays."""
        return (
            decode_timestamps(self.t_params, self.t_payload),
            decode_values(self.v_params, self.v_bitmap, self.v_payload),
        )

    @property
    def nbytes(self) -> int:
        """Encoded payload size (bit-packed arrays; headers excluded)."""
        return (self.t_payload.nbytes + self.v_bitmap.nbytes
                + self.v_payload.nbytes)

    @property
    def raw_nbytes(self) -> int:
        """What the same samples cost in the hot columnar arrays."""
        return self.count * 16

    # -- persistence glue ----------------------------------------------
    def meta(self) -> dict:
        """JSON-safe header describing the chunk (arrays live beside it)."""
        return {
            "count": self.count,
            "t_first": self.t_first,
            "t_last": self.t_last,
            "t_params": self.t_params,
            "v_params": self.v_params,
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "tp": self.t_payload,
            "vb": self.v_bitmap,
            "vp": self.v_payload,
        }

    @classmethod
    def from_meta(
        cls, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> "ColdChunk":
        return cls(
            count=int(meta["count"]),
            t_first=float(meta["t_first"]),
            t_last=float(meta["t_last"]),
            t_params=dict(meta["t_params"]),
            v_params=dict(meta["v_params"]),
            t_payload=np.asarray(arrays["tp"], dtype=np.uint8),
            v_bitmap=np.asarray(arrays["vb"], dtype=np.uint8),
            v_payload=np.asarray(arrays["vp"], dtype=np.uint8),
        )


class ArchiveTier:
    """Per-store cold tier: immutable compressed chunks per series.

    The retention sweep **demotes** expiring hot samples here instead of
    deleting them; reads that reach below the hot window decode the
    overlapping chunks straight into the shared resample kernels.  All
    counters surface as ``telemetry.archive.*`` metrics.
    """

    def __init__(self):
        self._chunks: Dict[str, List[ColdChunk]] = {}
        self.demotions = 0
        self.demoted_samples = 0
        self.cold_scans = 0
        self.scanned_samples = 0
        self.compactions = 0
        self.missing_chunks = 0

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._chunks

    def names(self) -> List[str]:
        return sorted(self._chunks)

    def chunks(self, name: str) -> List[ColdChunk]:
        return list(self._chunks.get(name, ()))

    def chunk_count(self, name: Optional[str] = None) -> int:
        if name is not None:
            return len(self._chunks.get(name, ()))
        return sum(len(c) for c in self._chunks.values())

    def samples(self, name: Optional[str] = None) -> int:
        if name is not None:
            return sum(c.count for c in self._chunks.get(name, ()))
        return sum(
            c.count for chunks in self._chunks.values() for c in chunks
        )

    def first_time(self, name: str) -> float:
        chunks = self._chunks.get(name)
        return chunks[0].t_first if chunks else float("inf")

    def last_time(self, name: str) -> float:
        chunks = self._chunks.get(name)
        return chunks[-1].t_last if chunks else float("-inf")

    @property
    def encoded_bytes(self) -> int:
        return sum(
            c.nbytes for chunks in self._chunks.values() for c in chunks
        )

    @property
    def raw_bytes(self) -> int:
        return sum(
            c.raw_nbytes for chunks in self._chunks.values() for c in chunks
        )

    @property
    def compression_ratio(self) -> float:
        encoded = self.encoded_bytes
        return self.raw_bytes / encoded if encoded else float("nan")

    # -- writes --------------------------------------------------------
    def demote(self, name: str, times: np.ndarray, values: np.ndarray) -> int:
        """Append expiring hot samples as compressed chunks (in order).

        The caller (the retention sweep) guarantees the samples are older
        than everything still hot and newer than everything already cold,
        so the chunk list stays time-sorted by construction.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.size == 0:
            return 0
        chunks = self._chunks.setdefault(name, [])
        if chunks and times[0] < chunks[-1].t_last:
            raise StoreError(
                f"series {name}: demotion at t={times[0]} precedes cold "
                f"tail t={chunks[-1].t_last}"
            )
        size = CHUNK_SAMPLES
        for lo in range(0, times.size, size):
            chunks.append(
                ColdChunk.encode(times[lo:lo + size], values[lo:lo + size])
            )
        self.demotions += 1
        self.demoted_samples += int(times.size)
        self._maybe_compact(name)
        return int(times.size)

    def adopt(self, name: str, chunks: List[ColdChunk]) -> None:
        """Install already-encoded chunks (a persistence load) without a
        decode/encode round trip."""
        if not chunks:
            return
        existing = self._chunks.setdefault(name, [])
        if existing and chunks[0].t_first < existing[-1].t_last:
            raise StoreError(
                f"series {name}: adopted chunks overlap the cold tail"
            )
        existing.extend(chunks)

    # -- reads ---------------------------------------------------------
    def scan(
        self,
        name: str,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode the chunks overlapping ``[since, until]`` and slice.

        Returns freshly-decoded float64 arrays (never views) feeding
        directly into the shared resample kernels.
        """
        chunks = self._chunks.get(name)
        if not chunks:
            return np.empty(0), np.empty(0)
        hits = [
            c for c in chunks if c.t_last >= since and c.t_first <= until
        ]
        if not hits:
            return np.empty(0), np.empty(0)
        self.cold_scans += 1
        parts_t: List[np.ndarray] = []
        parts_v: List[np.ndarray] = []
        for chunk in hits:
            t, v = chunk.decode()
            self.scanned_samples += chunk.count
            if chunk.t_first < since or chunk.t_last > until:
                lo = int(np.searchsorted(t, since, side="left"))
                hi = int(np.searchsorted(t, until, side="right"))
                t, v = t[lo:hi], v[lo:hi]
            parts_t.append(t)
            parts_v.append(v)
        if len(parts_t) == 1:
            return parts_t[0], parts_v[0]
        return np.concatenate(parts_t), np.concatenate(parts_v)

    def value_at(self, name: str, time: float) -> Optional[float]:
        """LOCF lookup inside the cold tier (``None`` when out of range)."""
        chunks = self._chunks.get(name)
        if not chunks or time < chunks[0].t_first:
            return None
        for chunk in reversed(chunks):
            if chunk.t_first <= time:
                t, v = chunk.decode()
                idx = int(np.searchsorted(t, time, side="right")) - 1
                return float(v[idx])
        return None

    # -- compaction ----------------------------------------------------
    def _maybe_compact(self, name: str) -> None:
        chunks = self._chunks.get(name, [])
        small = sum(1 for c in chunks if c.count < CHUNK_SAMPLES // 2)
        if small >= COMPACTION_TRIGGER:
            self.compact(name)

    def compact(self, name: Optional[str] = None) -> int:
        """Merge runs of undersized adjacent chunks; returns merges done.

        Chunks are immutable, so compaction decodes a run and re-encodes
        it as full-size chunks.  Called opportunistically by
        :meth:`demote` and explicitly by the store's background sweep.
        """
        names = [name] if name is not None else list(self._chunks)
        merges = 0
        target = CHUNK_SAMPLES
        for series in names:
            chunks = self._chunks.get(series)
            if not chunks or len(chunks) < 2:
                continue
            out: List[ColdChunk] = []
            run: List[ColdChunk] = []
            run_count = 0

            def flush_run():
                nonlocal merges, run_count
                if len(run) > 1:
                    decoded = [c.decode() for c in run]
                    t = np.concatenate([d[0] for d in decoded])
                    v = np.concatenate([d[1] for d in decoded])
                    for lo in range(0, t.size, target):
                        out.append(
                            ColdChunk.encode(t[lo:lo + target],
                                             v[lo:lo + target])
                        )
                    merges += 1
                else:
                    out.extend(run)
                run.clear()
                run_count = 0

            for chunk in chunks:
                if chunk.count >= target // 2:
                    flush_run()
                    out.append(chunk)
                    continue
                if run_count + chunk.count > target:
                    flush_run()
                run.append(chunk)
                run_count += chunk.count
            flush_run()
            self._chunks[series] = out
        self.compactions += merges
        return merges

    # -- health --------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``telemetry.archive.*`` subtree, built on
        each access: every instrument reads through to the tier."""
        r = MetricsRegistry()
        r.gauge("telemetry.archive.chunks", "cold chunks held",
                fn=lambda: float(self.chunk_count()))
        r.gauge("telemetry.archive.samples", "samples in cold tier",
                fn=lambda: float(self.samples()))
        r.gauge("telemetry.archive.encoded_bytes",
                "compressed cold payload bytes",
                fn=lambda: float(self.encoded_bytes))
        r.gauge("telemetry.archive.raw_bytes",
                "hot-equivalent bytes of cold samples",
                fn=lambda: float(self.raw_bytes))
        r.counter("telemetry.archive.demotions",
                  "retention sweeps that demoted to cold",
                  fn=lambda: float(self.demotions))
        r.counter("telemetry.archive.demoted_samples",
                  "samples demoted to cold",
                  fn=lambda: float(self.demoted_samples))
        r.counter("telemetry.archive.cold_scans",
                  "reads that decoded cold chunks",
                  fn=lambda: float(self.cold_scans))
        r.counter("telemetry.archive.scanned_samples",
                  "samples decoded from cold chunks",
                  fn=lambda: float(self.scanned_samples))
        r.counter("telemetry.archive.compactions",
                  "cold chunk merge passes",
                  fn=lambda: float(self.compactions))
        r.counter("telemetry.archive.missing_chunks",
                  "cold chunks missing at load (degraded to raw)",
                  fn=lambda: float(self.missing_chunks))
        return r
