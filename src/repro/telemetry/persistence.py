"""Store persistence: save/load the time-series archive to ``.npz``.

Production monitoring databases persist to disk; the substrate equivalent
lets long simulations be archived once and analyzed repeatedly (examples,
notebooks, regression baselines) without re-running the simulator.

Single-store format (v4, the only one written or read): one compressed
``.npz`` with two arrays per series (``<name>::t``, ``<name>::v``) plus a
small JSON header under ``__meta__``.  The header records the store
configuration and the tiered-storage state:

* ``retention`` and the ``rollups`` / ``archive`` switches (booleans)
  round-trip through the header, so a reloaded store trims, demotes and
  pre-aggregates exactly like the saved one.  Older headers record a tier
  as its configuration dict (or ``null`` when off); such a tier loads
  switched on, with the shape its module now fixes.  They may also carry
  the staging threshold and retention slack, which are now store
  constants; loading ignores them,
* cold chunks are persisted **still encoded** (delta-of-delta timestamps,
  XOR-packed values) under ``__cold__::<name>::<i>::{tp,vb,vp}`` with
  their codec parameters in the header — saving and loading never pays a
  decode/re-encode round trip, and the on-disk size keeps the cold tier's
  compression ratio,
* materialized rollup tiers are persisted per series under
  ``__rollup__::<name>::<ti>::{idx,sum,min,max,cnt}`` with cursors in the
  header, so long-horizon rollup memory survives a reload even for ranges
  whose raw samples were only ever held by the saved process.

Archives are *crash- and corruption-evident*:

* every payload array carries a CRC in the header (``checksums``) and the
  header itself is covered by a ``__metacrc__`` trailer, so a flipped bit
  anywhere is detected rather than silently served,
* every write goes through write-temp-then-rename (:mod:`repro.ioutil`),
  so a crash mid-save leaves the previous archive intact,
* sharded saves stamp the manifest and every shard file with one
  ``save_id``; a shard file from a different save generation (crash
  between shard writes and the manifest commit) is refused loudly instead
  of being mixed into the wrong topology,
* a store with a write-ahead journal gets its journal truncated
  (``mark_durable``) after a successful save — the archive now owns that
  data.

Damage handling is tiered like the rest of the pipeline: an archive with
a damaged array **degrades** — the broken series/chunk/tier is skipped
with a warning and counted in the reloaded store's
``telemetry.durability.corrupt_artifacts`` (cold chunks also count in
``telemetry.archive.missing_chunks``) — while structural damage (an
unreadable file, a damaged header) and a header of any other format
version (the pre-checksum v1–v3 included) raises a typed
:class:`~repro.errors.PersistenceError` carrying the path and, when known,
the byte offset of the damaged zip member.

Sharded format: a :class:`~repro.telemetry.distributed.ShardedStore`
deployment persists as one manifest ``.npz`` (header only: topology +
shard file names + config) plus one ordinary store archive per shard next
to it — ``run.npz`` → ``run.shard0.npz`` … ``run.shard<N-1>.npz``.  Each
shard archive is itself a valid single-store archive, so individual
shards can be inspected with :func:`load_store` directly.  On load,
series are routed through the reconstructed store's partitioner
(placement is re-derived from names, not trusted from the files) and
replicas are rebuilt by the normal write fan-out; cold chunks and rollup
state are installed on every member of the owning replica set.  A
damaged or missing shard file degrades that member's data only — the
remaining shards still load.

Parallel deployments (worker-process members) are saved through the
member proxies, which merge cold and hot samples into one raw stream per
series.  The switches written are the deployment's own, never asked of a
member, so a reload re-demotes old samples into fresh cold chunks as
retention advances.
"""

from __future__ import annotations

import json
import logging
import os
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import PersistenceError
from repro.ioutil import CRC_ALGO, atomic_open, crc32
from repro.telemetry.archive import ColdChunk
from repro.telemetry.store import TimeSeriesStore

__all__ = ["save_store", "load_store"]

log = logging.getLogger(__name__)

_META_KEY = "__meta__"
_META_CRC_KEY = "__metacrc__"
_FORMAT_VERSION = 4  # the only version written, and the only one read

#: Array keys making up one persisted cold chunk / rollup tier.
_COLD_FIELDS = ("tp", "vb", "vp")
_ROLLUP_FIELDS = ("idx", "sum", "min", "max", "cnt")


def _encode_meta(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _array_crc(arr: np.ndarray) -> int:
    a = np.ascontiguousarray(arr)
    crc = crc32(f"{a.dtype.str}:{a.shape}".encode("ascii"))
    return crc32(a.tobytes(), crc)


def _member_offset(archive, key: str) -> Optional[int]:
    """Byte offset of a zip member inside the archive file, when known."""
    try:
        return int(archive.zip.getinfo(key + ".npy").header_offset)
    except Exception:
        return None


def _open_archive(path: str):
    try:
        return np.load(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise PersistenceError(
            f"{path}: unreadable archive: {exc}", path=path
        ) from exc


def _read_meta(archive, path: str) -> dict:
    if _META_KEY not in archive:
        raise PersistenceError(
            f"{path}: not a repro store archive (missing header)", path=path
        )
    try:
        raw = bytes(archive[_META_KEY])
        meta = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        raise PersistenceError(
            f"{path}: damaged archive header: {exc}",
            path=path,
            offset=_member_offset(archive, _META_KEY),
        ) from exc
    if meta.get("version") != _FORMAT_VERSION:
        raise PersistenceError(
            f"{path}: unsupported archive version {meta.get('version')!r} "
            f"(readable: {_FORMAT_VERSION})",
            path=path,
        )
    try:
        stored = int(archive[_META_CRC_KEY][0])
    except Exception as exc:
        raise PersistenceError(
            f"{path}: archive header checksum is missing or unreadable",
            path=path,
            offset=_member_offset(archive, _META_CRC_KEY),
        ) from exc
    if crc32(raw) != stored:
        raise PersistenceError(
            f"{path}: archive header failed its checksum",
            path=path,
            offset=_member_offset(archive, _META_KEY),
        )
    return meta


def _config_meta(store) -> dict:
    """The construction a header records: retention and the tier switches.
    A sharded store keeps its switches as bools; a plain store's switch is
    on when it holds the tier."""
    rollups, archive = store.rollups, store.archive
    if isinstance(store, TimeSeriesStore):
        rollups, archive = rollups is not None, archive is not None
    return {"retention": store.retention, "rollups": rollups, "archive": archive}


def _npz_path(path: str) -> str:
    # np.savez_compressed(str_path) appends ".npz"; the atomic writer hands
    # it a file object, so normalize explicitly to keep the historical
    # destination names.
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def _shard_paths(path: str, shards: int) -> List[str]:
    base, ext = os.path.splitext(path)
    if ext != ".npz":
        base, ext = path, ".npz"
    return [f"{base}.shard{i}{ext}" for i in range(shards)]


def _write_archive(path: str, payload: dict, meta: dict) -> None:
    """Checksum and atomically write one ``.npz`` artifact."""
    meta["checksums"] = {k: _array_crc(v) for k, v in payload.items()}
    meta["crc_algo"] = CRC_ALGO
    blob = _encode_meta(meta)
    payload[_META_KEY] = blob
    payload[_META_CRC_KEY] = np.array([crc32(blob.tobytes())], dtype=np.uint64)
    with atomic_open(_npz_path(path), "wb") as fh:
        np.savez_compressed(fh, **payload)


def _save_single(
    store, path: str, names: Optional[Sequence[str]],
    save_id: Optional[str] = None, config: Optional[dict] = None,
) -> int:
    """Save one store.  A shard member is handed ``config``, the
    :func:`_config_meta` of its deployment, so no member is asked what
    tiers it has."""
    # Compact staged samples up front so the archive never misses in-flight
    # data (series() also flushes per read, but an explicit full flush keeps
    # the saved samples_ingested/flush counters consistent too).
    store.flush()
    journal = getattr(store, "journal", None)
    journal_seq = journal.flush() if journal is not None else 0
    tier = getattr(store, "archive", None)
    engine = getattr(store, "rollups", None)
    if config is None:
        config = _config_meta(store)
    # A worker-process proxy holds no tier objects; its query() merges
    # cold + hot, so the saved stream is complete and a reload re-demotes
    # as retention advances.
    merged_raw = config["archive"] and tier is None
    if names is not None:
        selected = list(names)
    else:
        selected = store.names()
        if tier is not None:
            known = set(selected)
            selected = sorted(
                known.union(n for n in tier.names() if n not in known)
            )
    payload = {}
    cold_meta = {}
    rollup_meta = {}
    for name in selected:
        if merged_raw:
            times, values = store.query(name)
            payload[f"{name}::t"] = times
            payload[f"{name}::v"] = values
            continue
        if name in store:
            series = store.series(name)
            payload[f"{name}::t"] = series.times.copy()
            payload[f"{name}::v"] = series.values.copy()
        else:
            # Cold-only series (all samples demoted, hot buffer never
            # recreated after a load): hot arrays are empty.
            payload[f"{name}::t"] = np.empty(0)
            payload[f"{name}::v"] = np.empty(0)
        if tier is not None and name in tier:
            metas = []
            for i, chunk in enumerate(tier.chunks(name)):
                metas.append(chunk.meta())
                for field, arr in chunk.arrays().items():
                    payload[f"__cold__::{name}::{i}::{field}"] = arr
            cold_meta[name] = metas
        if engine is not None:
            tiers = []
            for ti, (step, cursor, arrays) in enumerate(
                engine.tier_state(name)
            ):
                tiers.append({"step": step, "cursor": int(cursor)})
                for field, arr in arrays.items():
                    payload[f"__rollup__::{name}::{ti}::{field}"] = arr
            if tiers:
                rollup_meta[name] = tiers
    meta = {
        "version": _FORMAT_VERSION,
        "kind": "store",
        "series": selected,
        "samples": int(store.samples_ingested),
        **config,
    }
    if save_id is not None:
        meta["save_id"] = save_id
    if cold_meta:
        meta["cold"] = cold_meta
    if rollup_meta:
        meta["rollup_state"] = rollup_meta
    _write_archive(path, payload, meta)
    if journal is not None:
        # The archive now owns everything journaled up to the snapshot;
        # covered journal segments can be pruned.
        store.journal_mark_durable(journal_seq)
    return len(selected)


def _save_sharded(store, path: str, names: Optional[Sequence[str]]) -> int:
    store.flush()
    save_id = os.urandom(8).hex()
    shard_paths = _shard_paths(path, store.shards)
    config = _config_meta(store)
    total = 0
    # Shard archives first, the manifest last: the manifest is the commit
    # record, and its save_id refuses shard files from another generation.
    for rs, shard_path in zip(store.replica_sets, shard_paths):
        serving = rs.read_store()
        shard_names = (
            [n for n in names if n in serving] if names is not None else None
        )
        total += _save_single(
            serving, shard_path, shard_names, save_id=save_id, config=config,
        )
    meta = {
        "version": _FORMAT_VERSION,
        "kind": "sharded",
        "shards": store.shards,
        "replication": store.replication,
        "partitioner": getattr(store.partitioner, "name", "custom"),
        "shard_files": [os.path.basename(p) for p in shard_paths],
        "series": total,
        "save_id": save_id,
        **config,
    }
    _write_archive(path, {}, meta)
    return total


def save_store(
    store, path: str, names: Optional[Sequence[str]] = None
) -> int:
    """Write the store (or a subset of series) to ``path``.

    Accepts a :class:`TimeSeriesStore` or a
    :class:`~repro.telemetry.distributed.ShardedStore` (saved as a manifest
    plus one archive per shard).  Staged samples are flushed first, so an
    archive always contains every ingested sample.  Cold chunks are saved
    still-encoded and rollup tiers are saved materialized, so tiered
    history survives the round trip.  Every file is checksummed and
    written atomically (temp + rename), so a crash mid-save leaves the
    previous archive intact.  Returns the number of series written.
    """
    from repro.telemetry.distributed.shard import ShardedStore

    if isinstance(store, ShardedStore):
        return _save_sharded(store, path, names)
    return _save_single(store, path, names)


def _store_kwargs(meta: dict) -> dict:
    """Constructor arguments recorded by :func:`_config_meta`.  A tier
    recorded in the old dict form (its config object) loads switched on."""
    return {
        "retention": meta["retention"],
        "rollups": bool(meta["rollups"]),
        "archive": bool(meta["archive"]),
    }


def _member_stores(store, name: str):
    """Every member store that must hold ``name`` after the load.

    A plain store is its own single member; a sharded store fans cold
    chunks and rollup state out to every replica of the owning shard (hot
    samples take the ordinary ``append_many`` fan-out).
    """
    replica_sets = getattr(store, "replica_sets", None)
    if replica_sets is None:
        return (store,)
    return tuple(replica_sets[store.shard_of(name)].members)


class _ArchiveReader:
    """Checksum-verifying array access over one open ``.npz``.

    Damage (CRC mismatch, undecompressable or missing member) returns
    ``None`` and is counted in :attr:`damaged`.
    """

    def __init__(self, archive, meta: dict, path: str):
        self.archive = archive
        self.path = path
        self.checksums = meta.get("checksums") or {}
        self.damaged: List[str] = []

    def get(self, key: str) -> Optional[np.ndarray]:
        try:
            arr = self.archive[key]
        except Exception as exc:  # missing, undecompressable, bad zip CRC
            self._degrade(key, f"unreadable ({exc})")
            return None
        expected = self.checksums.get(key)
        if expected is not None and _array_crc(arr) != int(expected):
            self._degrade(key, "checksum mismatch")
            return None
        return arr

    def _degrade(self, key: str, why: str) -> None:
        self.damaged.append(key)
        log.warning(
            "%s: array %r is corrupt (%s); loading degraded",
            self.path, key, why,
        )


def _load_cold_chunks(reader: _ArchiveReader, name: str, metas):
    """Decode-free chunk reconstruction; damaged arrays degrade, not fail."""
    chunks, missing = [], 0
    for i, chunk_meta in enumerate(metas):
        arrays = {
            f: reader.get(f"__cold__::{name}::{i}::{f}") for f in _COLD_FIELDS
        }
        if any(a is None for a in arrays.values()):
            missing += 1
            log.warning(
                "%s: cold chunk %d of series %r is missing or corrupt; "
                "loading degraded (%d samples lost)",
                reader.path, i, name, int(chunk_meta.get("count", 0)),
            )
            continue
        chunks.append(ColdChunk.from_meta(chunk_meta, arrays))
    return chunks, missing


def _load_series_into(store, reader: _ArchiveReader, meta: dict) -> None:
    cold_meta = meta.get("cold") or {}
    rollup_meta = meta.get("rollup_state") or {}
    for name in meta["series"]:
        members = _member_stores(store, name)
        if name in cold_meta:
            chunks, missing = _load_cold_chunks(reader, name, cold_meta[name])
            for member in members:
                tier = getattr(member, "archive", None)
                if tier is None:
                    continue
                tier.missing_chunks += missing
                if chunks:
                    tier.adopt(name, chunks)
        if name in rollup_meta:
            arrays_per_tier = [
                {
                    f: reader.get(f"__rollup__::{name}::{ti}::{f}")
                    for f in _ROLLUP_FIELDS
                }
                for ti in range(len(rollup_meta[name]))
            ]
            if all(
                a is not None for tier_arrays in arrays_per_tier
                for a in tier_arrays.values()
            ):
                state = [
                    (float(entry["step"]), int(entry["cursor"]), tier_arrays)
                    for entry, tier_arrays in zip(
                        rollup_meta[name], arrays_per_tier
                    )
                ]
                for member in members:
                    engine = getattr(member, "rollups", None)
                    if engine is not None:
                        engine.restore(name, state)
            else:
                log.warning(
                    "%s: rollup state of series %r is corrupt; loading "
                    "degraded (tiers rebuild from raw)", reader.path, name,
                )
        # Hot tail last: append continues rollup maintenance from the
        # restored cursors over the adopted cold + appended hot range,
        # which reproduces the saved tiers bit-for-bit.
        times = reader.get(f"{name}::t")
        values = reader.get(f"{name}::v")
        if times is None or values is None:
            log.warning(
                "%s: hot samples of series %r are corrupt; series skipped",
                reader.path, name,
            )
            continue
        store.append_many(name, times, values)


def _count_damage(store, pieces: int) -> None:
    if pieces and hasattr(store, "corrupt_artifacts"):
        store.corrupt_artifacts += pieces


def _load_sharded(path: str, meta: dict):
    from repro.telemetry.distributed.shard import ShardedStore

    store = ShardedStore(
        shards=int(meta["shards"]),
        replication=int(meta.get("replication", 0)),
        **_store_kwargs(meta),
    )
    save_id = meta.get("save_id")
    directory = os.path.dirname(os.path.abspath(path))
    for shard_file in meta["shard_files"]:
        shard_path = os.path.join(directory, shard_file)
        # A damaged shard archive degrades that shard only, exactly like a
        # missing cold chunk: warn, count, keep loading the healthy shards.
        try:
            archive = _open_archive(shard_path)
        except (PersistenceError, FileNotFoundError) as exc:
            log.warning(
                "%s: shard archive is unreadable (%s); loading degraded",
                shard_path, exc,
            )
            _count_damage(store, 1)
            continue
        with archive:
            try:
                shard_meta = _read_meta(archive, shard_path)
            except PersistenceError as exc:
                log.warning(
                    "%s: shard archive is damaged (%s); loading degraded",
                    shard_path, exc,
                )
                _count_damage(store, 1)
                continue
            if save_id is not None and shard_meta.get("save_id") != save_id:
                log.warning(
                    "%s: shard archive belongs to save generation %r, the "
                    "manifest to %r (crash between shard writes and the "
                    "manifest commit); shard skipped",
                    shard_path, shard_meta.get("save_id"), save_id,
                )
                _count_damage(store, 1)
                continue
            reader = _ArchiveReader(archive, shard_meta, shard_path)
            # Routed through the partitioner (append_many / per-name member
            # resolution), so placement is consistent even if the shard
            # files were produced under a different partitioner or shard
            # count.
            _load_series_into(store, reader, shard_meta)
            _count_damage(store, len(reader.damaged))
    return store


def load_store(path: str) -> Union[TimeSeriesStore, "object"]:
    """Load a store previously written by :func:`save_store`.

    Returns a :class:`TimeSeriesStore`, or a
    :class:`~repro.telemetry.distributed.ShardedStore` when ``path`` is a
    sharded-deployment manifest.  Cold chunks (still encoded) and
    materialized rollup tiers are restored.  Damage in an archive degrades
    per series/chunk/shard (counted in
    ``telemetry.durability.corrupt_artifacts``); structural damage and a
    header of any version but the current one raise
    :class:`~repro.errors.PersistenceError`.
    """
    with _open_archive(path) as archive:
        meta = _read_meta(archive, path)
        if meta.get("kind") == "sharded":
            return _load_sharded(path, meta)
        store = TimeSeriesStore(**_store_kwargs(meta))
        reader = _ArchiveReader(archive, meta, path)
        _load_series_into(store, reader, meta)
        _count_damage(store, len(reader.damaged))
    return store
