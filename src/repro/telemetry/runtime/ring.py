"""Shared-memory sample rings: the parent→worker ingest transport.

One :class:`SampleRing` connects the parent process (producer) to one shard
worker (consumer).  It is a bounded single-producer/single-consumer ring of
fixed-width slots backed by ``multiprocessing`` raw shared arrays, viewed as
NumPy arrays on both sides, so pushing a batch is two ``memcpy``-speed array
writes and popping is two array reads — no pickling on the hot path.

Each slot carries one (sub-)batch: the scrape timestamp, an interned
``names_id`` standing in for the batch's metric-name tuple (names travel
once over the command pipe, not per batch — LDMS-style dictionary
compression of the wire format), and up to ``slot_width`` float64 values.

Three monotonic sequence counters, each written by exactly one side:

* ``head``     — slots pushed (producer-owned),
* ``applied``  — slots consumed and applied by the worker (consumer-owned),
* ``acked``    — slots the producer may reclaim (consumer-owned).

``acked`` trails ``applied`` only under ``"wal"`` durability, where a slot
is acknowledged once its journal record has been handed to the OS.
Because slots are reclaimed at ``acked`` — not ``applied`` — the window
``[acked, head)`` stays intact in shared memory across a worker crash and
is replayed by the restarted worker, which is what makes acknowledged
batches durable.  A full ring (``head - acked == capacity``) is the
explicit backpressure signal surfaced via ``telemetry.runtime.*`` metrics.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Optional, Tuple

import numpy as np

__all__ = ["SampleRing"]


class SampleRing:
    """Bounded SPSC ring of fixed-width sample-batch slots in shared memory.

    Parameters
    ----------
    capacity:
        Number of slots (bounds unacknowledged batches; the backpressure
        horizon).
    slot_width:
        Maximum samples per slot.  Wider batches are chunked by the caller.
    """

    def __init__(self, capacity: int = 128, slot_width: int = 2048):
        if capacity < 1 or slot_width < 1:
            raise ValueError("capacity and slot_width must be >= 1")
        self.capacity = capacity
        self.slot_width = slot_width
        # Raw (lockless) shared arrays: SPSC with single-writer counters
        # needs no locks, and raw arrays are inheritable by child processes.
        self._raw_values = mp.RawArray("d", capacity * slot_width)
        self._raw_times = mp.RawArray("d", capacity)
        self._raw_meta = mp.RawArray("q", capacity * 2)  # (names_id, count)
        self._head = mp.RawValue("q", 0)
        self._applied = mp.RawValue("q", 0)
        self._acked = mp.RawValue("q", 0)
        self._attach_views()

    def _attach_views(self) -> None:
        self.values = np.frombuffer(self._raw_values, dtype=np.float64).reshape(
            self.capacity, self.slot_width
        )
        self.times = np.frombuffer(self._raw_times, dtype=np.float64)
        self.meta = np.frombuffer(self._raw_meta, dtype=np.int64).reshape(
            self.capacity, 2
        )

    # ------------------------------------------------------------------
    # Pickling (spawn start-method support): views are rebuilt on attach.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        for view in ("values", "times", "meta"):
            state.pop(view, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._attach_views()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        return self._head.value

    @property
    def applied(self) -> int:
        return self._applied.value

    @property
    def acked(self) -> int:
        return self._acked.value

    @property
    def backlog(self) -> int:
        """Slots pushed but not yet applied."""
        return self._head.value - self._applied.value

    @property
    def unacked(self) -> int:
        """Slots occupying ring space (pushed but not yet reclaimable)."""
        return self._head.value - self._acked.value

    @property
    def free_slots(self) -> int:
        return self.capacity - self.unacked

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def try_push(self, names_id: int, time: float, values: np.ndarray) -> bool:
        """Push one slot; returns ``False`` (backpressure) when full.

        ``values`` must be 1-D float64 with ``size <= slot_width``.
        """
        head = self._head.value
        if head - self._acked.value >= self.capacity:
            return False
        slot = head % self.capacity
        n = values.shape[0]
        self.values[slot, :n] = values
        self.times[slot] = time
        self.meta[slot, 0] = names_id
        self.meta[slot, 1] = n
        # Publish after the slot contents are in place (single producer).
        self._head.value = head + 1
        return True

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def read_slot(self, seq: int) -> Tuple[int, float, np.ndarray]:
        """Read slot ``seq`` (must satisfy ``acked <= seq < head``).

        Returns ``(names_id, time, values_view)``; the values view is only
        valid until the slot is reclaimed (``acked`` advancing past it), so
        consumers must copy before holding on to it.
        """
        slot = seq % self.capacity
        names_id = int(self.meta[slot, 0])
        n = int(self.meta[slot, 1])
        return names_id, float(self.times[slot]), self.values[slot, :n]

    def mark_applied(self, seq: int) -> None:
        """Advance the applied watermark to ``seq`` (consumer only)."""
        self._applied.value = seq

    def mark_acked(self, seq: int) -> None:
        """Advance the reclaim watermark to ``seq`` (consumer only)."""
        self._acked.value = seq

    def rebase(self, seq: int) -> None:
        """Start an unused ring's sequence at ``seq`` (consumer only; the
        producer must not push before this returns)."""
        self._head.value = self._applied.value = self._acked.value = seq

    def reset_consumer(self, seq: Optional[int] = None) -> None:
        """Rewind the consumer cursor after a worker restart.

        The restarted worker resumes from ``acked`` (the last durable
        point); everything in ``[acked, head)`` is replayed.
        """
        self._applied.value = self._acked.value if seq is None else seq
