"""Sample batches: the wire format of the telemetry pipeline.

Samplers produce :class:`SampleBatch` objects — a timestamp plus parallel
arrays of metric names and values — which flow over the message bus into the
time-series store.  Batches use NumPy arrays rather than per-sample objects
so that a full-cluster scrape is a single vectorized append on the store
side (see the hpc-parallel guides: vectorize the hot path, avoid per-element
Python objects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SampleBatch", "bound_batch", "merge_batches"]


@dataclass(frozen=True)
class SampleBatch:
    """A set of simultaneous samples taken at one timestamp.

    Attributes
    ----------
    time:
        Sample timestamp (simulation seconds).
    names:
        Tuple of metric names; parallel to ``values``.
    values:
        1-D ``float64`` array of sampled values.
    """

    time: float
    names: Tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if len(self.names) != values.shape[0]:
            raise ValueError(
                f"{len(self.names)} names but {values.shape[0]} values"
            )

    @classmethod
    def from_mapping(cls, time: float, mapping: Mapping[str, float]) -> "SampleBatch":
        """Build a batch from a ``{name: value}`` dict (iteration order kept)."""
        return bound_batch(time, mapping, ())

    def _name_index(self) -> Dict[str, int]:
        """Lazy ``name -> position`` map; duplicate names keep the last
        occurrence (last writer wins, matching store semantics)."""
        index = self.__dict__.get("_index")
        if index is None:
            index = {n: i for i, n in enumerate(self.names)}
            object.__setattr__(self, "_index", index)
        return index

    def get(self, name: str, default: Optional[float] = None) -> Optional[float]:
        """Value for ``name`` as a Python float, or ``default`` if absent.

        O(1) after the first lookup on a batch — the hot-path alternative to
        building a full :meth:`as_dict` per batch in streaming stages.
        """
        i = self._name_index().get(name)
        return default if i is None else float(self.values[i])

    def __contains__(self, name: str) -> bool:
        return name in self._name_index()

    def as_dict(self) -> Dict[str, float]:
        """Return ``{name: value}``; values as Python floats."""
        return dict(zip(self.names, self.values.tolist()))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(zip(self.names, self.values.tolist()))

    def subset(self, names: Sequence[str]) -> "SampleBatch":
        """Return a batch restricted to ``names`` (missing names dropped)."""
        index = self._name_index()
        keep = [n for n in names if n in index]
        idx = np.fromiter((index[n] for n in keep), dtype=np.intp, count=len(keep))
        return SampleBatch(self.time, tuple(keep), self.values[idx])


def bound_batch(
    time: float, mapping: Mapping[str, float], names: Tuple[str, ...]
) -> SampleBatch:
    """A batch of ``mapping`` that carries ``names`` itself when the
    mapping's keys equal it, in order.

    A periodic publisher passes its previous batch's names, so a source
    whose keys do not change yields one shared tuple: downstream caches
    keyed on ``batch.names`` then match by identity, and retained batches
    share one set of strings.  Changed keys get a fresh tuple.
    """
    keys = tuple(mapping)
    values = np.fromiter(mapping.values(), dtype=np.float64, count=len(keys))
    return SampleBatch(time, names if keys == names else keys, values)


def merge_batches(batches: Sequence[SampleBatch]) -> SampleBatch:
    """Merge simultaneous batches into one.

    All batches must share the same timestamp.  Later batches win on
    duplicate metric names, mirroring last-writer-wins store semantics.
    """
    if not batches:
        raise ValueError("cannot merge zero batches")
    time = batches[0].time
    for batch in batches[1:]:
        if batch.time != time:
            raise ValueError(
                f"cannot merge batches at different times: {time} vs {batch.time}"
            )
    if len(batches) == 1:
        return batches[0]
    merged: Dict[str, float] = {}
    for batch in batches:
        merged.update(zip(batch.names, batch.values.tolist()))
    return SampleBatch.from_mapping(time, merged)
