"""Scalar per-bucket resampling: the reference the kernel tests compare to.

One Python-level call of the :data:`~repro.telemetry.store.AGGREGATIONS`
callable per non-empty bucket, over raw samples fetched with ``query`` — no
``reduceat`` kernel and no rollup tier is involved, so agreement with
``resample``/``align`` checks both.  Works on anything with the store read
surface (a plain, sharded or parallel store).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.telemetry.store import AGGREGATIONS, bucket_edges, forward_fill


def scalar_resample(
    store, name: str, since: float, until: float, step: float,
    agg: str = "mean",
) -> Tuple[np.ndarray, np.ndarray]:
    """``store.resample`` semantics, one bucket at a time."""
    edges = bucket_edges(since, until, step)
    times, values = store.query(name, since, until)
    out = np.full(edges.size - 1, np.nan)
    idx = np.searchsorted(times, edges)
    idx[-1] = times.size  # the final bucket is closed at ``until``
    agg_fn = AGGREGATIONS[agg]
    for i in range(out.size):
        if idx[i + 1] > idx[i]:
            out[i] = agg_fn(values[idx[i]:idx[i + 1]])
    return edges[:-1], out


def scalar_align(
    store, names: Sequence[str], since: float, until: float, step: float,
    agg: str = "mean", fill: str = "ffill",
) -> Tuple[np.ndarray, np.ndarray]:
    """``store.align`` semantics over :func:`scalar_resample` columns."""
    columns = []
    for name in names:
        grid, v = scalar_resample(store, name, since, until, step, agg)
        columns.append(forward_fill(v) if fill == "ffill" else v)
    return grid, np.column_stack(columns)
