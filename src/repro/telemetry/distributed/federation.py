"""Federated queries over a sharded store.

The single query front-end of a distributed monitoring deployment (DCDB's
libdcdb fanning a query out over per-node storage backends): callers ask
for series by name or pattern and never see which shard holds what.

Partitioning is by series name, so a single-series read routes straight to
the owning shard and runs that shard's own fast path.  The federated part
is everything spanning shards:

* ``names``/``select`` — k-way merge of the shards' sorted name lists
  (disjoint by construction, so the merge is a plain heapq merge),
* ``align`` — the same body as
  :meth:`~repro.telemetry.store.TimeSeriesStore.align`
  (:func:`~repro.telemetry.store.align_columns`: one shared bucket-edge
  grid), with each column produced by the owning shard's
  ``resample_column`` (the shared
  :func:`~repro.telemetry.store.resample_onto` kernels behind the rollup
  planner).  Because the federated path and the single-store path execute
  the same kernel on the same per-series samples, results are bit-for-bit
  identical.

The engine is internal to :class:`~repro.telemetry.distributed.shard.ShardedStore`,
whose read verbs build one per query and forward to it.  That object is the
query's pinned view: it resolves each shard it touches to the serving
member once, on first touch, and reuses that member for every leg of the
query, so one merged result never mixes a failed primary's view with a
replica's.  The store keeps no engine, so nothing points back at it.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs import OBS as _OBS
from repro.telemetry.store import align_columns

__all__ = ["FederatedQueryEngine"]


class FederatedQueryEngine:
    """One query's fan-out over a :class:`ShardedStore`'s shards, and merge.

    Built by a ``ShardedStore`` for each read it delegates here.  The
    query counts in the store's ``fanouts`` when it first touches a shard.
    """

    def __init__(self, sharded):
        self._sharded = sharded
        self._stores: Dict[int, object] = {}

    def _store(self, shard: int):
        """The member serving ``shard`` for this query, resolved on first
        touch (lazily, so a fully-down shard the query never touches
        cannot fail it)."""
        store = self._stores.get(shard)
        if store is None:
            if not self._stores:
                self._sharded.fanouts += 1
            store = self._stores[shard] = (
                self._sharded.replica_sets[shard].read_store()
            )
        return store

    # ------------------------------------------------------------------
    # Catalog queries: merge per-shard sorted name lists
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All series names across shards, sorted."""
        if _OBS.enabled:
            with _OBS.tracer.span(
                "federation.names", shards=self._sharded.shards
            ):
                return self._names()
        return self._names()

    def _names(self) -> List[str]:
        per_shard = [
            self._store(shard).names()
            for shard in range(self._sharded.shards)
        ]
        return list(heapq.merge(*per_shard))

    def select(self, pattern: str) -> List[str]:
        """Names matching a shell-style pattern, across all shards."""
        if _OBS.enabled:
            with _OBS.tracer.span("federation.select", pattern=pattern):
                return self._select(pattern)
        return self._select(pattern)

    def _select(self, pattern: str) -> List[str]:
        per_shard = [
            self._store(shard).select(pattern)
            for shard in range(self._sharded.shards)
        ]
        return list(heapq.merge(*per_shard))

    # ------------------------------------------------------------------
    # Data queries
    # ------------------------------------------------------------------
    def query(
        self, name: str, since: float = float("-inf"), until: float = float("inf")
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route a raw range query to the shard owning ``name``."""
        if _OBS.enabled:
            with _OBS.tracer.span("federation.query", metric=name):
                return self._sharded.store_for(name).query(name, since, until)
        return self._sharded.store_for(name).query(name, since, until)

    def resample(
        self,
        name: str,
        since: float,
        until: float,
        step: float,
        agg: str = "mean",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Single-series resample on the owning shard (keeps its fast path)."""
        return self._sharded.store_for(name).resample(
            name, since, until, step, agg=agg
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
        """Cross-shard alignment onto one shared grid.

        Mirrors :meth:`TimeSeriesStore.align` — same argument validation,
        one shared bucket-edge grid, same vectorized kernels — but fetches
        each series from its owning shard, so the result is bit-for-bit
        what a single store holding every series would return.
        """
        if _OBS.enabled:
            with _OBS.tracer.span(
                "federation.align", series=len(names), agg=agg
            ):
                return self._align(names, since, until, step, agg, fill)
        return self._align(names, since, until, step, agg, fill)

    def _align(
        self,
        names: Sequence[str],
        since: float,
        until: float,
        step: float,
        agg: str,
        fill: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        shard_of = self._sharded.shard_of

        def column(name: str, edges: np.ndarray) -> np.ndarray:
            # Planner-aware member (rollup tiers serve eligible buckets;
            # raw/cold reduction otherwise — same bits).
            return self._store(shard_of(name)).resample_column(
                name, since, until, step, agg, edges
            )

        return align_columns(names, since, until, step, agg, fill, column)
