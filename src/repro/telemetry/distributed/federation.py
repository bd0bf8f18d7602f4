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
whose read verbs forward here.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.obs import OBS as _OBS
from repro.telemetry.store import align_columns

__all__ = ["FederatedQueryEngine"]


class FederatedQueryEngine:
    """Fans queries out across a :class:`ShardedStore`'s shards and merges.

    Constructed by a ``ShardedStore``, which delegates its cross-shard
    read verbs here; ``fanouts`` counts the queries that touched shards.
    """

    def __init__(self, sharded):
        self._sharded = sharded
        self.fanouts = 0

    def _pinned_store(self) -> Callable:
        """A per-query resolver that fixes each shard's serving member.

        Fan-outs used to call ``read_store()`` once per shard *per leg*, so
        a primary dying mid-fan-out could mix its view with a stale
        replica's in one merged result.  Every fan-out now resolves each
        involved shard exactly once, up front on first touch, and reuses
        that member for all of the query's legs — the merged result is one
        self-consistent snapshot.  (Resolution stays lazy per shard so a
        fully-down shard that the query never touches cannot fail it.)
        The query counts as a fan-out when it first touches a shard.
        """
        stores: Dict[int, object] = {}
        replica_sets = self._sharded.replica_sets

        def store_of(shard: int):
            store = stores.get(shard)
            if store is None:
                if not stores:
                    self.fanouts += 1
                store = stores[shard] = replica_sets[shard].read_store()
            return store

        return store_of

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
        store_of = self._pinned_store()
        per_shard = [
            store_of(shard).names()
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
        store_of = self._pinned_store()
        per_shard = [
            store_of(shard).select(pattern)
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
        store_of = self._pinned_store()
        shard_of = self._sharded.shard_of

        def column(name: str, edges: np.ndarray) -> np.ndarray:
            # Planner-aware member (rollup tiers serve eligible buckets;
            # raw/cold reduction otherwise — same bits).
            return store_of(shard_of(name)).resample_column(
                name, since, until, step, agg, edges
            )

        return align_columns(names, since, until, step, agg, fill, column)
