"""Scalar references the vectorised code paths are compared to.

Resampling: one Python-level call of the :data:`~repro.telemetry.store.AGGREGATIONS`
callable per non-empty bucket, over raw samples fetched with ``query`` — no
``reduceat`` kernel and no rollup tier is involved, so agreement with
``resample``/``align`` checks both.  Works on anything with the store read
surface (a plain, sharded or parallel store).

Fabric contention: :class:`PairLoopFabric` routes every node pair of every
flow afresh each step and keeps per-link loads in a dict — the results
:class:`~repro.cluster.network.FatTreeFabric` must reproduce bit for bit
with its cached routes.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

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


class PairLoopFabric:
    """``FatTreeFabric`` contention semantics, one pair at a time.

    Routing comes from the fabric under test (``route`` is the one routing
    rule); offered loads, slowdowns, hot links and sensors are recomputed
    here with per-pair Python loops.
    """

    def __init__(self, fabric):
        self.route = fabric.route
        self.link_capacity = fabric.link_capacity
        self._offered: Dict[tuple, float] = {}
        self._flow_links: Dict[str, List[tuple]] = {}

    def begin_step(self) -> None:
        self._offered.clear()
        self._flow_links.clear()

    def offer_flow(self, flow_id, members, bytes_per_s) -> None:
        n = len(members)
        if bytes_per_s <= 0 or n < 2:
            return
        per_pair = 2.0 * bytes_per_s / (n * (n - 1))
        links = []
        for src, dst in itertools.combinations(sorted(members), 2):
            for link in self.route(src, dst):
                self._offered[link] = self._offered.get(link, 0.0) + per_pair
                links.append(link)
        self._flow_links[flow_id] = links

    def link_utilization(self):
        return {
            link: offered / self.link_capacity
            for link, offered in self._offered.items()
        }

    def flow_slowdown(self, flow_id) -> float:
        links = self._flow_links.get(flow_id)
        if not links:
            return 1.0
        worst = max(
            self._offered.get(link, 0.0) / self.link_capacity for link in links
        )
        return max(worst, 1.0)

    def hot_links(self, threshold: float = 0.9):
        utilization = self.link_utilization()
        hot = [(link, u) for link, u in utilization.items() if u >= threshold]
        return sorted(hot, key=lambda item: -item[1])

    def sensors(self):
        utilization = list(self.link_utilization().values())
        return {
            "links_active": float(len(utilization)),
            "max_link_util": max(utilization, default=0.0),
            "mean_link_util": (sum(utilization) / len(utilization)) if utilization else 0.0,
            "saturated_links": float(sum(1 for u in utilization if u > 1.0)),
        }
