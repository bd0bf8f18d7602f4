"""Interconnect fabric model.

A two-level fat-tree built on :mod:`networkx`: nodes attach to leaf (edge)
switches, leaves attach to spine switches.  Job traffic is routed over
shortest paths; when the offered load on a link exceeds its capacity every
flow crossing it is slowed proportionally.  This produces exactly the
inter-job network contention that diagnostic hardware ODA analyses at link
level (Jha et al. [55], Grant et al. [19]).
"""

from __future__ import annotations

import itertools
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FatTreeFabric"]

LinkKey = Tuple[str, str]


def _canonical(a: str, b: str) -> LinkKey:
    return (a, b) if a <= b else (b, a)


class FatTreeFabric:
    """Two-level fat-tree with proportional-share contention.

    Parameters
    ----------
    node_names:
        Compute-node identifiers to attach.
    nodes_per_leaf:
        Ports per leaf switch dedicated to compute nodes.
    spine_count:
        Number of spine switches (each leaf uplinks to all spines).
    link_capacity:
        Capacity of every link in bytes/s.
    """

    def __init__(
        self,
        node_names: Sequence[str],
        nodes_per_leaf: int = 16,
        spine_count: int = 2,
        link_capacity: float = 12.5e9,  # 100 Gb/s
    ):
        if not node_names:
            raise ConfigurationError("fabric needs at least one node")
        if nodes_per_leaf < 1 or spine_count < 1:
            raise ConfigurationError("nodes_per_leaf and spine_count must be >= 1")
        self.link_capacity = link_capacity
        self.graph = nx.Graph()
        self.leaves: List[str] = []
        self.spines = [f"spine{i}" for i in range(spine_count)]
        self._node_leaf: Dict[str, str] = {}

        for spine in self.spines:
            self.graph.add_node(spine, role="spine")
        for leaf_index, start in enumerate(range(0, len(node_names), nodes_per_leaf)):
            leaf = f"leaf{leaf_index}"
            self.leaves.append(leaf)
            self.graph.add_node(leaf, role="leaf")
            for spine in self.spines:
                self.graph.add_edge(leaf, spine)
            for name in node_names[start : start + nodes_per_leaf]:
                self.graph.add_node(name, role="node")
                self.graph.add_edge(name, leaf)
                self._node_leaf[name] = leaf

        # The topology is static: index its links once.  Offered load is
        # one bytes/s slot per link for the current step.
        self._links: List[LinkKey] = [_canonical(a, b) for a, b in self.graph.edges]
        self._link_index: Dict[LinkKey, int] = {
            link: i for i, link in enumerate(self._links)
        }
        self._offered = np.zeros(len(self._links))
        # flow id -> (sorted members, link index per pair crossing in pair
        # order, distinct link indices in first-crossing order): a flow is
        # routed once per member set, not once per step.
        self._routes: Dict[str, Tuple[Tuple[str, ...], np.ndarray, np.ndarray]] = {}
        # flow id -> its crossings and its per-pair rate, for flows
        # offered this step.
        self._flows: Dict[str, np.ndarray] = {}
        self._rates: Dict[str, float] = {}
        # Distinct links of each offer this step, in offer order, and the
        # links touched this step in first-touch order (built on demand).
        self._step_links: List[np.ndarray] = []
        self._touched: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def leaf_of(self, node_name: str) -> str:
        try:
            return self._node_leaf[node_name]
        except KeyError:
            raise ConfigurationError(f"unknown fabric node {node_name!r}") from None

    def route(self, src: str, dst: str) -> List[LinkKey]:
        """Deterministic shortest-path route between two compute nodes.

        Same-leaf pairs route through their leaf only; cross-leaf pairs use
        the spine chosen by a stable hash of the pair, modelling static
        (deterministic) routing.
        """
        leaf_src, leaf_dst = self.leaf_of(src), self.leaf_of(dst)
        if leaf_src == leaf_dst:
            return [_canonical(src, leaf_src), _canonical(leaf_src, dst)]
        # crc32 keeps spine selection stable across processes (unlike hash()).
        pair_key = zlib.crc32(f"{min(src, dst)}|{max(src, dst)}".encode())
        spine = self.spines[pair_key % len(self.spines)]
        return [
            _canonical(src, leaf_src),
            _canonical(leaf_src, spine),
            _canonical(spine, leaf_dst),
            _canonical(leaf_dst, dst),
        ]

    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Reset offered loads before re-registering the current flows.

        Cached routes of flows not offered in the step just ended are
        dropped, so the cache is bounded by the running jobs.
        """
        self._routes = {f: self._routes[f] for f in self._flows}
        self._offered.fill(0.0)
        self._flows.clear()
        self._rates.clear()
        self._step_links.clear()
        self._touched = None

    def offer_flow(self, flow_id: str, members: Sequence[str], bytes_per_s: float) -> None:
        """Register a job's aggregate traffic among its allocated nodes.

        ``bytes_per_s`` is the job's total transmit rate summed over
        members.  Traffic is a uniform all-to-all: each member transmits
        ``bytes_per_s / n`` split evenly across its ``n - 1`` peers, so a
        pair's bidirectional rate is ``2 * bytes_per_s / (n * (n - 1))``
        and a member's access link carries exactly ``2 * bytes_per_s / n``
        (tx + rx) when uncontended.

        Each pair crossing adds its rate to the link in turn (job order,
        then pair order), so a link's load is the same sum, in the same
        order, as routing every pair afresh.
        """
        n = len(members)
        if bytes_per_s <= 0 or n < 2:
            return
        key = tuple(sorted(members))
        cached = self._routes.get(flow_id)
        if cached is None or cached[0] != key:
            crossings = np.array([
                self._link_index[link]
                for src, dst in itertools.combinations(key, 2)
                for link in self.route(src, dst)
            ], dtype=np.intp)
            _, first = np.unique(crossings, return_index=True)
            cached = (key, crossings, crossings[np.sort(first)])
            self._routes[flow_id] = cached
        _, crossings, distinct = cached
        per_pair = 2.0 * bytes_per_s / (n * (n - 1))
        np.add.at(self._offered, crossings, per_pair)
        self._flows[flow_id] = crossings
        self._rates[flow_id] = per_pair
        self._step_links.append(distinct)
        self._touched = None

    def flow_ids(self) -> List[str]:
        """Flows offered this step, in offer order."""
        return list(self._flows)

    def flow_links(self, flow_id: str) -> List[LinkKey]:
        """Links a flow offered this step crosses: one per pair crossing,
        in pair order (empty for a flow not offered)."""
        links = self._links
        return [links[i] for i in self._flows.get(flow_id, ())]

    def flow_rate(self, flow_id: str) -> float:
        """Bytes/s each pair crossing of a flow offered this step adds to
        its link (0.0 for a flow not offered)."""
        return self._rates.get(flow_id, 0.0)

    def _touched_links(self) -> np.ndarray:
        """Indices of the links loaded this step, in first-touch order."""
        if self._touched is None:
            seen = np.zeros(len(self._links), dtype=bool)
            order = []
            for distinct in self._step_links:
                fresh = distinct[~seen[distinct]]
                seen[fresh] = True
                order.append(fresh)
            self._touched = (
                np.concatenate(order) if order else np.zeros(0, dtype=np.intp)
            )
        return self._touched

    def link_utilization(self) -> Dict[LinkKey, float]:
        """Offered load / capacity per link (can exceed 1 when saturated),
        for every link loaded this step, in first-touch order."""
        touched = self._touched_links()
        links = self._links
        utilization = (self._offered[touched] / self.link_capacity).tolist()
        return {links[i]: u for i, u in zip(touched.tolist(), utilization)}

    def flow_slowdown(self, flow_id: str) -> float:
        """Contention slowdown factor (>= 1) for a registered flow.

        The factor is the worst oversubscription among links the flow
        crosses — proportional-share sharing means a flow crossing a link
        offered at 2x capacity progresses at half speed.
        """
        crossings = self._flows.get(flow_id)
        if crossings is None:
            return 1.0
        worst = float(self._offered[crossings].max()) / self.link_capacity
        return max(worst, 1.0)

    def hot_links(self, threshold: float = 0.9) -> List[Tuple[LinkKey, float]]:
        """Links above a utilization threshold, most loaded first."""
        utilization = self.link_utilization()
        hot = [(link, u) for link, u in utilization.items() if u >= threshold]
        return sorted(hot, key=lambda item: -item[1])

    def sensors(self) -> Dict[str, float]:
        """Fabric-level aggregates for telemetry."""
        utilization = list(self.link_utilization().values())
        return {
            "links_active": float(len(utilization)),
            "max_link_util": max(utilization, default=0.0),
            "mean_link_util": (sum(utilization) / len(utilization)) if utilization else 0.0,
            "saturated_links": float(sum(1 for u in utilization if u > 1.0)),
        }
