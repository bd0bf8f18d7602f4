"""Tests for the fat-tree fabric and the parallel filesystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import FatTreeFabric, ParallelFilesystem
from repro.errors import ConfigurationError
from tests.reference import PairLoopFabric


def make_fabric(n=8, per_leaf=4, capacity=100.0):
    return FatTreeFabric(
        [f"n{i}" for i in range(n)], nodes_per_leaf=per_leaf,
        spine_count=2, link_capacity=capacity,
    )


class TestTopology:
    def test_nodes_attached_to_leaves(self):
        fabric = make_fabric()
        assert fabric.leaf_of("n0") == "leaf0"
        assert fabric.leaf_of("n4") == "leaf1"

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fabric().leaf_of("bogus")

    def test_same_leaf_route_avoids_spine(self):
        route = make_fabric().route("n0", "n1")
        assert len(route) == 2
        assert not any("spine" in a or "spine" in b for a, b in route)

    def test_cross_leaf_route_uses_spine(self):
        route = make_fabric().route("n0", "n5")
        assert len(route) == 4
        assert any("spine" in a or "spine" in b for a, b in route)

    def test_route_symmetric(self):
        """Same link set regardless of direction (order may differ)."""
        fabric = make_fabric()
        assert set(fabric.route("n0", "n5")) == set(fabric.route("n5", "n0"))


class TestContention:
    def test_no_flows_no_slowdown(self):
        fabric = make_fabric()
        fabric.begin_step()
        assert fabric.flow_slowdown("j") == 1.0

    def test_underloaded_flow_full_speed(self):
        fabric = make_fabric(capacity=1e9)
        fabric.begin_step()
        fabric.offer_flow("j", ["n0", "n1"], 100.0)
        assert fabric.flow_slowdown("j") == 1.0

    def test_oversubscribed_link_slows_flow(self):
        fabric = make_fabric(capacity=100.0)
        fabric.begin_step()
        fabric.offer_flow("j", ["n0", "n1"], 400.0)
        assert fabric.flow_slowdown("j") > 1.0

    def test_two_jobs_interfere_on_shared_links(self):
        fabric = make_fabric(capacity=150.0)
        fabric.begin_step()
        fabric.offer_flow("a", ["n0", "n4"], 100.0)
        solo = fabric.flow_slowdown("a")
        fabric.begin_step()
        fabric.offer_flow("a", ["n0", "n4"], 100.0)
        fabric.offer_flow("b", ["n1", "n5"], 100.0)
        shared = fabric.flow_slowdown("a")
        # Whether they share a spine is hash-dependent; at minimum the
        # contended case is never faster.
        assert shared >= solo

    def test_hot_links_sorted(self):
        fabric = make_fabric(capacity=10.0)
        fabric.begin_step()
        fabric.offer_flow("j", ["n0", "n1", "n4"], 100.0)
        hot = fabric.hot_links(threshold=0.5)
        assert hot
        utils = [u for _, u in hot]
        assert utils == sorted(utils, reverse=True)

    def test_sensors_shape(self):
        fabric = make_fabric()
        fabric.begin_step()
        fabric.offer_flow("j", ["n0", "n5"], 50.0)
        sensors = fabric.sensors()
        assert sensors["links_active"] > 0
        assert 0 <= sensors["mean_link_util"] <= sensors["max_link_util"]


class TestAgainstPairLoopReference:
    """The route-caching fabric against the per-pair loop, compared with
    ``==``: loads must be the same float sums in the same order."""

    THRESHOLDS = (0.0, 0.5, 0.9, 1.0, 1.5)

    def assert_same(self, fabric, ref, flow_ids):
        assert list(fabric.link_utilization().items()) == list(
            ref.link_utilization().items()
        )
        for flow_id in flow_ids:
            assert fabric.flow_slowdown(flow_id) == ref.flow_slowdown(flow_id)
            assert fabric.flow_links(flow_id) == ref._flow_links.get(flow_id, [])
        for threshold in self.THRESHOLDS:
            assert fabric.hot_links(threshold) == ref.hot_links(threshold)
        assert fabric.sensors() == ref.sensors()
        assert fabric.flow_ids() == list(ref._flow_links)

    def run_steps(self, fabric, steps):
        """Drive both fabrics through ``steps`` (each a list of
        ``(flow_id, members, bytes_per_s)``) and compare after each."""
        ref = PairLoopFabric(fabric)
        every = {flow_id for step in steps for flow_id, _, _ in step}
        previous = set()
        for step in steps:
            fabric.begin_step()
            ref.begin_step()
            assert set(fabric._routes) <= previous
            for flow_id, members, rate in step:
                fabric.offer_flow(flow_id, members, rate)
                ref.offer_flow(flow_id, members, rate)
            self.assert_same(fabric, ref, every)
            previous = set(ref._flow_links)
            assert set(fabric._routes) >= previous

    def test_overlapping_jobs_over_capacity(self):
        fabric = make_fabric(n=16, per_leaf=4, capacity=100.0)
        nodes = [f"n{i}" for i in range(16)]
        step = [
            ("a", nodes[0:10], 900.0),
            ("b", nodes[6:14], 700.0),
            ("c", nodes[3:16:3], 333.3),
        ]
        self.run_steps(fabric, [step, step, step[::-1]])
        assert fabric.sensors()["saturated_links"] > 0

    def test_degenerate_flows_register_nothing(self):
        fabric = make_fabric()
        self.run_steps(fabric, [[
            ("solo", ["n0"], 500.0),
            ("none", [], 500.0),
            ("quiet", ["n0", "n4"], 0.0),
            ("real", ["n1", "n5"], 50.0),
        ]])
        assert fabric.flow_ids() == ["real"]
        assert fabric.flow_slowdown("quiet") == 1.0
        assert set(fabric._routes) == {"real"}

    def test_member_set_change_reroutes(self):
        fabric = make_fabric(n=16, per_leaf=4, capacity=50.0)
        full = ["n0", "n1", "n5", "n9", "n13"]
        lost = ["n0", "n1", "n9", "n13"]  # n5 lost mid-job
        self.run_steps(fabric, [
            [("a", full, 400.0), ("b", ["n2", "n6"], 80.0)],
            [("a", lost, 400.0), ("b", ["n2", "n6"], 80.0)],
            [("a", lost[::-1], 400.0), ("b", ["n6", "n2"], 80.0)],
        ])
        assert fabric._routes["a"][0] == tuple(sorted(lost))

    def test_absent_flow_is_evicted_then_rerouted(self):
        fabric = make_fabric()
        a = ("a", ["n0", "n4", "n6"], 120.0)
        b = ("b", ["n1", "n5"], 60.0)
        self.run_steps(fabric, [[a, b], [b], [a, b], [], [a]])
        fabric.begin_step()
        assert set(fabric._routes) == {"a"}
        fabric.begin_step()
        assert fabric._routes == {}

    def test_same_flow_offered_twice_in_a_step(self):
        fabric = make_fabric()
        self.run_steps(fabric, [[
            ("a", ["n0", "n4"], 100.0),
            ("b", ["n1", "n2"], 70.0),
            ("a", ["n0", "n5", "n6"], 100.0),
        ]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_random_steps(self, seed):
        """Jobs start, end, vanish for a step and come back, lose a node,
        overlap and saturate links, over 40 steps."""
        rng = np.random.default_rng(seed)
        fabric = make_fabric(n=24, per_leaf=4, capacity=200.0)
        nodes = [f"n{i}" for i in range(24)]
        members = {}
        steps = []
        for _ in range(40):
            step = []
            for j in range(8):
                flow_id = f"j{j}"
                if flow_id not in members or rng.random() < 0.1:
                    size = int(rng.integers(0, 9))
                    members[flow_id] = [str(m) for m in rng.choice(nodes, size, replace=False)]
                elif rng.random() < 0.1 and members[flow_id]:
                    members[flow_id].pop(int(rng.integers(len(members[flow_id]))))
                if rng.random() < 0.7:
                    rate = 0.0 if rng.random() < 0.1 else float(rng.uniform(1, 900))
                    order = [str(m) for m in rng.permutation(members[flow_id])]
                    step.append((flow_id, order, rate))
            steps.append(step)
        self.run_steps(fabric, steps)


class TestParallelFilesystem:
    def test_under_capacity_full_grant(self):
        pfs = ParallelFilesystem(bandwidth_bytes=100.0)
        pfs.begin_step()
        pfs.demand("a", 40.0)
        granted = pfs.resolve(1.0)
        assert granted["a"] == 40.0
        assert pfs.slowdown("a") == 1.0

    def test_over_capacity_proportional_share(self):
        pfs = ParallelFilesystem(bandwidth_bytes=100.0)
        pfs.begin_step()
        pfs.demand("a", 150.0)
        pfs.demand("b", 50.0)
        granted = pfs.resolve(1.0)
        assert granted["a"] == pytest.approx(75.0)
        assert granted["b"] == pytest.approx(25.0)
        assert pfs.slowdown("a") == pytest.approx(2.0)

    def test_bytes_moved_accumulates(self):
        pfs = ParallelFilesystem(bandwidth_bytes=100.0)
        pfs.begin_step()
        pfs.demand("a", 60.0)
        pfs.resolve(10.0)
        assert pfs.bytes_moved == pytest.approx(600.0)

    def test_utilization(self):
        pfs = ParallelFilesystem(bandwidth_bytes=100.0)
        pfs.begin_step()
        pfs.demand("a", 50.0)
        pfs.resolve(1.0)
        assert pfs.utilization == pytest.approx(0.5)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            ParallelFilesystem(bandwidth_bytes=0.0)
