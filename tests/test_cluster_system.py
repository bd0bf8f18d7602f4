"""Tests for racks, the HPCSystem aggregate and hardware faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ComputeNode,
    NodeFaultKind,
    NodeFaultModel,
    NodeLoad,
    Rack,
    build_system,
)
from repro.errors import ConfigurationError


def busy():
    return NodeLoad(cpu_util=0.9, mem_bw_util=0.3, compute_fraction=0.7,
                    net_bw_bytes=1e8, io_bw_bytes=1e8, flops_per_second=0.3)


class TestRack:
    def test_inlet_propagation_with_offset(self):
        nodes = [ComputeNode(f"n{i}") for i in range(3)]
        rack = Rack("r", nodes, cooling_offset_c=2.0)
        rack.set_inlet_temp(18.0)
        assert all(n.inlet_temp_c == 20.0 for n in nodes)

    def test_empty_rack_rejected(self):
        with pytest.raises(ConfigurationError):
            Rack("r", [])

    def test_sensors_aggregate(self):
        nodes = [ComputeNode(f"n{i}") for i in range(2)]
        rack = Rack("r", nodes)
        for n in nodes:
            n.update(30.0)
        sensors = rack.sensors()
        assert sensors["nodes_up"] == 2.0
        assert sensors["power"] == pytest.approx(sum(n.power_w for n in nodes))


class TestHPCSystem:
    @pytest.fixture
    def system(self, sim, trace, rng):
        system = build_system(racks=2, nodes_per_rack=4)
        system.attach(sim, trace, rng)
        return system

    def test_build_system_shape(self, system):
        assert system.node_count == 8
        assert len(system.racks) == 2
        assert system.node("r1n3").name == "r1n3"

    def test_duplicate_node_names_rejected(self):
        nodes = [ComputeNode("same"), ComputeNode("same")]
        with pytest.raises(ConfigurationError):
            from repro.cluster.system import HPCSystem
            HPCSystem([Rack("a", [nodes[0]]), Rack("b", [nodes[1]])])

    def test_apply_loads_and_progress(self, system, sim):
        system.apply_loads({f"r0n{i}": ("j1", busy()) for i in range(4)})
        sim.run(600)
        assert system.job_progress_rate("j1") > 0.5
        assert system.it_power_w > 8 * 100.0

    def test_unassigned_nodes_idle(self, system, sim):
        system.apply_loads({"r0n0": ("j1", busy())})
        assert system.node("r0n1").job_id is None

    def test_loop_supply_propagates_to_inlets(self, system, sim):
        system.set_loop_supply("loop0", 30.0)
        sim.run(60)
        assert system.node("r0n0").inlet_temp_c >= 30.0

    def test_sampler_matches_specs(self, system, sim):
        sim.run(120)
        readings = system._read_sensors(sim.now)
        assert set(readings) == {s.name for s in system.metric_specs()}

    def test_sampler_emits_each_spec_once_and_binds_names(self, system, sim):
        sampler = system.sampler()
        sim.run(60)
        first = sampler.scrape(sim.now)
        sim.run(60)
        second = sampler.scrape(sim.now)
        assert len(set(first.names)) == len(first.names)
        assert set(first.names) == {s.name for s in sampler.specs}
        assert second.names is first.names
        node = system.node("r0n1")
        for key, value in node.counters().items():
            assert second.get(system.node_metric("r0n1", key)) == value

    def test_node_metric_path(self, system):
        assert system.node_metric("r0n2", "power") == "cluster.rack0.r0n2.power"

    def test_contention_applied_to_job(self, system, sim):
        # Saturate the filesystem: demand far above the pool.
        heavy_io = NodeLoad(cpu_util=0.9, io_bw_bytes=1e12, compute_fraction=0.1)
        system.apply_loads({f"r0n{i}": ("j1", heavy_io) for i in range(4)})
        sim.run(60)
        assert system.job_progress_rate("j1") < 0.5

    def test_job_progress_zero_when_not_running(self, system):
        assert system.job_progress_rate("ghost") == 0.0


class TestNodeFaultModel:
    def test_deterministic_injection_crash_and_repair(self, sim, trace, rng):
        system = build_system(racks=1, nodes_per_rack=4)
        system.attach(sim, trace, rng)
        model = NodeFaultModel(sim, trace, rng, system.nodes)
        node = system.node("r0n0")
        model.inject(node, NodeFaultKind.CRASH, start=100.0, duration=500.0)
        sim.run_until(200.0)
        assert not node.up
        sim.run_until(700.0)
        assert node.up
        kinds = [r.kind for r in trace]
        assert "node_crash" in kinds and "node_repair" in kinds

    def test_injected_degradation_severity(self, sim, trace, rng):
        system = build_system(racks=1, nodes_per_rack=2)
        system.attach(sim, trace, rng)
        model = NodeFaultModel(sim, trace, rng, system.nodes)
        node = system.node("r0n1")
        model.inject(node, NodeFaultKind.MEM_DEGRADATION, 10.0, 100.0, severity=0.4)
        sim.run_until(20.0)
        assert node.mem_bw_health == pytest.approx(0.6)
        sim.run_until(200.0)
        assert node.mem_bw_health == 1.0

    def test_stochastic_faults_emit_ecc_before_crash(self, sim, trace):
        rng = np.random.default_rng(3)
        system = build_system(racks=2, nodes_per_rack=8)
        system.attach(sim, trace, rng)
        model = NodeFaultModel(
            sim, trace, rng, system.nodes,
            base_rate_per_node_day=5.0,  # exaggerated for the test
            ecc_leadtime_s=1800.0,
        )
        model.start()
        sim.run(86_400.0 / 4)
        crashes = trace.select(kind="node_crash")
        assert crashes, "exaggerated hazard should produce crashes"
        # The crashed node accumulated ECC errors beforehand.
        crashed = crashes[0].source.split(".")[-1]
        assert any(f.node == crashed for f in model.faults)

    def test_stochastic_trace_is_pinned(self, sim, trace):
        """Stochastic and injected degradations share one apply/clear path;
        the seeded two-day trace (and node health hour by hour) is pinned
        to its digest so RNG draw order and trace events cannot drift."""
        import hashlib

        rng = np.random.default_rng(31)
        system = build_system(racks=2, nodes_per_rack=8)
        system.attach(sim, trace, rng)
        model = NodeFaultModel(sim, trace, rng, system.nodes,
                               base_rate_per_node_day=0.5,
                               degradation_rate_per_node_day=2.0)
        model.start()
        for i, kind in enumerate(NodeFaultKind):
            model.inject(system.nodes[i], kind, start=3600.0 * (i + 1),
                         duration=7200.0, severity=0.3)
        digest = hashlib.sha256()
        for hour in range(1, 49):
            sim.run_until(3600.0 * hour)
            digest.update(repr([
                (n.mem_bw_health, n.cpu_health, n.thermal_resistance, n.up)
                for n in system.nodes
            ]).encode())
        for r in trace:
            digest.update(repr(
                (r.time, r.source, r.kind, sorted(r.detail.items()))
            ).encode())
        kinds = {r.kind for r in trace}
        assert {"node_degradation", "degradation_clear", "node_crash"} <= kinds
        assert digest.hexdigest() == (
            "8ab2af975b8b68f31601fe7f62fa25ede434334cfb303048b8b613ead3a4127e"
        )

    def test_thermal_acceleration_raises_hazard(self, sim, trace, rng):
        system = build_system(racks=1, nodes_per_rack=1)
        model = NodeFaultModel(sim, trace, rng, system.nodes)
        node = system.nodes[0]
        node.temp_c = 50.0
        cool_hazard = model._hazard(node)
        node.temp_c = 90.0
        assert model._hazard(node) > cool_hazard * 2
