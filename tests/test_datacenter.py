"""Integration tests: the fully-wired DataCenter."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.oda import DataCenter
from repro.software import JobState


def stored_series(dc) -> dict:
    """``{name: (times, values)}`` of every series the store holds."""
    dc.store.flush()
    return {name: dc.store.query(name) for name in dc.store.names()}


@pytest.fixture(scope="module")
def ran_dc():
    """One shared half-day simulation (module-scoped: simulation is costly)."""
    dc = DataCenter(seed=11, racks=2, nodes_per_rack=8)
    dc.generate_workload(days=0.5, jobs_per_day=60)
    dc.run(days=0.5)
    return dc


class TestDataCenterIntegration:
    def test_reproducible_trajectories(self):
        """One seed stores one answer: every stored series of a health-on
        run, the pipeline's own self-metrics included, repeats bit for bit."""
        def stored(seed):
            dc = DataCenter(seed=seed, racks=1, nodes_per_rack=4,
                            health_period=60.0)
            dc.generate_workload(days=0.1, jobs_per_day=50)
            dc.run(days=0.1)
            return stored_series(dc)

        a, b = stored(3), stored(3)
        assert any(name.startswith("telemetry.") for name in a)
        assert a.keys() == b.keys()
        for name, (times, values) in a.items():
            assert np.array_equal(times, b[name][0]), name
            assert np.array_equal(values, b[name][1], equal_nan=True), name
        c = stored(4)
        site = "facility.power.site_power"
        assert not np.array_equal(a[site][1], c[site][1])

    def test_all_pillar_metrics_present(self, ran_dc):
        names = ran_dc.store.names()
        assert any(n.startswith("facility.") for n in names)
        assert any(n.startswith("cluster.") for n in names)
        assert any(n.startswith("scheduler.") for n in names)

    def test_jobs_flow_through_lifecycle(self, ran_dc):
        assert len(ran_dc.scheduler.jobs) > 10
        done = [j for j in ran_dc.scheduler.accounting if j.state is JobState.COMPLETED]
        assert done, "some jobs should complete in half a day"

    def test_pue_physical(self, ran_dc):
        _, pue = ran_dc.metric("facility.pue")
        loaded = pue[pue > 0]
        assert (loaded > 1.0).all()
        assert loaded.mean() < 2.0

    def test_energy_conservation(self, ran_dc):
        """Site power equals IT + cooling + losses at every sample."""
        _, site = ran_dc.metric("facility.power.site_power")
        _, it = ran_dc.metric("facility.power.it_power")
        _, cool = ran_dc.metric("facility.power.cooling_power")
        _, loss = ran_dc.metric("facility.power.loss_power")
        assert np.allclose(site, it + cool + loss)

    def test_cooling_coupling_reaches_nodes(self, ran_dc):
        """Node inlet temperatures track the loop supply temperature."""
        _, supply = ran_dc.metric("facility.loop0.supply_temp")
        _, inlet = ran_dc.metric("cluster.rack0.r0n0.inlet_temp")
        # Inlet = supply + rack offset; correlation must be near-perfect.
        n = min(supply.size, inlet.size)
        corr = np.corrcoef(supply[:n], inlet[:n])[0, 1]
        assert corr > 0.95

    def test_it_power_tracks_utilization(self, ran_dc):
        _, util = ran_dc.metric("scheduler.utilization")
        _, power = ran_dc.metric("cluster.it_power")
        n = min(util.size, power.size)
        assert np.corrcoef(util[:n], power[:n])[0, 1] > 0.5

    def test_peak_it_sizing(self, ran_dc):
        _, power = ran_dc.metric("cluster.it_power")
        assert power.max() <= ran_dc.peak_it_w

    def test_store_and_registry_consistent(self, ran_dc):
        registered = set(ran_dc.telemetry.registry.names())
        stored = set(ran_dc.store.names())
        assert stored <= registered

    def test_delivered_batches_are_pinned(self):
        """Every batch a busy seeded run delivers — topic, time, names and
        value bytes — is pinned to its digest, so any reassociated float
        sum in the fabric model or a reordered scrape fails loudly.  Three
        racks of eight span two leaf switches, so jobs contend on spine
        uplinks; two injected crashes fail running jobs."""
        from repro.cluster.faults import NodeFaultKind

        start = 10 * 3600.0  # mid-morning: the submission peak
        dc = DataCenter(seed=5, racks=3, nodes_per_rack=8,
                        enable_faults=True, start_time=start)
        dc.generate_workload(days=0.25, jobs_per_day=300)
        for i, at in enumerate((7200.0, 14_400.0)):
            dc.system.fault_model.inject(
                dc.system.nodes[5 + 9 * i], NodeFaultKind.CRASH,
                start=start + at, duration=1800.0,
            )
        digest = hashlib.sha256()
        saturated = []

        def fold(topic, batch):
            digest.update(repr((topic, batch.time, batch.names)).encode())
            digest.update(batch.values.tobytes())
            if topic == "cluster":
                saturated.append(batch.get("cluster.fabric.saturated_links"))

        dc.telemetry.bus.subscribe("#", fold)
        dc.run(days=0.25)
        assert sum(1 for s in saturated if s > 0) > len(saturated) // 4
        assert any(j.state is JobState.FAILED for j in dc.scheduler.accounting)
        assert digest.hexdigest() == (
            "4118f8ac22d953e1e3cf6e746454312045c880e6c49e557c81d76b6a008cac58"
        )

    @pytest.mark.parametrize("parallel, expected", [
        (False, "0f1451e77930733474629ae428ff7302465d2d50873c66466915bedbed45e70d"),
        (True, "8b1984ce4f025c1a6cbded30b63590c16aff6dc800513023096023115a818601"),
    ], ids=["in_process", "parallel"])
    def test_stored_content_is_pinned(self, tmp_path, parallel, expected):
        """Everything the whole stack stores — sensors and health
        self-metrics, through shards, replicas, rollups, archive and
        journal, in process or in shard workers — is pinned to its digest."""
        dc = DataCenter(seed=5, racks=1, nodes_per_rack=4, health_period=60.0,
                        shards=2, replication=1, rollups=True, archive=True,
                        store_retention=3600.0, journal=str(tmp_path),
                        parallel=parallel)
        try:
            dc.run(days=0.1)
            digest = hashlib.sha256()
            for name, (times, values) in stored_series(dc).items():
                digest.update(name.encode())
                digest.update(times.tobytes())
                digest.update(values.tobytes())
        finally:
            dc.close()
        assert digest.hexdigest() == expected
