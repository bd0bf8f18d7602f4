"""One self-metrics path.

Every component keeps its self-metrics in one typed registry and registers
it once with ``TelemetrySystem``; the health monitor publishes that one
list on the health topic and ``prometheus()`` exports it.  The golden file
pins the exported and published name sets of three stock configurations;
the remaining tests show that the optional components (frontend,
supervisor, chaos engine, streaming stage) reach both outputs once they
exist, and only then.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.obs import OBS
from repro.obs.metrics import MetricsRegistry
from repro.oda import ChaosEngine, DataCenter, DerivedMetricStage, ODASystem
from repro.telemetry import TelemetrySystem

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "self_metric_names.json")


def type_names(text: str) -> list:
    return sorted(re.findall(r"^# TYPE (\S+) ", text, re.M))


def exported(text: str, prefix: str) -> list:
    """Exported metric names (``# TYPE`` lines) under a dotted prefix."""
    sanitized = prefix.replace(".", "_")
    return [n for n in type_names(text) if n.startswith(sanitized)]


def published(batch, prefix: str) -> list:
    return [n for n in batch.names if n.startswith(prefix)]


@pytest.fixture(autouse=True)
def _no_profiling_histograms():
    """``prometheus()`` appends the global ``obs.*`` registry when it holds
    anything; keep it empty so only registered registries are exported."""
    OBS.reset()
    yield
    OBS.reset()


# ---------------------------------------------------------------------------
# Golden name sets
# ---------------------------------------------------------------------------
def _single_store(tmp_path):
    ts = TelemetrySystem(health_period=60.0)
    ts.new_agent("a", period=10.0)
    batch = ts.health.collect(60.0)
    return ts.prometheus(), batch.names


def _single_store_tiered(tmp_path):
    ts = TelemetrySystem(
        health_period=60.0, rollups=True, archive=True, journal=str(tmp_path),
    )
    ts.new_agent("a", period=10.0)
    batch = ts.health.collect(60.0)
    try:
        return ts.prometheus(), batch.names
    finally:
        ts.close()


def _datacenter(tmp_path):
    """The ingest_fleet shape: sharded, replicated, tiered, journaled."""
    dc = DataCenter(
        seed=3, racks=1, nodes_per_rack=2, shards=2, replication=1,
        rollups=True, archive=True, journal=str(tmp_path), health_period=60.0,
    )
    seen = []
    dc.telemetry.bus.subscribe("telemetry.health", lambda t, b: seen.append(b))
    dc.run(seconds=180.0)
    try:
        return dc.prometheus(), seen[-1].names
    finally:
        dc.close()


CONFIGS = {
    "single_store": _single_store,
    "single_store_tiered": _single_store_tiered,
    "datacenter": _datacenter,
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_name_sets_match_golden(config, tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)[config]
    text, health_names = CONFIGS[config](tmp_path)
    assert type_names(text) == golden["prometheus"]
    assert sorted(health_names) == golden["health"]


def test_loss_state_exports_as_gauges_and_events_as_counters():
    """What a replica member lacks falls when the data comes back, so the
    loss metrics are gauges; repairs and resync failures only add up."""
    dc = DataCenter(seed=3, racks=1, nodes_per_rack=2, shards=2, replication=1)
    try:
        kinds = dict(re.findall(r"^# TYPE (\S+) (\S+)$", dc.prometheus(), re.M))
    finally:
        dc.close()

    def per_shard(*keys):
        return [f"telemetry_shard_{i}_{key}" for i in range(2) for key in keys]

    loss = ["telemetry_shard_lost_samples"] + per_shard(
        "missed_writes", "dropped_writes", "lost_samples"
    )
    events = [
        "telemetry_shard_resync_failed", "telemetry_replica_diverged_windows",
        "telemetry_replica_repaired_windows", "telemetry_replica_repaired_samples",
    ] + per_shard(
        "resync_failed", "diverged_windows", "repaired_windows", "repaired_samples"
    )
    assert {name: kinds[name] for name in loss} == dict.fromkeys(loss, "gauge")
    assert {name: kinds[name] for name in events} == dict.fromkeys(events, "counter")


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------
class TestRegister:
    def test_idempotent_and_ordered(self):
        ts = TelemetrySystem()
        extra = MetricsRegistry()
        before = ts.metric_registries()
        assert ts.register(extra) is extra
        ts.register(extra)
        assert ts.metric_registries() == before + [extra]

    def test_late_registration_reaches_both_outputs(self):
        ts = TelemetrySystem(health_period=60.0)
        extra = MetricsRegistry()
        extra.gauge("custom.depth", fn=lambda: 3.0)
        ts.register(extra)
        assert ts.health.collect(60.0).get("custom.depth") == 3.0
        assert "custom_depth 3.0" in ts.prometheus()

    def test_agent_and_health_registered_once(self):
        ts = TelemetrySystem(health_period=60.0)
        agent = ts.new_agent("a", period=10.0)
        ts.enable_health()
        regs = ts.metric_registries()
        assert sum(r is agent.metrics for r in regs) == 1
        assert sum(r is ts.health.metrics for r in regs) == 1


class TestOptionalComponentsReachBothOutputs:
    def test_frontend(self):
        ts = TelemetrySystem(health_period=60.0)
        assert published(ts.health.collect(60.0), "telemetry.serving.") == []
        assert exported(ts.prometheus(), "telemetry.serving.") == []
        ts.frontend(max_workers=0)
        assert "telemetry.serving.queries" in ts.health.collect(120.0).names
        assert "telemetry_serving_queries" in type_names(ts.prometheus())
        ts.close()

    def test_frontend_latency_stays_out_of_the_store(self):
        """The health batch carries the frontend's counters and gauges; its
        wall-clock latency histograms reach only ``prometheus()``."""
        from repro.telemetry.serving import RangeQuery

        dc = DataCenter(seed=4, racks=1, nodes_per_rack=2, health_period=60.0)
        frontend = dc.frontend(max_workers=0)
        served = []
        dc.sim.schedule_periodic(120.0, lambda sim: served.append(
            frontend.serve("t", RangeQuery("facility.power.site_power")).ok
        ))
        dc.run(seconds=600.0)
        assert served and all(served)
        assert dc.store.query("telemetry.serving.completed")[1][-1] > 0
        assert [n for n in dc.store.names()
                if n.startswith("telemetry.serving.") and "latency" in n] == []
        assert "telemetry_serving_latency_bucket" in dc.prometheus()
        dc.close()

    def test_supervisor(self):
        dc = DataCenter(seed=4, racks=1, nodes_per_rack=2, health_period=60.0)
        assert exported(dc.prometheus(), "oda.supervisor.") == []
        dc.enable_supervision()
        dc.run(seconds=180.0)
        times, loops = dc.store.query("oda.supervisor.loops")
        assert len(times) > 0
        assert "oda_supervisor_loops" in type_names(dc.prometheus())

    def test_chaos_engine(self):
        dc = DataCenter(seed=5, racks=1, nodes_per_rack=2, shards=2,
                        replication=1, health_period=60.0)
        dc.enable_supervision()
        assert exported(dc.prometheus(), "oda.chaos.") == []
        ChaosEngine(dc)
        assert "oda_chaos_faults_injected" in type_names(dc.prometheus())
        batch = dc.telemetry.health.collect(dc.sim.now)
        assert batch.get("oda.chaos.faults_injected") == 0.0
        dc.close()

    def test_streaming_stage(self):
        dc = DataCenter(seed=6, racks=1, nodes_per_rack=2, health_period=60.0)
        system = ODASystem("site", dc)
        stage = system.add_stage(DerivedMetricStage(
            dc.telemetry.bus, "facility", "derived.pue",
            inputs=("facility.power.site_power", "facility.power.it_power"),
            compute=lambda v: {"derived.pue": v["facility.power.site_power"]
                               / max(v["facility.power.it_power"], 1.0)},
        ))
        dc.run(seconds=300.0)
        assert stage.processed > 0
        times, processed = dc.store.query("telemetry.stage.derived.pue.processed")
        assert len(times) > 0 and processed[-1] > 0
        assert "telemetry_stage_derived_pue_processed" in type_names(dc.prometheus())
