"""Tests for the fault-tolerance layer: sensor-fault injection, pipeline
self-metrics, and end-to-end degradation under injected faults."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SensorDropoutError
from repro.obs.metrics import MetricsRegistry
from repro.telemetry import (
    HEALTH_TOPIC,
    FaultySource,
    HealthMonitor,
    MessageBus,
    Sampler,
    SensorFaultKind,
    StaleDataRule,
    TelemetrySystem,
    TimeSeriesStore,
    load_store,
    save_store,
)


def steady_source(now):
    return {"m.power": 100.0, "m.temp": 50.0}


class TestFaultySource:
    def test_passthrough_without_faults(self):
        src = FaultySource(steady_source)
        assert src(0.0) == {"m.power": 100.0, "m.temp": 50.0}

    def test_scheduled_dropout_raises(self):
        src = FaultySource(steady_source)
        src.inject(SensorFaultKind.DROPOUT, start=10.0, duration=5.0)
        assert src(0.0)["m.power"] == 100.0
        with pytest.raises(SensorDropoutError):
            src(12.0)
        assert src(20.0)["m.power"] == 100.0
        assert src.counts[SensorFaultKind.DROPOUT] == 1

    def test_scheduled_stuck_repeats_last_good(self):
        values = iter(range(100))
        src = FaultySource(lambda now: {"m.x": float(next(values))})
        src.inject(SensorFaultKind.STUCK, start=5.0, duration=10.0)
        assert src(0.0)["m.x"] == 0.0
        assert src(6.0)["m.x"] == 0.0  # frozen at last good reading
        assert src(10.0)["m.x"] == 0.0
        assert src(20.0)["m.x"] == 1.0  # recovered: source advances again

    def test_scheduled_spike_and_nan(self):
        src = FaultySource(steady_source)
        src.inject(SensorFaultKind.SPIKE, 0.0, 10.0, magnitude=5.0,
                   metrics="m.power")
        src.inject(SensorFaultKind.NAN, 20.0, 10.0, metrics="m.temp")
        readings = src(5.0)
        assert readings["m.power"] == 500.0
        assert readings["m.temp"] == 50.0  # pattern-restricted
        readings = src(25.0)
        assert math.isnan(readings["m.temp"])
        assert readings["m.power"] == 100.0

    def test_scheduled_drift_grows_linearly(self):
        src = FaultySource(steady_source)
        src.inject(SensorFaultKind.DRIFT, 0.0, 100.0, magnitude=0.5)
        assert src(10.0)["m.power"] == pytest.approx(105.0)
        assert src(20.0)["m.power"] == pytest.approx(110.0)

    def test_stochastic_dropout_is_seeded(self):
        def run(seed):
            src = FaultySource(
                steady_source, np.random.default_rng(seed), dropout_prob=0.3
            )
            events = []
            for t in range(50):
                try:
                    src(float(t))
                    events.append(0)
                except SensorDropoutError:
                    events.append(1)
            return events

        assert run(7) == run(7)  # deterministic under a seed
        assert sum(run(7)) > 0  # and some dropouts actually happen

    def test_stochastic_stuck_opens_episode(self):
        values = iter(range(1000))
        src = FaultySource(
            lambda now: {"m.x": float(next(values))},
            np.random.default_rng(3),
            stuck_prob=0.2,
            stuck_duration_s=10.0,
        )
        readings = [src(float(t))["m.x"] for t in range(60)]
        # At least one repeated (stuck) reading must appear.
        assert any(a == b for a, b in zip(readings, readings[1:]))
        assert src.counts[SensorFaultKind.STUCK] > 0

    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            FaultySource(steady_source, np.random.default_rng(0), dropout_prob=1.5)
        with pytest.raises(ConfigurationError):
            FaultySource(steady_source, dropout_prob=0.5)  # rng required


class TestHealthMonitor:
    def test_health_metrics_published_and_stored(self, sim):
        telemetry = TelemetrySystem(health_period=10.0)
        agent = telemetry.new_agent("a", period=5.0)
        agent.add_sampler(Sampler("s", steady_source))
        telemetry.start_all(sim)
        sim.run_until(30.0)
        t, delivered = telemetry.store.query("telemetry.bus.delivered")
        assert t.size == 3  # health ticks at 10, 20, 30
        assert delivered[-1] > 0
        t, scrapes = telemetry.store.query("telemetry.agent.a.scrapes")
        assert scrapes[-1] >= 6.0
        _, samples = telemetry.store.query("telemetry.store.samples")
        assert samples[-1] > 0

    def test_health_tick_drives_stale_alerts(self, sim):
        telemetry = TelemetrySystem(health_period=10.0)
        agent = telemetry.new_agent("a", period=5.0)
        sampler = agent.add_sampler(Sampler("s", steady_source))
        telemetry.alerts.add_stale_rule(
            StaleDataRule("dead-sensor", "m.*", max_age=15.0)
        )
        telemetry.start_all(sim)
        sim.run_until(20.0)
        assert telemetry.alerts.active_alerts() == []
        # Kill the sensor: every scrape now raises.
        def dead(now):
            raise RuntimeError("sensor died")

        sampler.source = dead
        sim.run_until(100.0)
        stale = [a for a in telemetry.alerts.active_alerts()
                 if isinstance(a.rule, StaleDataRule)]
        assert {a.metric for a in stale} == {"m.power", "m.temp"}
        assert sampler.errors > 0

    def test_probe_metrics_included(self):
        bus = MessageBus()
        probe = MetricsRegistry()
        probe.gauge("custom.probe", fn=lambda: 42.0)
        monitor = HealthMonitor(bus, [bus.metrics, probe], period=10.0)
        batch = monitor.collect(5.0)
        assert batch.as_dict()["custom.probe"] == 42.0
        assert bus.topic_count(HEALTH_TOPIC) == 1

    def test_collect_reuses_names_while_registries_unchanged(self):
        bus = MessageBus()
        registries = [bus.metrics]
        monitor = HealthMonitor(bus, registries, period=10.0)
        first, second = monitor.collect(10.0), monitor.collect(20.0)
        assert second.names is first.names
        assert second.as_dict()["telemetry.health.ticks"] == 2.0
        probe = MetricsRegistry()
        probe.gauge("custom.probe", fn=lambda: 42.0)
        registries.append(probe)
        grown = monitor.collect(30.0)
        assert grown.names is not first.names
        assert grown.names == tuple(monitor.snapshot())
        assert grown.as_dict()["custom.probe"] == 42.0
        assert monitor.collect(40.0).names is grown.names

    def test_stop_all_stops_health(self, sim):
        telemetry = TelemetrySystem(health_period=10.0)
        telemetry.start_all(sim)
        assert telemetry.health.running
        telemetry.stop_all()
        assert not telemetry.health.running


class TestPersistenceRetention:
    def test_load_store_applies_retention(self, tmp_path):
        """Regression: load_store went through append_many, which used to
        bypass retention — an archived store grew without bound on reload."""
        source = TimeSeriesStore()  # no retention while recording
        source.append_many("m", np.arange(100.0), np.arange(100.0))
        source.retention = 10.0  # archived with a retention policy
        path = str(tmp_path / "archive.npz")
        save_store(source, path)

        loaded = load_store(path)
        assert loaded.retention == 10.0
        times, _ = loaded.query("m")
        assert times[0] >= 89.0
        assert len(loaded.series("m")) <= 12

    def test_round_trip_of_retention_limited_store(self, tmp_path):
        store = TimeSeriesStore(retention=20.0)
        for t in range(100):
            store.append("a", float(t), float(t) * 2)
        store.append_many("b", np.arange(90.0, 100.0), np.ones(10))
        path = str(tmp_path / "rt.npz")
        save_store(store, path)
        loaded = load_store(path)
        for name in ("a", "b"):
            orig_t, orig_v = store.query(name)
            new_t, new_v = loaded.query(name)
            assert new_t.tolist() == orig_t.tolist()
            assert new_v.tolist() == orig_v.tolist()


class TestEndToEndResilience:
    def test_pipeline_degrades_gracefully_under_faults(self, sim):
        """The acceptance scenario: raising subscriber + faulty sensor."""
        telemetry = TelemetrySystem(health_period=30.0)
        agent = telemetry.new_agent("a", period=10.0)
        rng = np.random.default_rng(42)
        faulty = FaultySource(steady_source, rng, dropout_prob=0.1)
        faulty.inject(SensorFaultKind.STUCK, start=200.0, duration=100.0)
        agent.add_sampler(Sampler("s", faulty))

        def bad_sink(topic, batch):
            raise RuntimeError("analytics sink down")

        bad = telemetry.bus.subscribe("s", bad_sink)
        telemetry.alerts.add_stale_rule(
            StaleDataRule("nodata", "m.*", max_age=60.0)
        )
        telemetry.start_all(sim)
        sim.run_until(600.0)  # completes without an unhandled exception

        assert telemetry.bus.dead_letter_count > 0
        assert bad.quarantined
        assert faulty.counts[SensorFaultKind.DROPOUT] > 0
        assert agent.scrape_errors > 0
        # Data still flowed around the faults into the store.
        times, _ = telemetry.store.query("m.power")
        assert times.size > 0
        _, errors = telemetry.store.query("telemetry.bus.delivery_errors")
        assert errors[-1] > 0
