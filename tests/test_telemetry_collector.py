"""Tests for samplers, collection agents and the TelemetrySystem bundle."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    CollectionAgent,
    MessageBus,
    MetricRegistry,
    MetricSpec,
    Sampler,
    TelemetrySystem,
    Unit,
)


def constant_source(value: float):
    return lambda now: {"m.x": value}


class TestSampler:
    def test_scrape_packages_batch(self):
        sampler = Sampler("s", constant_source(3.0))
        batch = sampler.scrape(5.0)
        assert batch.time == 5.0
        assert batch.as_dict() == {"m.x": 3.0}
        assert sampler.scrapes == 1
        assert sampler.samples == 1


class TestNameBinding:
    """A periodic publisher binds its names tuple once and reuses it while
    the source's keys stay the same."""

    def test_stable_source_shares_one_names_tuple(self):
        sampler = Sampler("s", lambda now: {"m.a": now, "m.b": 2 * now})
        first, second = sampler.scrape(1.0), sampler.scrape(2.0)
        assert second.names is first.names
        assert second.as_dict() == {"m.a": 2.0, "m.b": 4.0}

    def test_equal_keys_from_fresh_strings_still_share(self):
        sampler = Sampler("s", lambda now: {"".join(["m.", "a"]): now})
        assert sampler.scrape(1.0).names is sampler.scrape(2.0).names

    def test_changed_keys_get_a_fresh_correct_tuple(self):
        readings = {"m.a": 1.0}
        sampler = Sampler("s", lambda now: dict(readings))
        first = sampler.scrape(0.0)
        readings["m.b"] = 2.0
        grown = sampler.scrape(1.0)
        assert grown.names == ("m.a", "m.b")
        assert grown.values.tolist() == [1.0, 2.0]
        assert first.names == ("m.a",)
        del readings["m.a"]
        readings["m.a"] = 3.0  # same key set, new order
        reordered = sampler.scrape(2.0)
        assert reordered.names == ("m.b", "m.a")
        assert reordered.values.tolist() == [2.0, 3.0]
        assert sampler.scrape(3.0).names is reordered.names

    def test_counters_unchanged(self):
        readings = {"m.a": 1.0}
        agent = CollectionAgent("a", MessageBus(), period=10.0)
        sampler = agent.add_sampler(Sampler("s", lambda now: dict(readings)))
        agent.collect_once(0.0)
        agent.collect_once(10.0)
        readings["m.b"] = 2.0
        agent.collect_once(20.0)
        assert (sampler.scrapes, sampler.samples) == (3, 4)
        metrics = agent.metrics.snapshot()
        assert metrics["telemetry.agent.a.scrapes"] == 3.0
        assert metrics["telemetry.agent.a.samples"] == 4.0

    def test_bound_names_are_not_a_constructor_field(self):
        with pytest.raises(TypeError):
            Sampler("s", constant_source(1.0), _names=("m.x",))
        assert "_names" not in repr(Sampler("s", constant_source(1.0)))


class TestCollectionAgent:
    def test_collect_once_publishes(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("#", lambda t, b: seen.append((t, b.time)))
        agent = CollectionAgent("a", bus, period=10.0)
        agent.add_sampler(Sampler("s1", constant_source(1.0)))
        agent.add_sampler(Sampler("s2", constant_source(2.0)))
        assert agent.collect_once(7.0) == 2
        assert seen == [("s1", 7.0), ("s2", 7.0)]

    def test_registry_populated_from_specs(self):
        registry = MetricRegistry()
        agent = CollectionAgent("a", MessageBus(), 10.0, registry=registry)
        agent.add_sampler(
            Sampler("s", constant_source(1.0), [MetricSpec("m.x", Unit.WATT)])
        )
        assert "m.x" in registry

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            CollectionAgent("a", MessageBus(), 0.0)

    def test_periodic_collection(self, sim):
        bus = MessageBus()
        times = []
        bus.subscribe("#", lambda t, b: times.append(b.time))
        agent = CollectionAgent("a", bus, period=10.0)
        agent.add_sampler(Sampler("s", constant_source(1.0)))
        agent.start(sim, start_delay=0.0)
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_ends_collection(self, sim):
        bus = MessageBus()
        times = []
        bus.subscribe("#", lambda t, b: times.append(b.time))
        agent = CollectionAgent("a", bus, period=10.0)
        agent.add_sampler(Sampler("s", constant_source(1.0)))
        agent.start(sim, start_delay=0.0)
        sim.run_until(15.0)
        agent.stop()
        sim.run_until(100.0)
        assert times == [0.0, 10.0]

    def test_double_start_rejected(self, sim):
        agent = CollectionAgent("a", MessageBus(), 10.0)
        agent.start(sim)
        with pytest.raises(ConfigurationError):
            agent.start(sim)


class TestSamplerFaultHandling:
    def test_raising_source_is_isolated(self):
        """A raising source must not kill the collection tick."""
        bus = MessageBus()
        seen = []
        bus.subscribe("#", lambda t, b: seen.append(t))
        agent = CollectionAgent("a", bus, period=10.0)

        def bad(now):
            raise RuntimeError("sensor hw error")

        sampler = agent.add_sampler(Sampler("bad", bad))
        agent.add_sampler(Sampler("good", constant_source(1.0)))
        assert agent.collect_once(0.0) == 1
        assert seen == ["good"]
        assert sampler.errors == 1
        assert agent.scrape_errors == 1
        assert "sensor hw error" in agent.last_error

    def test_failing_sampler_backs_off_exponentially(self, sim):
        bus = MessageBus()
        agent = CollectionAgent("a", bus, period=10.0)

        calls = []

        def bad(now):
            calls.append(now)
            raise RuntimeError("down")

        agent.add_sampler(Sampler("bad", bad))
        agent.start(sim, start_delay=0.0)
        sim.run_until(150.0)
        # Backoff 1, 2, 4, 8 periods: attempts at t = 0, 10, 30, 70, 150.
        assert calls == [0.0, 10.0, 30.0, 70.0, 150.0]
        assert agent.scrapes_skipped > 0

    def test_recovered_sampler_resumes_publishing(self, sim):
        bus = MessageBus()
        seen = []
        bus.subscribe("#", lambda t, b: seen.append(b.time))
        agent = CollectionAgent("a", bus, period=10.0)
        state = {"fail": True}

        def flaky(now):
            if state["fail"]:
                raise RuntimeError("down")
            return {"m.x": 1.0}

        sampler = agent.add_sampler(Sampler("s", flaky))
        agent.start(sim, start_delay=0.0)
        sim.run_until(5.0)
        state["fail"] = False
        sim.run_until(30.0)
        assert seen == [10.0, 20.0, 30.0]
        assert sampler.consecutive_errors == 0
        assert sampler.errors == 1

    def test_health_metrics_snapshot(self):
        agent = CollectionAgent("a", MessageBus(), 10.0)
        agent.add_sampler(Sampler("s", constant_source(1.0)))
        agent.collect_once(0.0)
        metrics = agent.metrics.snapshot()
        assert metrics["telemetry.agent.a.scrapes"] == 1.0
        assert metrics["telemetry.agent.a.scrape_errors"] == 0.0
        assert metrics["telemetry.agent.a.samplers"] == 1.0


class TestTelemetrySystem:
    def test_end_to_end_pipeline(self, sim):
        telemetry = TelemetrySystem()
        agent = telemetry.new_agent("a", period=5.0)
        counter = {"v": 0.0}

        def source(now):
            counter["v"] += 1.0
            return {"m.count": counter["v"]}

        agent.add_sampler(Sampler("s", source, [MetricSpec("m.count")]))
        telemetry.start_all(sim)
        sim.run_until(20.0)
        times, values = telemetry.store.query("m.count")
        # start_all begins scraping immediately: t = 0, 5, 10, 15, 20.
        assert len(times) == 5
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert "m.count" in telemetry.registry

    def test_store_retention_passthrough(self):
        telemetry = TelemetrySystem(store_retention=60.0)
        assert telemetry.store.retention == 60.0
