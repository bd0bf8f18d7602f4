"""Tests for the observability layer: tracing, typed metrics, profiling.

Covers the instruments and tracer in isolation, the end-to-end span chain
through a real simulated pipeline (scrape → publish → deliver → stage →
shard → store ingest, plus federated queries), the Prometheus exposition
of the migrated ``telemetry.*`` self-metrics, and the ``repro obs`` CLI.

Every test that enables the global ``OBS`` singleton brackets it with
``reset()``/``disable()`` so state never leaks across tests.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_BUCKETS,
    OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    prometheus_text,
    spans_to_chrome,
)


@pytest.fixture
def obs():
    """The global observability singleton, enabled fresh and always torn
    back down."""
    OBS.reset()
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.disable()
        OBS.reset()


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotone(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1.0)

    def test_callback_backed_counter_reads_source(self):
        state = {"n": 0}
        c = Counter("x", fn=lambda: float(state["n"]))
        state["n"] = 7
        assert c.value == 7.0
        with pytest.raises(ConfigurationError):
            c.inc()

    def test_gauge_moves_freely(self):
        g = Gauge("x")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("x", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 10.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(16.5)
        assert h.min == 0.5 and h.max == 10.0
        # cumulative le semantics: le=1 -> 1, le=2 -> 3, le=4 -> 4, +Inf -> 5
        assert h.bucket_counts == [1, 2, 1, 1]
        assert 0.5 <= h.quantile(0.0) <= 1.0
        assert h.quantile(1.0) == pytest.approx(10.0)
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_histogram_empty_quantile_is_nan(self):
        assert math.isnan(Histogram("x").quantile(0.5))

    def test_histogram_default_buckets_span_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 1e-6
        assert DEFAULT_BUCKETS[-1] >= 1.0

    def test_quantiles_clamp_to_observed_range(self):
        # Every observation is 0.3, landing in the (0.25, 0.5] bucket.
        # Interpolating across the raw bucket would report p99 ~ 0.4975;
        # the observed min/max pin every quantile to exactly 0.3.
        h = Histogram("x", buckets=(0.25, 0.5, 1.0))
        for _ in range(100):
            h.observe(0.3)
        for q in (0.01, 0.5, 0.95, 0.99):
            assert h.quantile(q) == pytest.approx(0.3)

    def test_quantiles_clamped_in_overflow_bucket(self):
        # Observations beyond the last edge land in the +Inf bucket; the
        # estimate must not run away past the observed max.
        h = Histogram("x", buckets=(1.0,))
        for v in (5.0, 6.0, 7.0):
            h.observe(v)
        assert 5.0 <= h.quantile(0.5) <= 7.0
        assert h.quantile(0.99) <= 7.0

    def test_quantiles_clamped_in_underflow_bucket(self):
        h = Histogram("x", buckets=(10.0, 20.0))
        for v in (2.0, 3.0, 4.0):
            h.observe(v)
        assert 2.0 <= h.quantile(0.01) <= 4.0
        assert h.quantile(0.99) <= 4.0

    def test_quantiles_monotone_across_buckets(self):
        h = Histogram("x", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 1.5, 3.0, 5.0, 7.0, 10.0):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert qs[0] >= 0.5 and qs[-1] <= 10.0

    def test_snapshot_and_prometheus_quantiles_clamped(self):
        r = MetricsRegistry()
        h = r.histogram("h", buckets=(0.25, 0.5))
        for _ in range(50):
            h.observe(0.3)
        snap = r.snapshot()
        for key in ("h.p50", "h.p95", "h.p99"):
            assert snap[key] == pytest.approx(0.3)
        text = r.to_prometheus()
        assert 'h_summary{quantile="0.99"} 0.3' in text

    def test_threadsafe_histogram_concurrent_observes(self):
        import threading

        h = Histogram("x", buckets=(1.0, 2.0), threadsafe=True)

        def observe():
            for _ in range(1000):
                h.observe(0.5)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000
        assert h.sum == pytest.approx(2000.0)
        assert h.bucket_counts[0] == 4000

    def test_registry_histogram_threadsafe_passthrough(self):
        r = MetricsRegistry()
        h = r.histogram("h", threadsafe=True)
        h.observe(1.0)
        assert h.count == 1

    def test_registry_get_or_create_and_kind_mismatch(self):
        r = MetricsRegistry()
        c1 = r.counter("a")
        assert r.counter("a") is c1
        with pytest.raises(ConfigurationError):
            r.gauge("a")

    def test_registry_snapshot_expands_histograms(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        h = r.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        snap = r.snapshot()
        assert snap["c"] == 2.0
        assert snap["h.count"] == 1.0
        assert "h.p95" in snap

    def test_prometheus_text_shape(self):
        r = MetricsRegistry()
        r.counter("telemetry.bus.published", "batches").inc(3)
        r.gauge("telemetry.bus.depth").set(1)
        h = r.histogram("obs.ingest.seconds", buckets=(1e-3, 1e-2))
        h.observe(5e-3)
        text = r.to_prometheus()
        assert "# TYPE telemetry_bus_published counter" in text
        assert "telemetry_bus_published 3.0" in text
        assert "# TYPE telemetry_bus_depth gauge" in text
        assert 'obs_ingest_seconds_bucket{le="0.01"} 1' in text
        assert 'obs_ingest_seconds_summary{quantile="0.95"}' in text
        # multiple registries merge into one exposition
        assert prometheus_text([r, MetricsRegistry()]).count("# TYPE") >= 3

    def test_prometheus_text_duplicate_names_not_summed(self):
        """A name repeated across registries is not aggregated: the second
        copy is renamed ``_dup`` and any further copy is dropped."""
        registries = []
        for value in (1.0, 2.0, 4.0):
            r = MetricsRegistry()
            r.gauge("x.depth").set(value)
            registries.append(r)
        lines = prometheus_text(registries).splitlines()
        assert "x_depth 1.0" in lines
        assert "x_depth_dup 2.0" in lines
        assert not any(line.endswith(" 4.0") for line in lines)
        assert not any(line.endswith(" 7.0") for line in lines)
        assert [ln for ln in lines if ln.startswith("# TYPE")] == [
            "# TYPE x_depth gauge", "# TYPE x_depth_dup gauge",
        ]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_assigns_parent_and_trace(self):
        t = Tracer()
        with t.span("outer") as outer:
            assert t.current is outer
            with t.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert t.current is None
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self):
        t = Tracer()
        with t.span("a") as a:
            pass
        with t.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_error_marks_span_and_reraises(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (span,) = t.spans()
        assert span.error == "ValueError"

    def test_ring_buffer_bounds_memory(self):
        t = Tracer(capacity=4)
        for _ in range(10):
            with t.span("s"):
                pass
        assert len(t.spans()) == 4
        assert t.dropped == 6
        assert t.finished == 10

    def test_spans_have_durations_and_sim_time(self):
        t = Tracer()
        with t.span("s", sim_time=42.0, k="v") as sp:
            pass
        assert sp.duration >= 0.0
        assert sp.sim_time == 42.0
        assert sp.attrs["k"] == "v"

    def test_chrome_export_monotonic_complete_events(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        doc = spans_to_chrome(t.spans())
        events = doc["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 for e in events)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert ts[0] == 0.0  # relative to earliest span

    def test_disabled_obs_emits_nothing(self):
        OBS.reset()
        assert not OBS.enabled
        with OBS.span("s"):
            pass
        assert OBS.tracer.finished == 0


# ---------------------------------------------------------------------------
# Profiling facade
# ---------------------------------------------------------------------------
class TestObservabilityFacade:
    def test_spans_feed_duration_histograms(self, obs):
        for _ in range(3):
            with obs.tracer.span("op"):
                pass
        report = obs.report()
        assert report["op"]["count"] == 3.0
        assert report["op"]["p95_s"] >= 0.0
        assert "obs.op.seconds" in obs.registry

    def test_reset_clears_everything(self, obs):
        with obs.tracer.span("op"):
            pass
        obs.reset()
        assert obs.tracer.finished == 0
        assert len(obs.registry) == 0


# ---------------------------------------------------------------------------
# End-to-end: the instrumented pipeline
# ---------------------------------------------------------------------------
def _ancestry(span, by_id):
    names = []
    pid = span.parent_id
    while pid is not None:
        parent = by_id[pid]
        names.append(parent.name)
        pid = parent.parent_id
    return names


class TestPipelineTracing:
    def test_span_chain_scrape_to_ingest_and_federation(self, obs):
        from repro.oda import DataCenter
        from repro.oda.pipeline import DerivedMetricStage

        dc = DataCenter(seed=3, racks=1, nodes_per_rack=2, shards=2,
                        health_period=600.0)
        DerivedMetricStage(
            dc.telemetry.bus, "facility", "derived.pue",
            inputs=("facility.power.site_power", "facility.power.it_power"),
            compute=lambda v: {
                "derived.pue": v["facility.power.site_power"]
                / max(v["facility.power.it_power"], 1.0)
            },
        )
        dc.run(seconds=1800.0)
        names = dc.store.select("cluster.*")[:4]
        assert names
        grid, matrix = dc.store.align(names, 0.0, 1800.0, 300.0)
        assert matrix.shape[1] == len(names)

        spans = obs.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        seen = {s.name for s in spans}
        for expected in (
            "collector.collect", "collector.scrape", "bus.publish",
            "bus.deliver", "stage.process", "shard.ingest",
            "replica.write", "store.ingest", "federation.align",
            "scheduler.tick",
        ):
            assert expected in seen, f"missing span {expected}"

        # The acceptance chain: a store.ingest whose ancestry walks the
        # whole data path including a streaming-stage hop.
        chains = [
            _ancestry(s, by_id) for s in spans if s.name == "store.ingest"
        ]
        full = [
            c for c in chains
            if {"collector.scrape", "bus.publish", "stage.process",
                "shard.ingest", "replica.write"} <= set(c)
        ]
        assert full, "no ingest span traces back through the stage hop"
        # Direct (non-stage) deliveries also reach the store.
        assert any(
            {"collector.scrape", "bus.publish", "bus.deliver"} <= set(c)
            for c in chains
        )
        # Sim-time rides along on data-path spans.
        assert all(
            s.sim_time is not None for s in spans if s.name == "store.ingest"
        )

    def test_prometheus_snapshot_of_migrated_metrics(self, obs):
        from repro.oda import DataCenter

        dc = DataCenter(seed=4, racks=1, nodes_per_rack=2, shards=2,
                        health_period=600.0)
        dc.run(seconds=1200.0)
        text = dc.prometheus()
        assert "# TYPE telemetry_bus_published counter" in text
        assert "# TYPE telemetry_agent_site_scrapes counter" in text
        # Scrape time is the collector.scrape span's histogram.
        assert "# TYPE obs_collector_scrape_seconds histogram" in text
        assert "# TYPE telemetry_shard_batches counter" in text
        assert "# TYPE telemetry_health_probe_errors counter" in text
        # At least one histogram with quantile summaries (profiling spans).
        assert "_bucket{le=" in text
        assert 'quantile="0.99"' in text

    def test_overhead_switch_off_means_no_spans(self):
        from repro.oda import DataCenter

        OBS.reset()
        dc = DataCenter(seed=5, racks=1, nodes_per_rack=2)
        dc.run(seconds=600.0)
        assert OBS.tracer.finished == 0
        # registry snapshots keep working with OBS off
        health = dc.telemetry.bus.metrics.snapshot()
        assert health["telemetry.bus.published"] > 0


# ---------------------------------------------------------------------------
# Health-monitor satellites
# ---------------------------------------------------------------------------
class TestHealthSatellites:
    def test_probe_errors_isolated_and_counted(self):
        """A registered registry whose snapshot raises is skipped and
        counted; every other registry is still published."""
        from repro.simulation.engine import Simulator
        from repro.telemetry.collector import TelemetrySystem

        telemetry = TelemetrySystem(health_period=60.0)

        def explode():
            raise RuntimeError("probe exploded")

        bad = MetricsRegistry()
        bad.gauge("bad.metric", fn=explode)
        ok = MetricsRegistry()
        ok.gauge("ok.metric", fn=lambda: 1.0)
        telemetry.register(bad)
        telemetry.register(ok)
        monitor = telemetry.health
        sim = Simulator()
        monitor.start(sim)
        sim.run(180.0)
        assert monitor.ticks == 3
        assert monitor.probe_errors == 3
        assert "probe exploded" in monitor.last_probe_error
        batch = monitor.collect(240.0)
        assert batch.get("bad.metric") is None
        assert batch.get("ok.metric") == 1.0
        assert batch.get("telemetry.bus.published") is not None
        assert batch.get("telemetry.store.samples") is not None
        # Registered before the failing registry, yet this tick's failure
        # is already in the published count.
        assert batch.get("telemetry.health.probe_errors") == 4.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestObsCli:
    def test_obs_command_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "artifacts"
        rc = main([
            "obs", "--hours", "0.5", "--racks", "1", "--nodes-per-rack", "2",
            "--shards", "2", "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "store.ingest" in captured
        assert not OBS.enabled  # CLI tears the singleton back down

        doc = json.loads((out / "trace.json").read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        names = {e["name"] for e in events}
        assert {"collector.scrape", "bus.publish", "store.ingest"} <= names

        lines = (out / "spans.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(events)
        prom = (out / "metrics.prom").read_text()
        assert "telemetry_bus_published" in prom
