"""Tests for the multi-tenant query-serving front door.

Covers the admission layer (token buckets, bounded fair queues, load
shedding), the typed query surface and its parity with direct store
queries, tenant visibility scoping, the breaker-driven shed-first mode,
supervision wiring, the seeded workload generator, and the
TelemetrySystem/DataCenter accessors.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServingError
from repro.oda.supervision import BreakerState, CircuitBreaker, Supervisor
from repro.simulation.engine import Simulator
from repro.simulation.trace import TraceLog
from repro.telemetry import TelemetrySystem, TimeSeriesStore
from repro.telemetry.distributed import ShardedStore
from repro.telemetry.serving import (
    AdmissionController,
    AlignQuery,
    NamesQuery,
    QueryFrontend,
    RangeQuery,
    RejectReason,
    ResampleQuery,
    SelectQuery,
    TenantConfig,
    TokenBucket,
    WorkloadSpec,
    heavy_tailed_workload,
    replay,
)

NAMES = tuple(
    f"rack{r}.node{n}.power" for r in range(2) for n in range(4)
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def fill_store(store, names=NAMES, n=200, seed=0):
    rng = np.random.default_rng(seed)
    for name in names:
        times = np.arange(n, dtype=np.float64) * 5.0
        store.append_many(name, times, rng.random(n))
    return store


def inline_frontend(store=None, **kwargs) -> QueryFrontend:
    store = store if store is not None else fill_store(TimeSeriesStore())
    kwargs.setdefault("max_workers", 0)
    return QueryFrontend(store, **kwargs)


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_rate_limit(self):
        b = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert b.try_take(0.0) == 0.0
        assert b.try_take(0.0) == 0.0
        wait = b.try_take(0.0)
        assert wait == pytest.approx(1.0)
        # A failed take leaves the bucket untouched.
        assert b.try_take(0.0) == pytest.approx(1.0)
        assert b.try_take(1.0) == 0.0  # refilled exactly one token

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        for _ in range(3):
            assert b.try_take(1000.0) == 0.0
        assert b.try_take(1000.0) > 0.0

    def test_retry_hint_scales_with_rate(self):
        b = TokenBucket(rate=4.0, burst=1.0, now=0.0)
        assert b.try_take(0.0) == 0.0
        assert b.try_take(0.0) == pytest.approx(0.25)

    def test_infinite_rate_never_limits(self):
        b = TokenBucket(rate=float("inf"), burst=1.0)
        assert all(b.try_take(0.0) == 0.0 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ServingError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ServingError):
            TokenBucket(rate=1.0, burst=0.5)
        with pytest.raises(ServingError):
            TenantConfig(max_concurrency=0)
        with pytest.raises(ServingError):
            TenantConfig(max_queue=0)
        with pytest.raises(ServingError):
            TenantConfig(rate=-1.0)


# ---------------------------------------------------------------------------
# Admission controller
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_fair_round_robin_across_tenants(self):
        ctl = AdmissionController()
        a = ctl.tenant("a", 0.0)
        b = ctl.tenant("b", 0.0)
        for task in ("a1", "a2", "a3"):
            ctl.push(a, task)
        ctl.push(b, "b1")
        # Tenant a's backlog must not starve b: dispatch interleaves.
        order = [ctl.pop() for _ in range(4)]
        assert order == ["a1", "b1", "a2", "a3"]
        assert ctl.pop() is None

    def test_max_concurrency_skips_until_done(self):
        ctl = AdmissionController(
            default_config=TenantConfig(max_concurrency=1)
        )
        a = ctl.tenant("a", 0.0)
        ctl.push(a, "a1")
        ctl.push(a, "a2")
        assert ctl.pop() == "a1"
        assert ctl.pop() is None  # a is at max_concurrency
        ctl.task_done(a)
        assert ctl.pop() == "a2"

    def test_queue_bounds(self):
        ctl = AdmissionController(
            default_config=TenantConfig(max_queue=1), global_queue=2
        )
        a = ctl.tenant("a", 0.0)
        b = ctl.tenant("b", 0.0)
        assert ctl.try_admit(a, 0.0) is None
        ctl.push(a, "a1")
        reason, _ = ctl.try_admit(a, 0.0)
        assert reason is RejectReason.QUEUE_FULL  # per-tenant bound
        assert ctl.try_admit(b, 0.0) is None
        ctl.push(b, "b1")
        reason, _ = ctl.try_admit(b, 0.0)
        assert reason is RejectReason.QUEUE_FULL  # global bound

    def test_disabled_admission_admits_everything(self):
        ctl = AdmissionController(
            default_config=TenantConfig(rate=0.001, burst=1.0, max_queue=1),
            global_queue=1, enabled=False,
        )
        a = ctl.tenant("a", 0.0)
        for task in range(10):
            assert ctl.try_admit(a, 0.0) is None
            ctl.push(a, task)


# ---------------------------------------------------------------------------
# Inline frontend: query surface and parity
# ---------------------------------------------------------------------------
class TestQuerySurface:
    def test_names_and_select(self):
        fe = inline_frontend()
        out = fe.serve("t", NamesQuery())
        assert out.ok and out.payload == tuple(sorted(NAMES))
        sel = fe.serve("t", SelectQuery("rack0.*"))
        assert sel.ok
        assert sel.payload == tuple(n for n in sorted(NAMES) if n.startswith("rack0."))

    def test_range_resample_align_match_direct(self):
        store = fill_store(TimeSeriesStore())
        fe = QueryFrontend(store, max_workers=0)
        name = NAMES[0]

        out = fe.serve("t", RangeQuery(name, 100.0, 600.0))
        times, values = store.query(name, 100.0, 600.0)
        assert np.array_equal(out.payload[0], times)
        assert np.array_equal(out.payload[1], values)

        out = fe.serve("t", ResampleQuery(name, 0.0, 900.0, 60.0, agg="max"))
        grid, vals = store.resample(name, 0.0, 900.0, 60.0, agg="max")
        assert np.array_equal(out.payload[0], grid)
        assert np.array_equal(out.payload[1], vals, equal_nan=True)

        q = AlignQuery(names=NAMES[:3], since=0.0, until=900.0, step=60.0)
        out = fe.serve("t", q)
        grid, matrix = store.align(list(NAMES[:3]), 0.0, 900.0, 60.0)
        assert np.array_equal(out.payload[0], grid)
        assert np.array_equal(out.payload[1], matrix, equal_nan=True)
        assert out.payload[2] == NAMES[:3]

    def test_pattern_align_resolves_visible_names(self):
        fe = inline_frontend()
        out = fe.serve("t", AlignQuery(
            pattern="rack1.*", since=0.0, until=900.0, step=60.0,
        ))
        assert out.ok
        assert out.payload[2] == tuple(
            n for n in sorted(NAMES) if n.startswith("rack1.")
        )

    def test_unknown_metric_is_error_value_not_exception(self):
        fe = inline_frontend()
        out = fe.serve("t", RangeQuery("no.such.series"))
        assert not out.ok and not out.rejected
        assert "no.such.series" in out.error
        # Domain errors never feed the breaker.
        assert fe.breaker.state is BreakerState.CLOSED

    def test_bad_arguments_are_error_values(self):
        fe = inline_frontend()
        out = fe.serve("t", ResampleQuery(NAMES[0], 0.0, 900.0, -5.0))
        assert not out.ok and out.error
        assert fe.breaker.state is BreakerState.CLOSED

    def test_latency_recorded(self):
        fe = inline_frontend()
        out = fe.serve("t", NamesQuery())
        assert out.latency_s >= 0.0
        snap = fe.metrics.snapshot()
        assert snap["telemetry.serving.latency.count"] == 1.0
        assert snap["telemetry.serving.tenant.t.latency.count"] == 1.0


class TestVisibility:
    def cfg(self, *patterns):
        return TenantConfig(visibility=patterns)

    def test_catalog_queries_filtered(self):
        fe = inline_frontend(tenants={"scoped": self.cfg("rack0.*")})
        out = fe.serve("scoped", NamesQuery())
        assert out.payload == tuple(
            n for n in sorted(NAMES) if n.startswith("rack0.")
        )
        sel = fe.serve("scoped", SelectQuery("*.power"))
        assert all(n.startswith("rack0.") for n in sel.payload)

    def test_invisible_series_indistinguishable_from_absent(self):
        fe = inline_frontend(tenants={"scoped": self.cfg("rack0.*")})
        hidden = fe.serve("scoped", RangeQuery("rack1.node0.power"))
        absent = fe.serve("scoped", RangeQuery("rack0.missing.power"))
        assert not hidden.ok and not absent.ok
        # Same error shape: a tenant cannot probe for others' series.
        assert hidden.error.replace("rack1.node0.power", "X") == \
            absent.error.replace("rack0.missing.power", "X")

    def test_explicit_align_checks_every_name(self):
        fe = inline_frontend(tenants={"scoped": self.cfg("rack0.*")})
        out = fe.serve("scoped", AlignQuery(
            names=("rack0.node0.power", "rack1.node0.power"),
            since=0.0, until=900.0, step=60.0,
        ))
        assert not out.ok and "rack1.node0.power" in out.error

    def test_unscoped_tenant_sees_everything(self):
        fe = inline_frontend(tenants={"scoped": self.cfg("rack0.*")})
        out = fe.serve("other", NamesQuery())
        assert out.payload == tuple(sorted(NAMES))


# ---------------------------------------------------------------------------
# Admission through the frontend
# ---------------------------------------------------------------------------
class TestFrontendAdmission:
    def test_rate_limit_with_retry_hint(self):
        clock = FakeClock()
        fe = inline_frontend(
            tenants={"t": TenantConfig(rate=1.0, burst=1.0)}, clock=clock,
        )
        assert fe.serve("t", NamesQuery()).ok
        out = fe.serve("t", NamesQuery())
        assert out.rejected and out.reason is RejectReason.RATE_LIMITED
        assert out.retry_after_s == pytest.approx(1.0)
        clock.advance(1.0)
        assert fe.serve("t", NamesQuery()).ok

    def test_tenant_queue_full(self):
        fe = inline_frontend(
            tenants={"t": TenantConfig(max_queue=2)}, global_queue=100,
        )
        pending = [fe.submit("t", NamesQuery()) for _ in range(3)]
        assert not pending[0].done() and not pending[1].done()
        out = pending[2].result(0.0)
        assert out.rejected and out.reason is RejectReason.QUEUE_FULL
        fe.pump()
        assert all(p.result(0.0).ok for p in pending[:2])

    def test_saturation_shed_at_watermark(self):
        fe = inline_frontend(global_queue=10, shed_watermark=0.5)
        pending = [fe.submit("t", NamesQuery()) for _ in range(6)]
        shed = [p.result(0.0) for p in pending if p.done()]
        assert len(shed) == 1
        assert shed[0].reason is RejectReason.SHED
        assert fe.saturation_sheds == 1
        assert fe.pump() == 5

    def test_fairness_under_backlog(self):
        fe = inline_frontend()
        heavy = [fe.submit("heavy", NamesQuery()) for _ in range(8)]
        light = fe.submit("light", NamesQuery())
        fe.pump(max_tasks=2)  # one dispatch round: one heavy, one light
        assert light.done() and light.result(0.0).ok
        assert sum(1 for p in heavy if p.done()) == 1

    def test_admission_disabled_runs_everything(self):
        fe = inline_frontend(
            tenants={"t": TenantConfig(rate=0.001, burst=1.0, max_queue=1)},
            admission=False, clock=FakeClock(),
        )
        outs = [fe.serve("t", NamesQuery()) for _ in range(20)]
        assert all(o.ok for o in outs)

    def test_rejections_visible_in_metrics(self):
        clock = FakeClock()
        fe = inline_frontend(
            tenants={"t": TenantConfig(rate=1.0, burst=1.0)}, clock=clock,
        )
        fe.serve("t", NamesQuery())
        fe.serve("t", NamesQuery())
        snap = fe.metrics.snapshot()
        assert snap["telemetry.serving.rejected.rate_limited"] == 1.0
        assert snap["telemetry.serving.queries"] == 2.0
        assert snap["telemetry.serving.admitted"] == 1.0
        stats = fe.tenant_stats()["t"]
        assert stats["rejected.rate_limited"] == 1.0


# ---------------------------------------------------------------------------
# Breaker / shed-first mode
# ---------------------------------------------------------------------------
class TestBreakerShedFirst:
    def make(self):
        clock = FakeClock()
        store = fill_store(ShardedStore(shards=2, replication=0))
        fe = QueryFrontend(
            store, max_workers=0, clock=clock,
            breaker=CircuitBreaker(
                failure_threshold=2, open_timeout_s=10.0,
                max_open_timeout_s=10.0,
            ),
        )
        return fe, store, clock

    def downed_name(self, store):
        """A series whose owning shard is fully down."""
        victim = store.shard_of(NAMES[0])
        store.replica_sets[victim].mark_down(0)
        return NAMES[0], victim

    def test_shard_down_errors_trip_breaker(self):
        fe, store, clock = self.make()
        name, victim = self.downed_name(store)
        for _ in range(2):
            out = fe.serve("t", RangeQuery(name))
            assert not out.ok and not out.rejected
        assert fe.shedding
        out = fe.serve("t", RangeQuery(name))
        assert out.rejected and out.reason is RejectReason.BREAKER_OPEN
        snap = fe.metrics.snapshot()
        assert snap["telemetry.serving.shedding"] == 1.0
        assert snap["telemetry.serving.breaker_opens"] == 1.0

    def test_half_open_probe_recovers(self):
        fe, store, clock = self.make()
        name, victim = self.downed_name(store)
        fe.serve("t", RangeQuery(name))
        fe.serve("t", RangeQuery(name))
        assert fe.shedding
        store.replica_sets[victim].revive(0)
        clock.advance(11.0)
        out = fe.serve("t", RangeQuery(name))  # half-open probe
        assert out.ok
        assert not fe.shedding

    def test_watchdog_saturation_degrades_to_shedding(self):
        fe = inline_frontend(
            global_queue=10, shed_watermark=0.5,
            breaker=CircuitBreaker(failure_threshold=1, open_timeout_s=10.0),
            clock=FakeClock(),
        )
        for _ in range(5):
            fe.submit("t", NamesQuery())
        events = fe.watchdog_check()
        kinds = [k for k, _ in events]
        assert "saturated" in kinds and "breaker_transition" in kinds
        assert fe.shedding
        out = fe.serve("t", NamesQuery())
        assert out.rejected and out.reason is RejectReason.BREAKER_OPEN

    def test_supervisor_watchdog_traces_frontend_events(self):
        sim = Simulator()
        trace = TraceLog()
        fe = inline_frontend(
            global_queue=10, shed_watermark=0.5,
            breaker=CircuitBreaker(failure_threshold=1, open_timeout_s=1e6),
            clock=FakeClock(),
        )
        sup = Supervisor(sim, trace=trace).start()
        sup.watch_frontend(fe)
        sup.watch_frontend(fe)  # idempotent
        assert sup.frontends == [fe]
        for _ in range(5):
            fe.submit("t", NamesQuery())
        sim.run(601.0)  # past a watchdog period
        saturated = trace.select(source="supervisor.frontend", kind="saturated")
        assert saturated and saturated[0].detail["depth"] == 5
        transitions = trace.select(
            source="supervisor.frontend", kind="breaker_transition"
        )
        assert any(t.detail["to"] == "open" for t in transitions)
        values = sup.metrics.snapshot()
        assert values["oda.supervisor.frontends"] == 1.0
        assert values["oda.supervisor.frontends_shedding"] == 1.0
        assert values["oda.supervisor.frontend_breaker_opens"] >= 1.0


# ---------------------------------------------------------------------------
# Worker pool / threaded serving
# ---------------------------------------------------------------------------
class TestThreadedServing:
    def test_threaded_replay_completes_and_matches_direct(self):
        store = fill_store(ShardedStore(shards=2, replication=1))
        fe = QueryFrontend(store, max_workers=3)
        try:
            events = heavy_tailed_workload(
                sorted(store.names()), 0.0, 1000.0,
                WorkloadSpec(tenants=4, queries=80, seed=3),
            )
            outcomes = replay(fe, events, submitters=4)
            assert len(outcomes) == len(events)
            assert all(o is not None and o.ok for o in outcomes)
            # Spot-check bit parity against the federation engine.
            for (tenant, q), out in zip(events, outcomes):
                if q.kind == "resample":
                    grid, vals = store.resample(
                        q.name, q.since, q.until, q.step, agg=q.agg,
                    )
                    assert np.array_equal(out.payload[0], grid)
                    assert np.array_equal(out.payload[1], vals, equal_nan=True)
            snap = fe.metrics.snapshot()
            assert snap["telemetry.serving.completed"] == float(len(events))
            assert snap["telemetry.serving.queue_depth"] == 0.0
            assert snap["telemetry.serving.inflight"] == 0.0
        finally:
            fe.close()

    def test_concurrent_submit_and_ingest_keeps_serving(self):
        store = fill_store(TimeSeriesStore())
        fe = QueryFrontend(store, max_workers=2)
        stop = threading.Event()

        def ingest():
            t = 2000.0
            while not stop.is_set():
                store.append(NAMES[0], t, 1.0)
                t += 1.0

        w = threading.Thread(target=ingest)
        w.start()
        try:
            outs = [
                fe.serve("t", ResampleQuery(NAMES[0], 0.0, 900.0, 60.0))
                for _ in range(50)
            ]
            assert all(o.ok for o in outs)
            # Every answer over the frozen window is identical.
            first = outs[0].payload
            for out in outs[1:]:
                assert np.array_equal(out.payload[0], first[0])
                assert np.array_equal(out.payload[1], first[1], equal_nan=True)
        finally:
            stop.set()
            w.join()
            fe.close()

    def test_close_resolves_queued_as_closed(self):
        fe = inline_frontend()
        pending = [fe.submit("t", NamesQuery()) for _ in range(3)]
        fe.close()
        outs = [p.result(0.0) for p in pending]
        assert all(o.rejected and o.reason is RejectReason.CLOSED for o in outs)
        after = fe.serve("t", NamesQuery())
        assert after.rejected and after.reason is RejectReason.CLOSED
        fe.close()  # idempotent

    def test_result_timeout_raises_serving_error(self):
        fe = inline_frontend()
        pending = fe.submit("t", NamesQuery())  # never pumped
        with pytest.raises(ServingError):
            pending.result(0.01)
        fe.close()


# ---------------------------------------------------------------------------
# Workload generator
# ---------------------------------------------------------------------------
class TestWorkload:
    def test_deterministic_per_seed(self):
        spec = WorkloadSpec(tenants=4, queries=60, seed=7)
        a = heavy_tailed_workload(NAMES, 0.0, 1000.0, spec)
        b = heavy_tailed_workload(NAMES, 0.0, 1000.0, spec)
        assert a == b
        c = heavy_tailed_workload(
            NAMES, 0.0, 1000.0, WorkloadSpec(tenants=4, queries=60, seed=8)
        )
        assert a != c

    def test_hot_pool_repeats_queries(self):
        events = heavy_tailed_workload(
            NAMES, 0.0, 1000.0,
            WorkloadSpec(tenants=4, queries=200, seed=0, hot_fraction=0.7),
        )
        queries = [q for _, q in events]
        assert len(set(queries)) < len(queries)  # cache fodder exists

    def test_tenant_load_is_skewed(self):
        events = heavy_tailed_workload(
            NAMES, 0.0, 1000.0,
            WorkloadSpec(tenants=6, queries=300, seed=0),
        )
        counts = {}
        for tenant, _ in events:
            counts[tenant] = counts.get(tenant, 0) + 1
        assert counts["tenant0"] > counts.get("tenant5", 0) * 3

    def test_validation(self):
        with pytest.raises(ServingError):
            heavy_tailed_workload((), 0.0, 1000.0)
        with pytest.raises(ServingError):
            replay(inline_frontend(), [], submitters=0)


# ---------------------------------------------------------------------------
# TelemetrySystem / DataCenter wiring
# ---------------------------------------------------------------------------
class TestWiring:
    def test_telemetry_system_frontend_create_once(self):
        ts = TelemetrySystem()
        fill_store(ts.store)
        fe = ts.frontend(max_workers=0)
        assert ts.frontend() is fe
        with pytest.raises(ConfigurationError):
            ts.frontend(max_workers=2)
        assert fe.serve("t", NamesQuery()).ok
        assert any(
            "telemetry.serving.queries" in reg.snapshot()
            for reg in ts.metric_registries()
        )
        assert "telemetry_serving_queries" in ts.prometheus()
        ts.close()
        out = fe.serve("t", NamesQuery())
        assert out.rejected and out.reason is RejectReason.CLOSED

    def test_datacenter_frontend_under_supervision(self):
        from repro.oda import DataCenter

        dc = DataCenter(seed=1, racks=1, nodes_per_rack=2)
        try:
            dc.run(seconds=600.0)
            dc.enable_supervision()
            fe = dc.frontend(max_workers=0)
            assert dc.supervisor.frontends == [fe]
            assert dc.frontend() is fe
            out = fe.serve("ops", NamesQuery())
            assert out.ok and len(out.payload) > 0
            assert "oda_supervisor_frontends" in dc.prometheus()
        finally:
            dc.close()
