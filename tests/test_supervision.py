"""Tests for the control-plane supervision layer (repro.oda.supervision)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.prescriptive.control import ControlAction, ControlLoop, SetpointManager
from repro.errors import ChaosError, ControlError, SupervisionError
from repro.oda import DataCenter, MultiPillarOrchestrator, ODASystem
from repro.oda.pipeline import DerivedMetricStage
from repro.oda.supervision import (
    BreakerState,
    CircuitBreaker,
    ControllerFaultKind,
    SupervisionPolicy,
    Supervisor,
)
from repro.simulation import Simulator, TraceLog


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        b = CircuitBreaker(failure_threshold=3, open_timeout_s=100.0)
        assert not b.record_failure(0.0)
        assert not b.record_failure(1.0)
        assert b.record_failure(2.0)  # third consecutive failure opens
        assert b.state is BreakerState.OPEN
        assert not b.allow(50.0)  # still inside the open window

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success(1.0)
        assert not b.record_failure(2.0)  # count restarted
        assert b.state is BreakerState.CLOSED

    def test_half_open_probe_closes_on_success(self):
        b = CircuitBreaker(failure_threshold=1, open_timeout_s=100.0)
        b.record_failure(0.0)
        assert b.allow(100.0)  # probe allowed at the window edge
        assert b.state is BreakerState.HALF_OPEN
        b.record_success(100.0)
        assert b.state is BreakerState.CLOSED
        assert b.closes == 1

    def test_failed_probe_doubles_timeout(self):
        b = CircuitBreaker(failure_threshold=1, open_timeout_s=100.0,
                           backoff_factor=2.0)
        b.record_failure(0.0)
        assert b.allow(100.0)
        b.record_failure(100.0)  # probe fails -> re-open, window doubled
        assert b.state is BreakerState.OPEN
        assert not b.allow(250.0)   # 100 + 200 = 300 is the next probe
        assert b.allow(300.0)
        b.record_success(300.0)
        # A re-close resets the window back to the base timeout.
        b.record_failure(301.0)
        assert b.allow(401.0)

    def test_timeout_cap(self):
        b = CircuitBreaker(failure_threshold=1, open_timeout_s=100.0,
                           backoff_factor=10.0, max_open_timeout_s=400.0)
        b.record_failure(0.0)
        for _ in range(4):  # repeatedly fail probes
            t = b._probe_at
            assert b.allow(t)
            b.record_failure(t)
        assert b._current_timeout == 400.0

    def test_transitions_all_legal(self):
        b = CircuitBreaker(failure_threshold=1, open_timeout_s=10.0)
        b.record_failure(0.0)
        b.allow(10.0)
        b.record_failure(10.0)
        b.allow(40.0)
        b.record_success(40.0)
        legal = {
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
            (BreakerState.HALF_OPEN, BreakerState.OPEN),
        }
        assert [(t.from_state, t.to_state) for t in b.transitions]
        assert all((t.from_state, t.to_state) in legal for t in b.transitions)

    def test_invalid_config_rejected(self):
        with pytest.raises(SupervisionError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(SupervisionError):
            CircuitBreaker(open_timeout_s=0.0)


# ----------------------------------------------------------------------
# Supervised loops on a bare simulator
# ----------------------------------------------------------------------
def _supervisor(sim, trace, **policy_kwargs):
    policy = SupervisionPolicy(**policy_kwargs)
    return Supervisor(sim, trace=trace, policy=policy).start()


class TestSupervisedLoop:
    def test_raising_decide_is_isolated(self, sim, trace):
        def bad_decide(now, ro):
            raise RuntimeError("boom")

        loop = ControlLoop("bad", bad_decide, period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace, max_retries=0, failure_threshold=3)
        sup.supervise_loop(loop)
        sim.run(100.0)  # would raise into the event loop unsupervised
        s = sup.loops["bad"]
        assert s.decide_failures > 0
        assert s.breaker.state is BreakerState.OPEN
        assert any(e.kind == "breaker_open"
                   for e in trace.select(source="supervisor.bad"))

    def test_unsupervised_loop_still_raises(self, sim, trace):
        def bad_decide(now, ro):
            raise RuntimeError("boom")

        loop = ControlLoop("bad", bad_decide, period=10.0)
        loop.attach(sim, trace)
        with pytest.raises(RuntimeError):
            sim.run(100.0)

    def test_retry_masks_transient_failure(self, sim, trace):
        calls = {"n": 0}

        def flaky(now, ro):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("transient")
            return []

        loop = ControlLoop("flaky", flaky, period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace, max_retries=1, failure_threshold=2)
        sup.supervise_loop(loop)
        sim.run(100.0)
        s = sup.loops["flaky"]
        assert s.retries == 10           # one retry per tick
        assert s.breaker.state is BreakerState.CLOSED  # retries succeeded

    def test_breaker_recloses_after_fault_window(self, sim, trace):
        loop = ControlLoop("c", lambda now, ro: [], period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace, max_retries=0, failure_threshold=2,
                          open_timeout_s=30.0)
        s = sup.supervise_loop(loop)
        s.inject_fault(ControllerFaultKind.RAISE, start=10.0, duration=15.0)
        sim.run(200.0)
        # Fails at t=10, 20 -> opens; probe at t=50 succeeds -> closes.
        assert s.breaker.opens == 1
        assert s.breaker.closes == 1
        assert s.breaker.state is BreakerState.CLOSED
        kinds = [e.kind for e in trace.select(source="supervisor.c")]
        assert "breaker_open" in kinds and "breaker_close" in kinds

    def test_safe_state_drives_manager_rate_limited(self, sim, trace):
        applied = []
        manager = SetpointManager(
            actuator=applied.append, initial=30.0, lo=10.0, hi=40.0,
            max_step=2.0,
        )

        loop = ControlLoop("cool", lambda now, ro: [], period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace, max_retries=0, failure_threshold=1,
                          open_timeout_s=1000.0)
        s = sup.supervise_loop(loop, manager=manager, safe_setpoint=20.0)
        s.inject_fault(ControllerFaultKind.RAISE, start=10.0, duration=5.0)
        sim.run(100.0)
        # Breaker opens at t=10; each subsequent tick steps 2 C toward 20.
        assert manager.current == 20.0
        assert applied == [28.0, 26.0, 24.0, 22.0, 20.0]
        assert s.safe_state_entries == 1
        safe_actions = [a for a in loop.actions if a.knob == "safe_setpoint"]
        assert len(safe_actions) == 5
        assert safe_actions[0].controller == "supervisor.cool"
        assert any(e.kind == "safe_state_enter"
                   for e in trace.select(source="supervisor.cool"))

    def test_garbage_decisions_rejected_and_counted(self, sim, trace):
        loop = ControlLoop("g", lambda now, ro: [], period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace, failure_threshold=3)
        s = sup.supervise_loop(loop)
        s.inject_fault(ControllerFaultKind.GARBAGE, start=10.0, duration=25.0)
        sim.run(100.0)
        assert s.garbage_actions == 3
        assert s.breaker.opens == 1  # garbage is a failure mode
        assert all(np.isfinite(a.value) for a in loop.actions)

    def test_real_nan_action_also_rejected(self, sim, trace):
        loop = ControlLoop(
            "nan", lambda now, ro: [ControlAction(now, "nan", "k", float("nan"))],
            period=10.0,
        )
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace, failure_threshold=100)
        sup.supervise_loop(loop)
        sim.run(50.0)
        assert sup.loops["nan"].garbage_actions == 5
        assert loop.actions == []

    def test_hang_detected_by_watchdog(self, sim, trace):
        loop = ControlLoop("h", lambda now, ro: [], period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(
            sim, trace, failure_threshold=2, watchdog_period_s=10.0,
            watchdog_factor=2.5, open_timeout_s=500.0,
        )
        s = sup.supervise_loop(loop)
        s.inject_fault(ControllerFaultKind.HANG, start=10.0, duration=80.0)
        sim.run(100.0)
        assert s.missed_deadlines >= 2
        assert s.breaker.opens == 1
        assert any(e.kind == "missed_deadline"
                   for e in trace.select(source="supervisor.h"))

    def test_stale_guard_refuses_actuation(self, sim, trace):
        from repro.telemetry.store import TimeSeriesStore

        store = TimeSeriesStore()
        store.append("sensor.x", 0.0, 1.0)
        calls = {"n": 0}

        def decide(now, ro):
            calls["n"] += 1
            return []

        loop = ControlLoop("s", decide, period=10.0)
        loop.attach(sim, trace)
        sup = Supervisor(
            sim, trace=trace, store=store,
            policy=SupervisionPolicy(stale_horizon_s=25.0),
        ).start()
        s = sup.supervise_loop(loop, inputs=("sensor.x",))
        sim.run(100.0)
        # Fresh until t=25, stale afterwards: decides at 10, 20 only.
        assert calls["n"] == 2
        assert s.stale_skips == 8
        assert s.breaker.state is BreakerState.CLOSED  # stale is not failure
        assert any(e.kind == "stale_skip"
                   for e in trace.select(source="supervisor.s"))

    def test_missing_input_counts_as_stale(self, sim, trace):
        from repro.telemetry.store import TimeSeriesStore

        loop = ControlLoop("m", lambda now, ro: [], period=10.0)
        loop.attach(sim, trace)
        sup = Supervisor(
            sim, trace=trace, store=TimeSeriesStore(),
            policy=SupervisionPolicy(stale_horizon_s=60.0),
        ).start()
        s = sup.supervise_loop(loop, inputs=("never.there",))
        sim.run(30.0)
        assert s.stale_skips == 3

    def test_supervise_loop_idempotent(self, sim, trace):
        loop = ControlLoop("x", lambda now, ro: [], period=10.0)
        sup = _supervisor(sim, trace)
        a = sup.supervise_loop(loop)
        assert sup.supervise_loop(loop) is a
        other = ControlLoop("x", lambda now, ro: [], period=10.0)
        with pytest.raises(SupervisionError):
            sup.supervise_loop(other)

    def test_safe_setpoint_without_manager_rejected(self, sim, trace):
        loop = ControlLoop("y", lambda now, ro: [], period=10.0)
        sup = _supervisor(sim, trace)
        with pytest.raises(SupervisionError):
            sup.supervise_loop(loop, safe_setpoint=20.0)

    def test_metrics_registry_exports(self, sim, trace):
        loop = ControlLoop("z", lambda now, ro: [], period=10.0)
        loop.attach(sim, trace)
        sup = _supervisor(sim, trace)
        sup.supervise_loop(loop)
        sim.run(50.0)
        snap = sup.metrics.snapshot()
        assert snap["oda.supervisor.loops"] == 1.0
        assert snap["oda.supervisor.decide_failures"] == 0.0
        assert "oda_supervisor_loops 1.0" in sup.metrics.to_prometheus()


# ----------------------------------------------------------------------
# Supervised streaming stages
# ----------------------------------------------------------------------
class TestSupervisedStage:
    def _site(self):
        dc = DataCenter(seed=3, racks=1, nodes_per_rack=4)
        dc.enable_supervision()
        return dc

    def test_broken_stage_breaker_opens_and_skips(self):
        dc = self._site()
        system = ODASystem("site", dc)
        calls = {"n": 0}

        def explode(values):
            calls["n"] += 1
            raise RuntimeError("bad stage")

        stage = DerivedMetricStage(
            dc.telemetry.bus, "facility", "derived.bad",
            inputs=("facility.pue",), compute=explode,
        )
        system.add_stage(stage)
        dc.run(seconds=3600.0)
        supervised = dc.supervisor.stages["derived.bad"]
        assert supervised.breaker.opens >= 1
        assert supervised.skipped > 0          # fast-fail while open
        assert stage.errors == supervised.failures  # own counter intact
        # The breaker throttles calls: far fewer than one per batch.
        assert calls["n"] < stage.processed

    def test_healthy_stage_untouched(self):
        dc = self._site()
        system = ODASystem("site", dc)
        stage = DerivedMetricStage(
            dc.telemetry.bus, "facility", "derived.pue",
            inputs=("facility.power.site_power", "facility.power.it_power"),
            compute=lambda v: {"derived.pue": v["facility.power.site_power"]
                               / max(v["facility.power.it_power"], 1.0)},
        )
        system.add_stage(stage)
        dc.run(seconds=3600.0)
        supervised = dc.supervisor.stages["derived.pue"]
        assert supervised.breaker.state is BreakerState.CLOSED
        assert supervised.skipped == 0
        assert stage.emitted > 0


# ----------------------------------------------------------------------
# Satellite bugfixes: transactional SetpointManager, partial audit log
# ----------------------------------------------------------------------
class TestTransactionalSetpoint:
    def test_failed_actuation_leaves_state_unchanged(self):
        def actuator(value):
            raise ControlError("plant refused")

        manager = SetpointManager(actuator, initial=25.0, lo=10.0, hi=40.0,
                                  max_step=2.0)
        with pytest.raises(ControlError):
            manager.request(30.0)
        assert manager.current == 25.0
        assert manager.actuations == 0

    def test_successful_actuation_commits(self):
        seen = []
        manager = SetpointManager(seen.append, initial=25.0, lo=10.0, hi=40.0,
                                  max_step=2.0)
        assert manager.request(30.0) == 27.0
        assert manager.current == 27.0
        assert manager.actuations == 1
        assert seen == [27.0]


class TestPartialAuditLog:
    def test_applied_actions_logged_when_decide_fails_midway(self, sim, trace):
        def decide(now, ro):
            loop.record_applied(ControlAction(now, "c", "knob_a", 1.0))
            raise RuntimeError("failed after first actuation")

        loop = ControlLoop("c", decide, period=10.0)
        loop.attach(sim, trace)
        with pytest.raises(RuntimeError):
            sim.run(15.0)
        assert len(loop.actions) == 1
        assert loop.actions[0].knob == "knob_a"
        events = trace.select(source="control.c", kind="control_action")
        assert len(events) == 1
        assert events[0].detail["partial"] is True

    def test_returned_and_registered_actions_logged_once(self, sim, trace):
        def decide(now, ro):
            action = loop.record_applied(ControlAction(now, "c", "k", 2.0))
            return [action]

        loop = ControlLoop("c", decide, period=10.0)
        loop.attach(sim, trace)
        sim.run(10.0)
        assert len(loop.actions) == 1


# ----------------------------------------------------------------------
# Satellite: property test for supervision invariants
# ----------------------------------------------------------------------
LEGAL = {
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
}


class TestSupervisionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fail_prob=st.floats(min_value=0.05, max_value=0.9),
        threshold=st.integers(min_value=1, max_value=4),
        open_timeout=st.floats(min_value=20.0, max_value=200.0),
    )
    def test_random_failures_never_escape_and_transitions_legal(
        self, seed, fail_prob, threshold, open_timeout
    ):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        trace = TraceLog()
        applied = []
        manager = SetpointManager(applied.append, initial=30.0, lo=10.0,
                                  hi=40.0, max_step=2.0)

        def flaky(now, ro):
            roll = rng.random()
            if roll < fail_prob / 2:
                raise RuntimeError("decide exploded")
            if roll < fail_prob:
                # Actuator path: request raises through decide.
                raise ChaosError("actuator refused")
            return []

        loop = ControlLoop("p", flaky, period=10.0)
        loop.attach(sim, trace)
        sup = Supervisor(
            sim, trace=trace,
            policy=SupervisionPolicy(
                max_retries=0, failure_threshold=threshold,
                open_timeout_s=open_timeout, watchdog_period_s=50.0,
            ),
        ).start()
        s = sup.supervise_loop(loop, manager=manager, safe_setpoint=20.0)
        sim.run(2000.0)  # always completes: failures are isolated

        transitions = s.breaker.transitions
        # 1. Every transition is legal, and they chain state-to-state.
        assert all((t.from_state, t.to_state) in LEGAL for t in transitions)
        for prev, nxt in zip(transitions, transitions[1:]):
            assert prev.to_state is nxt.from_state
        if transitions:
            assert transitions[0].from_state is BreakerState.CLOSED

        # 2. Safe state entered exactly once per breaker-open episode.
        # An episode spans CLOSED->OPEN up to the next HALF_OPEN->CLOSED
        # (re-opens from HALF_OPEN stay inside the same episode).
        episodes = sum(
            1 for t in transitions
            if t.from_state is BreakerState.CLOSED and t.to_state is BreakerState.OPEN
        )
        assert s.safe_state_entries == episodes
        assert s.safe_state_exits <= s.safe_state_entries

        # 3. The safe drive is rate-limited and bounded.
        assert all(10.0 <= v <= 40.0 for v in applied)
        for prev, nxt in zip([30.0] + applied, applied):
            assert abs(nxt - prev) <= 2.0 + 1e-12


# ----------------------------------------------------------------------
# Acceptance: supervised no-fault run is bit-identical to unsupervised
# ----------------------------------------------------------------------
class TestBitIdenticalWhenHealthy:
    def _run(self, supervised: bool) -> DataCenter:
        dc = DataCenter(seed=21, racks=1, nodes_per_rack=8)
        if supervised:
            dc.enable_supervision()
        orchestrator = MultiPillarOrchestrator(dc)
        orchestrator.attach()
        dc.generate_workload(days=0.3, jobs_per_day=40.0)
        dc.run(days=0.3)
        return dc

    def test_plant_trajectory_identical(self):
        plain = self._run(False)
        supervised = self._run(True)
        assert supervised.supervisor is not None
        assert "orchestrator" in supervised.supervisor.loops
        for series in ("facility.pue", "cluster.it_power",
                       "facility.loop0.pump.power", "cluster.nodes_up"):
            ta, va = plain.store.query(series)
            tb, vb = supervised.store.query(series)
            assert np.array_equal(ta, tb)
            assert np.array_equal(va, vb)
        sup = supervised.supervisor
        assert sup._sum("decide_failures") == 0
        assert sup.open_breakers() == 0
