"""Control-plane supervision: the ODA system must not be able to kill itself.

The paper's deployment-experience companion (Netti et al., "Operational
Data Analytics in Practice") stresses that production ODA runs its
analytics units under *isolation* — DCDB Wintermute executes operator
plugins so that one bad analytics unit cannot take down collection.  This
module is that discipline applied to the prescriptive control plane: every
:class:`~repro.analytics.prescriptive.control.ControlLoop` and
:class:`~repro.oda.pipeline.StreamingStage` registered with a supervised
site is wrapped in a :class:`Supervisor` that provides

* **error isolation** — a raising ``decide()``/``process()`` never reaches
  the simulator event loop, so one broken controller cannot abort the run;
* **retry** — a failed decide is retried in-tick up to a configured count;
* **circuit breaking** — per-controller :class:`CircuitBreaker` (closed →
  open after N consecutive failures → half-open probe → closed), with the
  open window growing exponentially while probes keep failing (defined in
  :mod:`repro.breaker`, which the serving front door shares, and
  re-exported here);
* **watchdog heartbeats** — a periodic deadline check that notices a hung
  (unresponsive, not raising) controller and feeds its breaker;
* **stale-telemetry guard** — actuation is refused when the inputs a
  controller declares are older than a configurable horizon;
* **safe-state fallback** — when a breaker opens, the controller's
  :class:`~repro.analytics.prescriptive.control.SetpointManager` is driven
  (rate-limited) back to a declared safe setpoint, recorded as ordinary
  :class:`~repro.analytics.prescriptive.control.ControlAction` audit
  entries plus ``supervisor.*`` trace events.

Everything the supervisor observes is exported as typed ``oda.supervisor.*``
metrics, and the chaos engine (:mod:`repro.oda.chaos`) uses the controller
fault hooks here (raise / hang / garbage decisions) to exercise the whole
stack end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite as _isfinite
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analytics.prescriptive.control import ControlAction, ControlLoop, SetpointManager
from repro.breaker import BreakerState, BreakerTransition, CircuitBreaker
from repro.errors import ChaosError, SupervisionError
from repro.obs.metrics import MetricsRegistry
from repro.oda.pipeline import StreamingStage
from repro.simulation.engine import PeriodicHandle, Simulator
from repro.simulation.trace import TraceLog

__all__ = [
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "ControllerFault",
    "ControllerFaultKind",
    "SupervisionPolicy",
    "SupervisedLoop",
    "SupervisedStage",
    "Supervisor",
]


class ControllerFaultKind(Enum):
    """Injected controller pathologies (the chaos engine's control-plane leg)."""

    RAISE = "raise"        # decide() raises every call
    HANG = "hang"          # decide() never returns (modelled as no heartbeat)
    GARBAGE = "garbage"    # decide() returns non-finite garbage decisions


@dataclass(frozen=True)
class ControllerFault:
    """One scheduled controller-fault episode (ground truth for scoring)."""

    loop: str
    kind: ControllerFaultKind
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, now: float) -> bool:
        return self.start <= now <= self.end


@dataclass
class SupervisionPolicy:
    """Tunables of the supervision layer.

    ``stale_horizon_s`` is off (``None``) by default so an un-configured
    supervised run stays bit-identical to an unsupervised one (no store
    reads on the control path).
    """

    max_retries: int = 1                    # in-tick retries of a failed decide
    failure_threshold: int = 3              # consecutive failures to open
    open_timeout_s: float = 3600.0          # first open window (sim seconds)
    backoff_factor: float = 2.0             # open-window growth per failed probe
    max_open_timeout_s: float = 12 * 3600.0
    half_open_successes: int = 1            # probe successes to re-close
    watchdog_period_s: float = 300.0        # heartbeat check period
    watchdog_factor: float = 2.5            # missed deadline = factor * loop period
    stale_horizon_s: Optional[float] = None  # refuse actuation on older inputs
    validate_actions: bool = True           # reject non-finite decided values

    def build_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            open_timeout_s=self.open_timeout_s,
            backoff_factor=self.backoff_factor,
            max_open_timeout_s=self.max_open_timeout_s,
            half_open_successes=self.half_open_successes,
        )


class SupervisedLoop:
    """A :class:`ControlLoop` wrapped with the full supervision contract.

    The wrapper replaces ``loop.decide`` in place, so the unchanged
    ``ControlLoop.step`` machinery (audit log, trace) keeps working; safe
    state drives are returned as ordinary actions and land in the same
    audit trail.
    """

    def __init__(
        self,
        supervisor: "Supervisor",
        loop: ControlLoop,
        policy: SupervisionPolicy,
        manager: Optional[SetpointManager] = None,
        safe_setpoint: Optional[float] = None,
        inputs: Sequence[str] = (),
    ):
        if manager is None and safe_setpoint is not None:
            raise SupervisionError(
                f"loop {loop.name!r}: a safe setpoint needs a SetpointManager"
            )
        self.supervisor = supervisor
        self.loop = loop
        self.policy = policy
        self.manager = manager
        self.safe_setpoint = safe_setpoint
        self.inputs = tuple(inputs)
        self.breaker = policy.build_breaker()
        self.inner: Callable[[float, bool], Optional[List[ControlAction]]] = loop.decide
        loop.decide = self._decide
        # Heartbeats / counters
        self.last_heartbeat = supervisor.sim.now
        self.decide_failures = 0
        self.retries = 0
        self.stale_skips = 0
        self.missed_deadlines = 0
        self.garbage_actions = 0
        self.hang_ticks = 0
        self.safe_state_entries = 0
        self.safe_state_exits = 0
        self.last_error = ""
        self._in_safe_state = False
        self.faults: List[ControllerFault] = []
        # Precomputed: whether the stale-telemetry guard is active (the
        # fast path skips the store probe entirely when it is not).
        self._guarded = (
            policy.stale_horizon_s is not None
            and bool(self.inputs)
            and supervisor.store is not None
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.loop.name

    def inject_fault(
        self, kind: ControllerFaultKind, start: float, duration: float
    ) -> ControllerFault:
        """Schedule a fault episode on this controller; returns ground truth."""
        fault = ControllerFault(self.loop.name, kind, start, duration)
        self.faults.append(fault)
        return fault

    def _active_fault(self, now: float) -> Optional[ControllerFault]:
        for fault in self.faults:
            if fault.active(now):
                return fault
        return None

    # ------------------------------------------------------------------
    def _emit(self, now: float, kind: str, **detail) -> None:
        self.supervisor.emit(now, f"supervisor.{self.loop.name}", kind, **detail)

    def _inputs_stale(self, now: float) -> Optional[str]:
        """Name of the first stale/missing input series, or ``None``."""
        horizon = self.policy.stale_horizon_s
        store = self.supervisor.store
        if horizon is None or not self.inputs or store is None:
            return None
        for name in self.inputs:
            if name not in store:
                return name
            t, _ = store.latest(name)
            if now - t > horizon:
                return name
        return None

    def _validated(self, now: float, actions: List[ControlAction]) -> Tuple[List[ControlAction], int]:
        """Drop non-finite decided values; returns (clean actions, dropped)."""
        if not actions or not self.policy.validate_actions:
            return actions, 0
        clean = [a for a in actions if math.isfinite(a.value)]
        dropped = len(actions) - len(clean)
        if dropped:
            self.garbage_actions += dropped
            self._emit(
                now, "garbage_action",
                dropped=dropped, knobs=[a.knob for a in actions if not math.isfinite(a.value)],
            )
        return clean, dropped

    # ------------------------------------------------------------------
    # Safe state
    # ------------------------------------------------------------------
    def _enter_safe_state(self, now: float) -> None:
        if self._in_safe_state:
            return
        self._in_safe_state = True
        self.safe_state_entries += 1
        self._emit(
            now, "safe_state_enter",
            safe_setpoint=self.safe_setpoint,
            breaker_timeout_s=self.breaker._current_timeout,
        )

    def _exit_safe_state(self, now: float) -> None:
        if not self._in_safe_state:
            return
        self._in_safe_state = False
        self.safe_state_exits += 1
        self._emit(now, "safe_state_exit")

    def _safe_drive(self, now: float, recommend_only: bool) -> List[ControlAction]:
        """One rate-limited step toward the declared safe setpoint."""
        self._enter_safe_state(now)
        if (
            self.manager is None
            or self.safe_setpoint is None
            or recommend_only
            or self.manager.current == self.safe_setpoint
        ):
            return []
        applied = self.manager.request(self.safe_setpoint)
        action = ControlAction(
            now, f"supervisor.{self.loop.name}", "safe_setpoint", applied,
            f"safe-state fallback toward {self.safe_setpoint:g}",
        )
        return [self.loop.record_applied(action)]

    # ------------------------------------------------------------------
    # The wrapped decide
    # ------------------------------------------------------------------
    def _decide(self, now: float, recommend_only: bool) -> List[ControlAction]:
        # Fast path — the steady state of a healthy controller: no fault
        # episodes scheduled, breaker closed, stale guard off.  Everything
        # the slow path would check is constant-false here, so the wrapper
        # cost reduces to a heartbeat store and the try/except (which the
        # benchmark holds under 5% of a production-shaped decide).
        breaker = self.breaker
        if (
            not self.faults
            and breaker.state is BreakerState.CLOSED
            and not self._guarded
        ):
            self.last_heartbeat = now
            try:
                actions = self.inner(now, recommend_only)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                return self._handle_failure(now, recommend_only, exc,
                                            fault=None, probing=False)
            if actions:
                for action in actions:
                    if not _isfinite(action.value):
                        return self._accept(now, recommend_only, actions)
                breaker.consecutive_failures = 0  # record_success, CLOSED
                return actions
            breaker.consecutive_failures = 0
            return []
        return self._decide_slow(now, recommend_only)

    def _decide_slow(self, now: float, recommend_only: bool) -> List[ControlAction]:
        fault = self._active_fault(now)
        hung = fault is not None and fault.kind is ControllerFaultKind.HANG
        if not hung:
            self.last_heartbeat = now
        if not self.breaker.allow(now):
            return self._safe_drive(now, recommend_only)
        if hung:
            # The controller is unresponsive: no result, no exception, no
            # heartbeat.  The watchdog detects the missed deadline.
            self.hang_ticks += 1
            return []

        probing = self.breaker.state is BreakerState.HALF_OPEN
        if probing:
            self._emit(now, "breaker_probe")

        stale = self._inputs_stale(now)
        if stale is not None:
            self.stale_skips += 1
            self._emit(now, "stale_skip", input=stale,
                       horizon_s=self.policy.stale_horizon_s)
            return []

        try:
            actions = self._attempt(now, recommend_only, fault)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            return self._handle_failure(now, recommend_only, exc, fault, probing)
        return self._accept(now, recommend_only, actions)

    def _attempt(self, now: float, recommend_only: bool,
                 fault: Optional[ControllerFault]) -> List[ControlAction]:
        """One raw decide attempt, with any active fault injection applied."""
        if fault is not None and fault.kind is ControllerFaultKind.RAISE:
            raise ChaosError(f"injected controller crash in {self.loop.name!r}")
        if fault is not None and fault.kind is ControllerFaultKind.GARBAGE:
            return [ControlAction(
                now, self.loop.name, "garbage", float("nan"),
                "injected garbage decision",
            )]
        return self.inner(now, recommend_only) or []

    def _handle_failure(
        self,
        now: float,
        recommend_only: bool,
        exc: Exception,
        fault: Optional[ControllerFault],
        probing: bool,
    ) -> List[ControlAction]:
        """Record a decide failure; retry in-tick, then feed the breaker."""
        attempts = 0
        while True:
            self.decide_failures += 1
            self.last_error = repr(exc)
            self._emit(now, "decide_error", error=repr(exc), attempt=attempts)
            if attempts >= self.policy.max_retries or probing:
                opened = self.breaker.record_failure(now, repr(exc))
                if opened:
                    self._emit(now, "breaker_open", error=repr(exc))
                    return self._safe_drive(now, recommend_only)
                return []
            attempts += 1
            self.retries += 1
            try:
                actions = self._attempt(now, recommend_only, fault)
            except Exception as retry_exc:  # noqa: BLE001
                exc = retry_exc
                continue
            return self._accept(now, recommend_only, actions)

    def _accept(self, now: float, recommend_only: bool,
                actions: List[ControlAction]) -> List[ControlAction]:
        """Validate a successful decide and feed the breaker."""
        actions, dropped = self._validated(now, actions)
        if dropped:
            # Garbage decisions are failures: a controller emitting
            # non-finite actuations is as broken as a raising one.
            opened = self.breaker.record_failure(now, "non-finite decision")
            if opened:
                self._emit(now, "breaker_open", error="non-finite decision")
                return actions + self._safe_drive(now, recommend_only)
            return actions
        was_half_open = self.breaker.state is BreakerState.HALF_OPEN
        self.breaker.record_success(now)
        if was_half_open and self.breaker.state is BreakerState.CLOSED:
            self._emit(now, "breaker_close")
            self._exit_safe_state(now)
        return actions

    # ------------------------------------------------------------------
    def check_deadline(self, now: float) -> bool:
        """Watchdog hook: ``True`` if the loop missed its heartbeat deadline."""
        handle = self.loop._handle
        if handle is None or not handle.active:
            return False  # not attached: nothing to watch
        deadline = self.policy.watchdog_factor * self.loop.period
        if now - self.last_heartbeat <= deadline:
            return False
        self.missed_deadlines += 1
        self._emit(now, "missed_deadline",
                   last_heartbeat=self.last_heartbeat, deadline_s=deadline)
        # A hung controller cannot report its own failure; the watchdog
        # feeds the breaker on its behalf.  Reset the heartbeat so one hang
        # episode produces one failure per watchdog deadline, not per tick.
        self.last_heartbeat = now
        if self.breaker.state is not BreakerState.OPEN:
            opened = self.breaker.record_failure(now, "missed heartbeat deadline")
            if opened:
                self._emit(now, "breaker_open", error="missed heartbeat deadline")
                self._enter_safe_state(now)
        return True


class SupervisedStage:
    """A :class:`StreamingStage` wrapped with a circuit breaker.

    The stage's own error isolation (PR 1) already keeps a raising
    ``process()`` off the bus delivery loop; the breaker adds *fast-fail*:
    a persistently-broken stage stops being called at all until its probe
    window, so it cannot burn the pipeline's time budget or emit garbage
    derived metrics while broken.
    """

    def __init__(
        self,
        supervisor: "Supervisor",
        stage: StreamingStage,
        policy: SupervisionPolicy,
    ):
        self.supervisor = supervisor
        self.stage = stage
        self.policy = policy
        self.breaker = policy.build_breaker()
        self.inner = stage.process
        stage.process = self._process  # instance attribute shadows the method
        self.skipped = 0
        self.failures = 0

    @property
    def name(self) -> str:
        return self.stage.output_topic

    def _process(self, topic: str, batch):
        now = batch.time
        if not self.breaker.allow(now):
            self.skipped += 1
            return None
        was_half_open = self.breaker.state is BreakerState.HALF_OPEN
        try:
            out = self.inner(topic, batch)
        except Exception as exc:
            self.failures += 1
            opened = self.breaker.record_failure(now, repr(exc))
            if opened:
                self.supervisor.emit(
                    now, f"supervisor.stage.{self.name}", "breaker_open",
                    error=repr(exc),
                )
            raise  # the stage's own counter/isolation still applies
        self.breaker.record_success(now)
        if was_half_open and self.breaker.state is BreakerState.CLOSED:
            self.supervisor.emit(
                now, f"supervisor.stage.{self.name}", "breaker_close"
            )
        return out


class Supervisor:
    """Supervision root for one site's control plane.

    Wraps control loops (:meth:`supervise_loop`) and streaming stages
    (:meth:`supervise_stage`), runs the watchdog, owns the
    ``oda.supervisor.*`` metrics registry and writes every supervision
    event into the site trace under ``supervisor.*`` sources.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: Optional[TraceLog] = None,
        store=None,
        policy: Optional[SupervisionPolicy] = None,
    ):
        self.sim = sim
        self.trace = trace
        self.store = store
        self.policy = policy or SupervisionPolicy()
        self.loops: Dict[str, SupervisedLoop] = {}
        self.stages: Dict[str, SupervisedStage] = {}
        self.runtimes: List = []  # parallel shard runtimes under watch
        self.frontends: List = []  # query frontends under saturation watch
        self.replica_watches: List[dict] = []  # anti-entropy sweep targets
        self._watchdog: Optional[PeriodicHandle] = None
        self._metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------
    def emit(self, now: float, source: str, kind: str, **detail) -> None:
        if self.trace is not None:
            self.trace.emit(now, source, kind, **detail)

    # ------------------------------------------------------------------
    def supervise_loop(
        self,
        loop: ControlLoop,
        manager: Optional[SetpointManager] = None,
        safe_setpoint: Optional[float] = None,
        inputs: Sequence[str] = (),
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisedLoop:
        """Wrap a control loop; idempotent per loop name."""
        existing = self.loops.get(loop.name)
        if existing is not None:
            if existing.loop is not loop:
                raise SupervisionError(
                    f"another loop named {loop.name!r} is already supervised"
                )
            return existing
        supervised = SupervisedLoop(
            self, loop, policy or self.policy,
            manager=manager, safe_setpoint=safe_setpoint, inputs=inputs,
        )
        self.loops[loop.name] = supervised
        return supervised

    def supervise_stage(
        self,
        stage: StreamingStage,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisedStage:
        """Wrap a streaming stage; idempotent per output topic."""
        existing = self.stages.get(stage.output_topic)
        if existing is not None:
            if existing.stage is not stage:
                raise SupervisionError(
                    f"another stage publishing {stage.output_topic!r} is "
                    "already supervised"
                )
            return existing
        supervised = SupervisedStage(self, stage, policy or self.policy)
        self.stages[stage.output_topic] = supervised
        return supervised

    def watch_runtime(self, runtime) -> None:
        """Put a :class:`~repro.telemetry.runtime.ParallelShardRuntime`
        under watchdog supervision (idempotent).

        Every watchdog tick sweeps the runtime's worker processes.  The
        sweep restarts every dead worker (journal recovery, then ring
        replay) and each crash is traced as a ``worker_crash`` event whose
        ``restarted`` flag says whether the shard's worker is alive after
        the sweep.
        """
        if runtime not in self.runtimes:
            self.runtimes.append(runtime)

    def watch_frontend(self, frontend) -> None:
        """Put a :class:`~repro.telemetry.serving.QueryFrontend` under
        watchdog supervision (idempotent).

        Every watchdog tick calls the frontend's
        :meth:`~repro.telemetry.serving.QueryFrontend.watchdog_check`:
        sustained queue saturation is recorded as breaker failures — so a
        saturated frontend degrades to shed-first mode instead of queueing
        without bound — and saturation episodes plus breaker transitions
        are traced under ``supervisor.frontend``.
        """
        if frontend not in self.frontends:
            self.frontends.append(frontend)

    def watch_replicas(self, store, window_s: float = 3600.0) -> None:
        """Put a sharded store's replica sets under periodic anti-entropy
        repair (idempotent per store).

        Each watchdog tick sweeps *one* replica set, round-robin, so the
        checksum/repair cost is amortized across ticks instead of stalling
        a tick on every shard at once.  Sweeps that repair divergence are
        traced under ``supervisor.replica``; a sweep that cannot reach its
        shard (worker dead, every member down) is traced as
        ``anti_entropy_failed`` and retried on a later round.
        """
        for watch in self.replica_watches:
            if watch["store"] is store:
                return
        self.replica_watches.append(
            {"store": store, "window_s": float(window_s), "next": 0}
        )

    def inject_controller_fault(
        self,
        loop_name: str,
        kind: ControllerFaultKind,
        start: float,
        duration: float,
    ) -> ControllerFault:
        """Schedule a raise/hang/garbage fault on a supervised controller."""
        try:
            supervised = self.loops[loop_name]
        except KeyError:
            raise SupervisionError(
                f"no supervised loop named {loop_name!r} "
                f"(have {sorted(self.loops)})"
            ) from None
        return supervised.inject_fault(kind, start, duration)

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        """Start the watchdog heartbeat checks (idempotent)."""
        if self._watchdog is None or not self._watchdog.active:
            self._watchdog = self.sim.schedule_periodic(
                self.policy.watchdog_period_s,
                lambda s: self._watchdog_tick(s.now),
                label="supervisor:watchdog", priority=7,
            )
        return self

    def stop(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def _watchdog_tick(self, now: float) -> None:
        for supervised in self.loops.values():
            supervised.check_deadline(now)
        for runtime in self.runtimes:
            for shard in runtime.check_workers(now):
                self.emit(
                    now, "supervisor.runtime", "worker_crash",
                    shard=shard, restarted=runtime.worker_alive(shard),
                )
        for frontend in self.frontends:
            for kind, detail in frontend.watchdog_check():
                self.emit(
                    now, "supervisor.frontend", kind,
                    frontend=frontend.name, **detail,
                )
        for watch in self.replica_watches:
            sets = getattr(watch["store"], "replica_sets", None)
            if not sets:
                continue
            idx = watch["next"] % len(sets)
            watch["next"] = idx + 1
            rs = sets[idx]
            try:
                summary = rs.anti_entropy(window_s=watch["window_s"], now=now)
            except Exception as exc:
                self.emit(
                    now, "supervisor.replica", "anti_entropy_failed",
                    shard=rs.shard_id, error=f"{exc}",
                )
                continue
            if summary.get("repaired_windows"):
                self.emit(
                    now, "supervisor.replica", "anti_entropy_repair",
                    shard=rs.shard_id, **summary,
                )

    # ------------------------------------------------------------------
    # Aggregates / metrics
    # ------------------------------------------------------------------
    def open_breakers(self) -> int:
        opens = sum(
            1 for s in self.loops.values() if s.breaker.state is not BreakerState.CLOSED
        )
        return opens + sum(
            1 for s in self.stages.values() if s.breaker.state is not BreakerState.CLOSED
        )

    def _sum(self, attr: str) -> float:
        return float(sum(getattr(s, attr) for s in self.loops.values()))

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``oda.supervisor.*`` subtree."""
        if self._metrics is None:
            r = MetricsRegistry()
            r.gauge("oda.supervisor.loops", "supervised control loops",
                    fn=lambda: float(len(self.loops)))
            r.gauge("oda.supervisor.stages", "supervised streaming stages",
                    fn=lambda: float(len(self.stages)))
            r.gauge("oda.supervisor.replica_watches",
                    "stores under periodic anti-entropy repair",
                    fn=lambda: float(len(self.replica_watches)))
            r.gauge("oda.supervisor.open_breakers",
                    "breakers currently not closed",
                    fn=lambda: float(self.open_breakers()))
            r.counter("oda.supervisor.decide_failures",
                      "decide() calls that raised",
                      fn=lambda: self._sum("decide_failures"))
            r.counter("oda.supervisor.retries", "in-tick decide retries",
                      fn=lambda: self._sum("retries"))
            r.counter("oda.supervisor.stale_skips",
                      "actuations refused on stale telemetry",
                      fn=lambda: self._sum("stale_skips"))
            r.counter("oda.supervisor.missed_deadlines",
                      "watchdog heartbeat deadlines missed",
                      fn=lambda: self._sum("missed_deadlines"))
            r.counter("oda.supervisor.garbage_actions",
                      "non-finite decided values rejected",
                      fn=lambda: self._sum("garbage_actions"))
            r.counter("oda.supervisor.safe_state_entries",
                      "safe-state fallback episodes entered",
                      fn=lambda: self._sum("safe_state_entries"))
            r.counter("oda.supervisor.breaker_opens",
                      "loop+stage breaker open transitions",
                      fn=lambda: float(
                          sum(s.breaker.opens for s in self.loops.values())
                          + sum(s.breaker.opens for s in self.stages.values())
                      ))
            r.counter("oda.supervisor.breaker_closes",
                      "loop+stage breaker re-close transitions",
                      fn=lambda: float(
                          sum(s.breaker.closes for s in self.loops.values())
                          + sum(s.breaker.closes for s in self.stages.values())
                      ))
            r.counter("oda.supervisor.stage_failures",
                      "supervised stage process() failures",
                      fn=lambda: float(
                          sum(s.failures for s in self.stages.values())
                      ))
            r.counter("oda.supervisor.stage_skipped",
                      "stage batches short-circuited by an open breaker",
                      fn=lambda: float(
                          sum(s.skipped for s in self.stages.values())
                      ))
            r.counter("oda.supervisor.worker_crashes",
                      "shard worker processes found dead by the watchdog",
                      fn=lambda: float(
                          sum(r_.worker_crashes for r_ in self.runtimes)
                      ))
            r.counter("oda.supervisor.worker_restarts",
                      "shard worker processes restarted by the watchdog",
                      fn=lambda: float(
                          sum(r_.worker_restarts for r_ in self.runtimes)
                      ))
            r.gauge("oda.supervisor.frontends",
                    "query frontends under saturation watch",
                    fn=lambda: float(len(self.frontends)))
            r.gauge("oda.supervisor.frontends_shedding",
                    "watched frontends currently in shed-first mode",
                    fn=lambda: float(
                        sum(1 for f in self.frontends if f.shedding)
                    ))
            r.counter("oda.supervisor.frontend_breaker_opens",
                      "watched frontend breaker open transitions",
                      fn=lambda: float(
                          sum(f.breaker.opens for f in self.frontends)
                      ))
            self._metrics = r
        return self._metrics
