"""Unified chaos campaigns over every fault injector in the reproduction.

The ROADMAP's north star is an ODA site that "handles as many scenarios as
you can imagine".  PR 1 gave the telemetry pipeline sensor faults, PR 3
gave the storage tier shard faults, and the cluster/facility layers have
always had their own injectors — but nothing composed them.  This module
does: a :class:`ChaosCampaign` is a seeded, declarative list of
:class:`ChaosFault` episodes across the four pillars

* ``controller`` — raise / hang / garbage decisions on a supervised
  control loop (via :class:`~repro.oda.supervision.Supervisor`),
* ``facility``   — outage / degradation / sensor drift on infrastructure
  machinery (via :class:`~repro.facility.faults.FaultInjector`),
* ``node``       — crashes and degradations on compute nodes (via
  :class:`~repro.cluster.faults.NodeFaultModel`),
* ``shard``      — storage-shard member kills (via
  :class:`~repro.telemetry.distributed.faults.ShardFault`),
* ``durability`` — crash-consistency attacks on the storage tier: shard
  worker process kills, torn write-ahead-journal tails, and bit-flip /
  truncation damage to persisted archive artifacts (scored through the
  store's typed degraded-load counters),

and the :class:`ChaosEngine` schedules it on a wired
:class:`~repro.oda.datacenter.DataCenter` and scores the run afterwards.

Scoring is deliberately *observable-plane*: detection and recovery times
are read from what the site itself could see — supervisor trace events,
telemetry series (component power, ``cluster.nodes_up``), and storage
health metrics — not from the injectors' ground truth.  Ground truth
supplies only the fault start used as the MTTD/MTTR origin, which is
exactly how production resilience scorecards are computed from incident
timelines.
"""

from __future__ import annotations
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.faults import NodeFaultKind, NodeFaultModel
from repro.errors import ConfigurationError, SupervisionError
from repro.facility.faults import FaultKind
from repro.obs.metrics import MetricsRegistry
from repro.oda.datacenter import DataCenter
from repro.oda.supervision import ControllerFaultKind, Supervisor

__all__ = [
    "ChaosFault",
    "ChaosCampaign",
    "ChaosEngine",
    "standard_campaign",
]

PILLARS = ("controller", "facility", "node", "shard", "durability")

_CONTROLLER_MODES = {k.value: k for k in ControllerFaultKind}
_FACILITY_MODES = {k.value: k for k in FaultKind}
_NODE_MODES = {k.value: k for k in NodeFaultKind}
_SHARD_MODES = ("kill",)
_DURABILITY_MODES = ("worker_kill", "torn_wal", "bitflip", "truncate")


@dataclass(frozen=True)
class ChaosFault:
    """One declarative fault episode.

    ``pillar`` selects the injector, ``target`` the victim (a supervised
    loop name, a ``loop0.pump``-style component path, a node name, or a
    shard index), ``mode`` the pillar-specific failure kind.
    """

    pillar: str
    target: str
    mode: str
    start: float
    duration: float
    severity: float = 0.5

    def __post_init__(self) -> None:
        if self.pillar not in PILLARS:
            raise ConfigurationError(
                f"unknown chaos pillar {self.pillar!r} (one of {PILLARS})"
            )
        modes = {
            "controller": _CONTROLLER_MODES,
            "facility": _FACILITY_MODES,
            "node": _NODE_MODES,
            "shard": _SHARD_MODES,
            "durability": _DURABILITY_MODES,
        }[self.pillar]
        if self.mode not in modes:
            raise ConfigurationError(
                f"pillar {self.pillar!r} has no mode {self.mode!r} "
                f"(one of {sorted(modes)})"
            )
        if self.duration <= 0:
            raise ConfigurationError("fault duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, object]:
        return {
            "pillar": self.pillar, "target": self.target, "mode": self.mode,
            "start": self.start, "duration": self.duration,
            "severity": self.severity,
        }


@dataclass
class ChaosCampaign:
    """A named, seeded set of fault episodes over a fixed horizon."""

    name: str
    seed: int
    horizon_s: float
    faults: List[ChaosFault] = field(default_factory=list)

    def add(self, fault: ChaosFault) -> "ChaosCampaign":
        if fault.start < 0 or fault.end > self.horizon_s:
            raise ConfigurationError(
                f"fault [{fault.start}, {fault.end}] outside campaign "
                f"horizon [0, {self.horizon_s}]"
            )
        self.faults.append(fault)
        return self


def standard_campaign(seed: int, horizon_s: float = 86_400.0,
                      shards: bool = True,
                      durability: bool = False) -> ChaosCampaign:
    """The acceptance-criteria mix: a controller crash episode, a facility
    (pump) outage, node crashes, and a storage-shard kill.

    Fault windows are fractions of the horizon, so the same campaign shape
    works for short test runs and full-day CLI runs; the controller episode
    spans several orchestrator periods so the breaker demonstrably opens,
    falls back to safe state, and re-closes after the window.

    ``durability=True`` adds the crash-consistency attacks: a shard worker
    process kill mid-ingest, a torn journal tail, and a bit-flipped
    persisted artifact (the first two need a ``parallel=True`` journaled
    store on the site).
    """
    campaign = ChaosCampaign(name="standard", seed=seed, horizon_s=horizon_s)
    h = horizon_s
    campaign.add(ChaosFault("controller", "orchestrator", "raise",
                            start=0.15 * h, duration=0.167 * h))
    campaign.add(ChaosFault("facility", "loop0.pump", "outage",
                            start=0.35 * h, duration=0.125 * h))
    campaign.add(ChaosFault("node", "r0n0", "crash",
                            start=0.50 * h, duration=0.0833 * h, severity=1.0))
    campaign.add(ChaosFault("node", "r0n1", "crash",
                            start=0.52 * h, duration=0.0833 * h, severity=1.0))
    if shards:
        campaign.add(ChaosFault("shard", "0", "kill",
                                start=0.65 * h, duration=0.10 * h))
    if durability:
        campaign.add(ChaosFault("durability", "0", "worker_kill",
                                start=0.78 * h, duration=0.05 * h))
        campaign.add(ChaosFault("durability", "1", "torn_wal",
                                start=0.85 * h, duration=0.05 * h))
        campaign.add(ChaosFault("durability", "archive", "bitflip",
                                start=0.92 * h, duration=0.03 * h))
    return campaign


class ChaosEngine:
    """Schedules a campaign on a site and scores the run afterwards.

    ::

        dc = DataCenter(seed=7, shards=2, replication=1, health_period=300.0)
        supervisor = dc.enable_supervision()
        orch = MultiPillarOrchestrator(dc)
        orch.attach()                      # auto-supervised
        engine = ChaosEngine(dc)
        campaign = standard_campaign(seed=7, horizon_s=DAY)
        engine.schedule(campaign)
        dc.generate_workload(days=1.0)
        dc.run(days=1.0)
        scorecard = engine.scorecard(campaign)
    """

    def __init__(self, dc: DataCenter, supervisor: Optional[Supervisor] = None):
        self.dc = dc
        self.supervisor = supervisor or getattr(dc, "supervisor", None)
        self._shard_fault = None
        self._node_model: Optional[NodeFaultModel] = None
        self._metrics: Optional[MetricsRegistry] = None
        self.scheduled: List[ChaosFault] = []
        self._last_totals: Dict[str, float] = {}
        self._artifact_probes: Dict[Tuple[float, str], Tuple[float, int]] = {}
        dc.telemetry.register(self.metrics)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, campaign: ChaosCampaign) -> List[ChaosFault]:
        """Wire every fault of ``campaign`` into the site's injectors."""
        for fault in campaign.faults:
            getattr(self, f"_schedule_{fault.pillar}")(fault)
            self.scheduled.append(fault)
        if self.dc.trace is not None:
            self.dc.trace.emit(
                self.dc.sim.now, "chaos", "campaign_scheduled",
                campaign=campaign.name, seed=campaign.seed,
                faults=len(campaign.faults),
            )
        return self.scheduled

    def _require_supervisor(self) -> Supervisor:
        if self.supervisor is None:
            self.supervisor = getattr(self.dc, "supervisor", None)
        if self.supervisor is None:
            raise SupervisionError(
                "controller faults need supervision: call "
                "DataCenter.enable_supervision() before scheduling"
            )
        return self.supervisor

    def _schedule_controller(self, fault: ChaosFault) -> None:
        self._require_supervisor().inject_controller_fault(
            fault.target, _CONTROLLER_MODES[fault.mode],
            fault.start, fault.duration,
        )

    def _facility_component(self, target: str):
        facility = self.dc.facility
        paths = {}
        for loop in facility.plant.loops:
            for comp in (loop.chiller, loop.tower, loop.dry_cooler, loop.pump):
                paths[f"{loop.name}.{comp.name}"] = comp
        for comp in (facility.distribution.transformer, facility.distribution.ups,
                     *facility.distribution.pdus):
            paths[comp.name] = comp
        try:
            return paths[target]
        except KeyError:
            raise ConfigurationError(
                f"no facility component {target!r} (have {sorted(paths)})"
            ) from None

    def _schedule_facility(self, fault: ChaosFault) -> None:
        injector = self.dc.facility.fault_injector
        if injector is None:
            raise ConfigurationError(
                "facility has no fault injector (attach with a trace)"
            )
        injector.inject(
            self._facility_component(fault.target), _FACILITY_MODES[fault.mode],
            fault.start, fault.duration, fault.severity,
        )

    def _schedule_node(self, fault: ChaosFault) -> None:
        if self._node_model is None:
            model = self.dc.system.fault_model
            if model is None:
                # Deterministic injection only: the stochastic hazard is NOT
                # started, so a chaos campaign stays fully reproducible.
                model = NodeFaultModel(
                    self.dc.sim, self.dc.trace,
                    self.dc.rng_pool.stream("chaos_node_faults"),
                    self.dc.system.nodes,
                )
            self._node_model = model
        self._node_model.inject(
            self.dc.system.node(fault.target), _NODE_MODES[fault.mode],
            fault.start, fault.duration, fault.severity,
        )

    def _schedule_shard(self, fault: ChaosFault) -> None:
        if self._shard_fault is None:
            self._shard_fault = self.dc.shard_fault()
        shard = int(fault.target)
        self._shard_fault.schedule_kill(self.dc.sim, at=fault.start, shard=shard)
        self._shard_fault.schedule_revive(
            self.dc.sim, at=fault.end, shard=shard, resync=True,
        )

    def _schedule_durability(self, fault: ChaosFault) -> None:
        if fault.mode in ("worker_kill", "torn_wal"):
            if self._shard_fault is None:
                self._shard_fault = self.dc.shard_fault()
            shard = int(fault.target)
            if fault.mode == "worker_kill":
                self._shard_fault.schedule_crash_worker(
                    self.dc.sim, at=fault.start, shard=shard
                )
            else:
                self._shard_fault.schedule_tear_wal(
                    self.dc.sim, at=fault.start, shard=shard,
                    rng=self.dc.rng_pool.stream("chaos_durability"),
                )
            return
        # bitflip / truncate: a save -> corrupt -> reload probe against the
        # live store, scored by the loader's typed degraded-load counters.
        self.dc.sim.schedule_at(
            fault.start,
            lambda s: self._artifact_probe(fault, now=s.now),
            label=f"chaos:durability:{fault.mode}",
        )

    def _artifact_probe(self, fault: ChaosFault, now: float) -> None:
        """Persist the store, damage one artifact, reload, count degrades.

        The probe exercises the *restore* path the site would depend on
        after a real incident: every chunk and manifest is checksummed, so
        flipped bits or a truncated file must surface as counted degraded
        loads (``telemetry.durability.corrupt_artifacts``), never as
        silently-wrong series.
        """
        import glob
        import os
        import shutil
        import tempfile

        from repro.telemetry.durability import corrupt_artifact
        from repro.telemetry.persistence import load_store, save_store

        workdir = tempfile.mkdtemp(prefix="chaos-durability-")
        detected = 0
        error = None
        try:
            path = os.path.join(workdir, "probe.npz")
            save_store(self.dc.store, path)
            artifacts = sorted(glob.glob(os.path.join(workdir, "*.npz")))
            victim = artifacts[len(artifacts) // 2]
            corrupt_artifact(
                victim, mode=fault.mode,
                rng=self.dc.rng_pool.stream("chaos_durability"),
            )
            try:
                loaded = load_store(path)
            except Exception as exc:  # typed refusal is also detection
                detected = 1
                error = f"{type(exc).__name__}: {exc}"
            else:
                detected = int(getattr(loaded, "corrupt_artifacts", 0))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self._artifact_probes[(fault.start, fault.mode)] = (now, detected)
        if self.dc.trace is not None:
            self.dc.trace.emit(
                now, "chaos", "artifact_probe", mode=fault.mode,
                detected=detected, **({"error": error} if error else {}),
            )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def scorecard(self, campaign: ChaosCampaign) -> Dict[str, object]:
        """Resilience scorecard for a completed campaign run (JSON-ready)."""
        rows = [self._score_fault(f) for f in campaign.faults]
        detected = [r for r in rows if r["detected_at"] is not None]
        recovered = [r for r in rows if r["recovered_at"] is not None]
        sup = self.supervisor
        totals: Dict[str, object] = {
            "faults": len(rows),
            "detected": len(detected),
            "recovered": len(recovered),
            "unrecovered": len(rows) - len(recovered),
            "mean_mttd_s": (
                float(np.mean([r["mttd_s"] for r in detected])) if detected else None
            ),
            "mean_mttr_s": (
                float(np.mean([r["mttr_s"] for r in recovered])) if recovered else None
            ),
            "actions_during_faults": int(
                sum(r["actions_during_fault"] for r in rows)
            ),
        }
        if sup is not None:
            totals.update(
                safe_state_entries=int(sup._sum("safe_state_entries")),
                breaker_opens=int(
                    sum(s.breaker.opens for s in sup.loops.values())
                    + sum(s.breaker.opens for s in sup.stages.values())
                ),
                breaker_closes=int(
                    sum(s.breaker.closes for s in sup.loops.values())
                    + sum(s.breaker.closes for s in sup.stages.values())
                ),
                missed_deadlines=int(sup._sum("missed_deadlines")),
                decide_failures=int(sup._sum("decide_failures")),
            )
        self._last_totals = {
            k: float(v) for k, v in totals.items()
            if isinstance(v, (int, float)) and v is not None
        }
        card = {
            "campaign": campaign.name,
            "seed": campaign.seed,
            "horizon_s": campaign.horizon_s,
            "faults": rows,
            "totals": totals,
        }
        if sup is not None:
            card["supervisor"] = sup.metrics.snapshot()
        return card

    def write_scorecard(self, campaign: ChaosCampaign, path: str) -> Dict[str, object]:
        from repro.ioutil import atomic_write_json

        card = self.scorecard(campaign)
        atomic_write_json(path, card, indent=2, sort_keys=True)
        return card

    # -- per-pillar detection/recovery from observable signals ----------
    def _score_fault(self, fault: ChaosFault) -> Dict[str, object]:
        detected, recovered = getattr(self, f"_observe_{fault.pillar}")(fault)
        row = fault.to_dict()
        row["detected_at"] = detected
        row["recovered_at"] = recovered
        row["mttd_s"] = None if detected is None else detected - fault.start
        row["mttr_s"] = None if recovered is None else recovered - fault.start
        row["actions_during_fault"] = self._actions_during(fault)
        return row

    def _actions_during(self, fault: ChaosFault) -> int:
        if self.supervisor is None:
            return 0
        count = 0
        for supervised in self.supervisor.loops.values():
            count += sum(
                1 for a in supervised.loop.actions
                if fault.start <= a.time <= fault.end
            )
        return count

    def _observe_controller(self, fault: ChaosFault
                            ) -> Tuple[Optional[float], Optional[float]]:
        sup = self._require_supervisor()
        supervised = sup.loops.get(fault.target)
        trace = self.dc.trace
        if supervised is None or trace is None:
            return None, None
        symptoms = {"decide_error", "missed_deadline", "garbage_action",
                    "breaker_open"}
        events = trace.select(source=f"supervisor.{fault.target}",
                              since=fault.start)
        detected = next(
            (e.time for e in events if e.kind in symptoms), None
        )
        if detected is None:
            return None, None
        opened = next(
            (e.time for e in events if e.kind == "breaker_open"), None
        )
        if opened is None:
            # The supervisor absorbed every failure without opening the
            # breaker: service was never interrupted, so the controller is
            # recovered as soon as the symptoms stop.
            last_symptom = max(e.time for e in events if e.kind in symptoms)
            return detected, last_symptom
        recovered = next(
            (e.time for e in events
             if e.kind == "breaker_close" and e.time >= opened), None
        )
        return detected, recovered

    def _series(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self.dc.store.query(name)
        except Exception:
            return np.array([]), np.array([])

    def _observe_facility(self, fault: ChaosFault
                          ) -> Tuple[Optional[float], Optional[float]]:
        series = f"{self.dc.facility.name}.{fault.target}.power"
        times, power = self._series(series)
        if len(times) == 0:
            return None, None
        before = power[times < fault.start]
        if len(before) == 0:
            return None, None
        baseline = float(np.mean(before[-10:]))
        if baseline <= 0:
            return None, None
        low = (times >= fault.start) & (power < 0.1 * baseline)
        if not low.any():
            return None, None
        detected = float(times[low][0])
        back = (times >= detected) & (power >= 0.5 * baseline)
        recovered = float(times[back][0]) if back.any() else None
        return detected, recovered

    def _observe_node(self, fault: ChaosFault
                      ) -> Tuple[Optional[float], Optional[float]]:
        series = f"{self.dc.system.name}.nodes_up"
        times, up = self._series(series)
        if len(times) == 0:
            return None, None
        before = up[times < fault.start]
        if len(before) == 0:
            return None, None
        baseline = float(before[-1])
        down = (times >= fault.start) & (up < baseline)
        if not down.any():
            return None, None
        detected = float(times[down][0])
        back = (times >= fault.end) & (up >= baseline)
        recovered = float(times[back][0]) if back.any() else None
        return detected, recovered

    def _observe_shard(self, fault: ChaosFault
                       ) -> Tuple[Optional[float], Optional[float]]:
        series = f"telemetry.shard.{int(fault.target)}.down_members"
        times, down = self._series(series)
        if len(times) == 0:
            return None, None
        bad = (times >= fault.start) & (down > 0)
        if not bad.any():
            return None, None
        detected = float(times[bad][0])
        ok = (times >= fault.end) & (down == 0)
        recovered = float(times[ok][0]) if ok.any() else None
        return detected, recovered

    def _observe_durability(self, fault: ChaosFault
                            ) -> Tuple[Optional[float], Optional[float]]:
        if fault.mode in ("bitflip", "truncate"):
            probe = self._artifact_probes.get((fault.start, fault.mode))
            if probe is None:
                return None, None
            now, detected = probe
            # Detection and recovery coincide: the loader both *counted*
            # the damage and completed a degraded (or typed-refusal) load.
            return (now, now) if detected else (None, None)
        # worker_kill / torn_wal: read the runtime's own crash/restart
        # counters from the health-metric series the site records.
        times, crashes = self._series("telemetry.runtime.worker_crashes")
        if len(times) == 0:
            return None, None
        before = crashes[times < fault.start]
        base = float(before[-1]) if len(before) else 0.0
        seen = (times >= fault.start) & (crashes > base)
        if not seen.any():
            return None, None
        detected = float(times[seen][0])
        rt_times, restarts = self._series("telemetry.runtime.worker_restarts")
        if len(rt_times) == 0:
            return detected, None
        rbefore = restarts[rt_times < fault.start]
        rbase = float(rbefore[-1]) if len(rbefore) else 0.0
        back = (rt_times >= detected) & (restarts > rbase)
        recovered = float(rt_times[back][0]) if back.any() else None
        return detected, recovered

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``oda.chaos.*`` subtree."""
        if self._metrics is None:
            r = MetricsRegistry()
            r.counter("oda.chaos.faults_injected", "fault episodes scheduled",
                      fn=lambda: float(len(self.scheduled)))
            for key in ("detected", "recovered", "unrecovered",
                        "mean_mttd_s", "mean_mttr_s"):
                r.gauge(f"oda.chaos.{key}",
                        f"last scorecard: {key.replace('_', ' ')}",
                        fn=lambda k=key: self._last_totals.get(k, 0.0))
            self._metrics = r
        return self._metrics
