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

and the :class:`ChaosEngine` schedules it on a wired
:class:`~repro.oda.datacenter.DataCenter` and scores the run afterwards.

Crash-consistency attacks on the storage tier — shard worker process
kills, torn write-ahead-journal tails, bit-flip and truncation damage to
persisted archives — need a journaled parallel store and a shadow copy of
every sample handed to it, so they run as their own drill,
:func:`durability_drill`, rather than as timed episodes on a site.

Scoring is deliberately *observable-plane*: detection and recovery times
are read from what the site itself could see — supervisor trace events,
telemetry series (component power, ``cluster.nodes_up``), and storage
health metrics — not from the injectors' ground truth.  Ground truth
supplies only the fault start used as the MTTD/MTTR origin, which is
exactly how production resilience scorecards are computed from incident
timelines.
"""

from __future__ import annotations
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.faults import NodeFaultKind, NodeFaultModel
from repro.errors import ConfigurationError, PersistenceError, SupervisionError
from repro.facility.faults import FaultKind
from repro.obs.metrics import MetricsRegistry
from repro.oda.datacenter import DataCenter
from repro.oda.supervision import ControllerFaultKind, Supervisor
from repro.telemetry.distributed import ShardedStore
from repro.telemetry.durability import (
    corrupt_artifact,
    journal_dir,
    tail_segment,
    tear_wal_tail,
)
from repro.telemetry.persistence import load_store, save_store
from repro.telemetry.sample import SampleBatch

__all__ = [
    "ChaosFault",
    "ChaosCampaign",
    "ChaosEngine",
    "standard_campaign",
    "durability_drill",
]

PILLARS = ("controller", "facility", "node", "shard")

_CONTROLLER_MODES = {k.value: k for k in ControllerFaultKind}
_FACILITY_MODES = {k.value: k for k in FaultKind}
_NODE_MODES = {k.value: k for k in NodeFaultKind}
_SHARD_MODES = ("kill",)


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
                      shards: bool = True) -> ChaosCampaign:
    """The acceptance-criteria mix: a controller crash episode, a facility
    (pump) outage, node crashes, and a storage-shard kill.

    Fault windows are fractions of the horizon, so the same campaign shape
    works for short test runs and full-day CLI runs; the controller episode
    spans several orchestrator periods so the breaker demonstrably opens,
    falls back to safe state, and re-closes after the window.
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
        except KeyError:
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


def durability_drill(seed: int, shards: int = 2, replication: int = 1,
                     series: int = 24, batches: int = 160,
                     workdir: Optional[str] = None) -> Dict[str, object]:
    """Kill / corrupt / recover drill against a journaled parallel store.

    Phases, each held against a shadow copy of every sample handed to the
    store and the count acked (flushed + journal-synced) so far:

    * ``worker_kill`` — crash and restart every shard worker with an
      unacked tail in flight,
    * ``torn_wal``    — crash shard 0 and tear its journal tail inside the
      bytes written after the ack point,
    * ``archive_bitflip`` / ``archive_truncate`` — save a checksummed
      archive, damage one shard file, reload: the damage must be detected
      (counted degraded, or a typed refusal), never served,
    * ``cold_reopen`` — close everything and reopen from the journals.

    Returns the JSON-ready scorecard (``seed``, ``config``, ``phases``,
    ``totals``, ``pass``); the drill passes with zero acked samples lost,
    zero silently wrong samples and every archive corruption detected.
    ``workdir`` holds the journals and archives (default: a fresh temp
    directory, removed afterwards).
    """
    rng = np.random.default_rng(seed)
    cleanup = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro-durability-")
    os.makedirs(workdir, exist_ok=True)
    wal_dir = os.path.join(workdir, "wal")
    names = tuple(f"drill.series{i:03d}" for i in range(series))
    # Shadow reference: every sample ever handed to the store, exactly.
    shadow: Dict[str, Tuple[List[float], List[float]]] = {
        n: ([], []) for n in names
    }
    acked = dict.fromkeys(names, 0)  # per-series sample count known durable
    phases: Dict[str, Dict[str, int]] = {}
    clock = 0.0

    def ingest(store, count: int) -> None:
        nonlocal clock
        for _ in range(count):
            clock += 1.0
            values = rng.normal(100.0, 15.0, len(names))
            store.ingest("drill", SampleBatch(clock, names, values))
            for n, v in zip(names, values):
                shadow[n][0].append(clock)
                shadow[n][1].append(float(v))

    def ack(store) -> None:
        # flush + fsync: everything handed over so far is now "acked" —
        # the drill holds the store to it across every crash below.
        store.flush()
        store.sync_journal()
        for n in names:
            acked[n] = len(shadow[n][0])

    def verify(store) -> Tuple[int, int]:
        """(acked samples missing, samples served that were never written
        with that value)."""
        missing = wrong = 0
        for n in names:
            times, vals = np.asarray(shadow[n][0]), np.asarray(shadow[n][1])
            try:
                got_t, got_v = store.query(n)
            except KeyError:
                got_t, got_v = np.empty(0), np.empty(0)
            present = np.isin(times, got_t)
            missing += int(np.count_nonzero(~present[: acked[n]]))
            idx = np.searchsorted(got_t, times[present])
            wrong += int(np.count_nonzero(got_v[idx] != vals[present]))
            wrong += int(np.count_nonzero(~np.isin(got_t, times)))
        return missing, wrong

    def live_phase(store, label: str) -> None:
        store.flush()
        missing, wrong = verify(store)
        phases[label] = {"lost_acked_samples": missing,
                         "silently_wrong_samples": wrong}

    store = ShardedStore(shards=shards, replication=replication,
                         parallel=True, journal=wal_dir)
    try:
        # Phase 1: crash every worker mid-ingest, restart, verify.
        ingest(store, batches)
        ack(store)
        ingest(store, batches // 4)  # unacked tail in flight
        for shard in range(shards):
            store.runtime.crash_worker(shard)
            store.runtime.restart_worker(shard)
        live_phase(store, "worker_kill")

        # Phase 2: crash shard 0 and tear its journal tail, then recover.
        # The tear lands only in bytes written after the ack point, the
        # crash-mid-write case the framing is built for.  The tail is
        # handed to the file first (without acking it in the drill's
        # books); otherwise it can die in the worker's buffer, leaving no
        # bytes past the ack point, and a tear would cut acked records.
        shard0_wal = journal_dir(wal_dir, 0)
        ingest(store, batches)
        ack(store)
        acked_path, acked_size = tail_segment(shard0_wal)
        ingest(store, batches // 4)
        store.sync_journal()
        store.runtime.crash_worker(0)
        path, size = tail_segment(shard0_wal)
        unacked = size - acked_size if path == acked_path else size
        if unacked > 0:  # else nothing past the ack point may be torn
            draw = np.random.default_rng(seed + 1).integers(1, 65)
            tear_wal_tail(shard0_wal, nbytes=int(min(draw, unacked)))
        store.runtime.restart_worker(0)
        live_phase(store, "torn_wal")

        # Phase 3: archive to checksummed v4, damage one shard file,
        # reload — corruption must be *detected*, never served.
        save_store(store, os.path.join(workdir, "archive.npz"))
        for mode in ("bitflip", "truncate"):
            probe_dir = os.path.join(workdir, f"probe-{mode}")
            shutil.copytree(workdir, probe_dir,
                            ignore=shutil.ignore_patterns("wal", "probe-*"))
            victims = sorted(
                f for f in os.listdir(probe_dir) if f.endswith(".npz")
            )
            corrupt_artifact(os.path.join(probe_dir, victims[len(victims) // 2]),
                             mode=mode, rng=np.random.default_rng(seed + 2))
            try:
                loaded = load_store(os.path.join(probe_dir, "archive.npz"))
            except PersistenceError:  # a typed refusal is also detection
                detected, wrong = 1, 0
            else:
                detected = int(loaded.corrupt_artifacts)
                wrong = verify(loaded)[1]
            phases[f"archive_{mode}"] = {
                "detected": detected, "silently_wrong_samples": wrong,
            }
            shutil.rmtree(probe_dir, ignore_errors=True)

        # Phase 4: full shutdown and cold reopen from the journals.
        store.close()
        store = ShardedStore(shards=shards, replication=replication,
                             parallel=True, journal=wal_dir)
        live_phase(store, "cold_reopen")
        recovered = int(store.recovered_samples)
    finally:
        store.close()
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)

    lost = sum(p.get("lost_acked_samples", 0) for p in phases.values())
    silent = sum(p["silently_wrong_samples"] for p in phases.values())
    undetected = sum(
        1 for p in phases.values() if p.get("detected", 1) == 0
    )
    return {
        "seed": seed,
        "config": {
            "shards": shards, "replication": replication,
            "series": series, "batches": batches,
        },
        "phases": phases,
        "totals": {
            "acked_samples": int(sum(acked.values())),
            "lost_acked_samples": lost,
            "silently_wrong_samples": silent,
            "undetected_corruptions": undetected,
            "recovered_samples": recovered,
        },
        "pass": lost == 0 and silent == 0 and undetected == 0,
    }
