"""Hardware failure and degradation model for compute nodes.

Two mechanisms feed hardware-pillar diagnostic and predictive ODA:

* **Hard failures** follow a temperature-accelerated hazard: each node's
  per-step failure probability rises with age (infant mortality excluded —
  a flat Weibull shape) and exponentially with operating temperature.
  Before a scheduled failure, the node emits a rising ECC-error count — the
  leading indicator component-failure prediction learns from (Sîrbu &
  Babaoglu [48]).
* **Soft degradations** silently reduce a node's memory bandwidth or CPU
  health, producing the "limping-but-alive" anomalies that node-level
  anomaly detection targets (Borghesi et al. [17], Tuncer et al. [16]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from repro.cluster.node import ComputeNode
from repro.simulation.engine import Simulator
from repro.simulation.trace import TraceLog

__all__ = ["NodeFaultKind", "NodeFault", "NodeFaultModel"]


class NodeFaultKind(Enum):
    CRASH = "crash"                # hard down, repaired after MTTR
    MEM_DEGRADATION = "mem_degradation"   # reduced memory bandwidth
    CPU_DEGRADATION = "cpu_degradation"   # reduced effective CPU throughput
    THERMAL_RUNAWAY = "thermal_runaway"   # fan/paste issue: hotter at same power


@dataclass
class NodeFault:
    """Ground-truth record of one injected/evolved node fault."""

    node: str
    kind: NodeFaultKind
    start: float
    duration: float
    severity: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, time: float) -> bool:
        return self.start <= time <= self.end


class NodeFaultModel:
    """Drives stochastic node faults on a simulator.

    Parameters
    ----------
    base_rate_per_node_day:
        Expected hard-failure rate per node-day at reference temperature.
    temp_accel_per_c:
        Exponential acceleration of the hazard per Celsius above 60 C.
    mttr_s:
        Mean time to repair after a crash.
    degradation_rate_per_node_day:
        Expected soft-degradation rate per node-day.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLog,
        rng: np.random.Generator,
        nodes: List[ComputeNode],
        base_rate_per_node_day: float = 0.02,
        temp_accel_per_c: float = 0.04,
        mttr_s: float = 6 * 3600.0,
        degradation_rate_per_node_day: float = 0.05,
        check_period: float = 300.0,
        ecc_leadtime_s: float = 3 * 3600.0,
    ):
        self.sim = sim
        self.trace = trace
        self.rng = rng
        self.nodes = nodes
        self.base_rate = base_rate_per_node_day
        self.temp_accel = temp_accel_per_c
        self.mttr_s = mttr_s
        self.degradation_rate = degradation_rate_per_node_day
        self.check_period = check_period
        self.ecc_leadtime_s = ecc_leadtime_s
        self.faults: List[NodeFault] = []
        self._pending_crash: dict[str, float] = {}  # node -> crash time

    def start(self) -> None:
        """Begin the periodic hazard evaluation."""
        self.sim.schedule_periodic(
            self.check_period, self._tick, label="node_faults", priority=5
        )

    # ------------------------------------------------------------------
    def _hazard(self, node: ComputeNode) -> float:
        """Instantaneous crash probability for one check interval."""
        day = 86_400.0
        accel = math.exp(self.temp_accel * max(node.temp_c - 60.0, 0.0))
        return self.base_rate * accel * self.check_period / day

    def _tick(self, sim: Simulator) -> None:
        for node in self.nodes:
            if not node.up:
                continue
            # ECC ramp for already-scheduled crashes (predictive signal).
            crash_at = self._pending_crash.get(node.name)
            if crash_at is not None:
                remaining = crash_at - sim.now
                if remaining <= 0:
                    self._crash(node, sim.now)
                else:
                    ramp = max(0.0, 1.0 - remaining / self.ecc_leadtime_s)
                    node.ecc_errors += int(self.rng.poisson(1 + 20 * ramp))
                continue
            if self.rng.random() < self._hazard(node):
                # Schedule the crash after the ECC lead time so the ramp is
                # observable, not instantaneous.
                self._pending_crash[node.name] = sim.now + self.ecc_leadtime_s
            elif self.rng.random() < self.degradation_rate * self.check_period / 86_400.0:
                self._degrade(node, sim.now)

    def _crash(self, node: ComputeNode, now: float) -> None:
        self._pending_crash.pop(node.name, None)
        job_id = node.job_id
        node.fail()
        duration = float(self.rng.exponential(self.mttr_s))
        fault = NodeFault(node.name, NodeFaultKind.CRASH, now, duration, 1.0)
        self.faults.append(fault)
        self.trace.emit(
            now, f"cluster.{node.name}", "node_crash",
            job_id=job_id, repair_eta=now + duration,
        )
        self.sim.schedule(
            duration,
            lambda s, n=node: self._repair(n, s.now),
            label=f"repair:{node.name}",
        )

    def _repair(self, node: ComputeNode, now: float) -> None:
        node.restore()
        self.trace.emit(now, f"cluster.{node.name}", "node_repair")

    def _degrade(self, node: ComputeNode, now: float) -> None:
        kind = [
            NodeFaultKind.MEM_DEGRADATION,
            NodeFaultKind.CPU_DEGRADATION,
            NodeFaultKind.THERMAL_RUNAWAY,
        ][int(self.rng.integers(3))]
        severity = float(self.rng.uniform(0.2, 0.6))
        duration = float(self.rng.exponential(8 * 3600.0))
        self.faults.append(NodeFault(node.name, kind, now, duration, severity))
        self._apply_degradation(node, kind, duration, severity)

    def _apply_degradation(
        self, node: ComputeNode, kind: NodeFaultKind, duration: float,
        severity: float,
    ) -> None:
        """Degrade ``node`` now and schedule the matching clear."""
        if kind is NodeFaultKind.MEM_DEGRADATION:
            node.mem_bw_health = 1.0 - severity
        elif kind is NodeFaultKind.CPU_DEGRADATION:
            node.cpu_health = 1.0 - severity
        else:
            node.thermal_resistance *= 1.0 + severity
        self.trace.emit(
            self.sim.now, f"cluster.{node.name}", "node_degradation",
            fault_kind=kind.value, severity=severity,
        )

        def clear(sim: Simulator) -> None:
            if kind is NodeFaultKind.MEM_DEGRADATION:
                node.mem_bw_health = 1.0
            elif kind is NodeFaultKind.CPU_DEGRADATION:
                node.cpu_health = 1.0
            else:
                node.thermal_resistance /= 1.0 + severity
            self.trace.emit(sim.now, f"cluster.{node.name}", "degradation_clear", fault_kind=kind.value)

        self.sim.schedule(duration, clear, label=f"degrade_clear:{node.name}")

    # ------------------------------------------------------------------
    def inject(
        self,
        node: ComputeNode,
        kind: NodeFaultKind,
        start: float,
        duration: float,
        severity: float = 0.5,
    ) -> NodeFault:
        """Deterministically inject a fault (for benchmark ground truth)."""
        fault = NodeFault(node.name, kind, start, duration, severity)
        self.faults.append(fault)

        def onset(sim: Simulator) -> None:
            if kind is NodeFaultKind.CRASH:
                job_id = node.job_id
                node.fail()
                self.trace.emit(sim.now, f"cluster.{node.name}", "node_crash", job_id=job_id)
                self.sim.schedule(duration, lambda s: self._repair(node, s.now))
            else:
                self._apply_degradation(node, kind, duration, severity)

        self.sim.schedule_at(start, onset, label=f"inject:{node.name}")
        return fault
