"""HPCSystem: the system-hardware aggregate.

Owns racks/nodes, the interconnect fabric and the parallel filesystem,
advances node physics on a periodic tick, and exposes the hardware-pillar
telemetry sampler (per-node sensors and counters plus fabric/storage
aggregates).  The software pillar drives it through :meth:`apply_loads`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.faults import NodeFaultModel
from repro.cluster.network import FatTreeFabric
from repro.cluster.node import IDLE_LOAD, ComputeNode, CpuSpec, NodeLoad
from repro.cluster.rack import Rack
from repro.cluster.storage import ParallelFilesystem
from repro.errors import ConfigurationError
from repro.simulation.engine import PeriodicHandle, Simulator
from repro.simulation.trace import TraceLog
from repro.telemetry.collector import Sampler
from repro.telemetry.metric import MetricKind, MetricSpec, Unit

__all__ = ["HPCSystem", "build_system"]

#: Per-node counter names exported as telemetry (order fixed for specs).
_NODE_METRICS: Tuple[Tuple[str, Unit], ...] = (
    ("power", Unit.WATT),
    ("temp", Unit.CELSIUS),
    ("inlet_temp", Unit.CELSIUS),
    ("freq", Unit.HERTZ),
    ("cpu_util", Unit.FRACTION),
    ("mem_bw_util", Unit.FRACTION),
    ("mem_occupancy", Unit.FRACTION),
    ("io_bw", Unit.BYTES_PER_SECOND),
    ("net_bw", Unit.BYTES_PER_SECOND),
    ("flops", Unit.FLOPS),
    ("ipc", Unit.DIMENSIONLESS),
    ("ecc_errors", Unit.COUNT),
    ("ctx_switches", Unit.COUNT),
    ("up", Unit.DIMENSIONLESS),
)
#: Rack, fabric and filesystem sensor keys, in their ``sensors()`` order.
_RACK_SENSORS = ("power", "nodes_up", "max_temp", "mean_temp")
_FABRIC_SENSORS = ("links_active", "max_link_util", "mean_link_util", "saturated_links")
_PFS_SENSORS = ("bandwidth_demand", "bandwidth_granted", "utilization", "bytes_moved")

_node_values = itemgetter(*(key for key, _ in _NODE_METRICS))
_rack_values = itemgetter(*_RACK_SENSORS)
_fabric_values = itemgetter(*_FABRIC_SENSORS)
_pfs_values = itemgetter(*_PFS_SENSORS)


class HPCSystem:
    """The simulated HPC machine (system-hardware pillar).

    Parameters
    ----------
    name:
        Root of hardware metric paths (default ``"cluster"``).
    racks:
        Rack list; node names must be globally unique.
    fabric / filesystem:
        Shared-resource models; defaults are sized from the node count.
    tick:
        Physics update period in seconds.
    """

    def __init__(
        self,
        racks: List[Rack],
        name: str = "cluster",
        fabric: Optional[FatTreeFabric] = None,
        filesystem: Optional[ParallelFilesystem] = None,
        tick: float = 30.0,
    ):
        if not racks:
            raise ConfigurationError("system needs at least one rack")
        self.name = name
        self.racks = racks
        self.tick = tick
        self.nodes: List[ComputeNode] = [n for rack in racks for n in rack.nodes]
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be unique across racks")
        self._node_by_name = {n.name: n for n in self.nodes}
        self._rack_of = {
            n.name: rack for rack in racks for n in rack.nodes
        }
        self.fabric = fabric or FatTreeFabric(names)
        self.filesystem = filesystem or ParallelFilesystem(
            bandwidth_bytes=2e9 * len(self.nodes)
        )
        self.fault_model: Optional[NodeFaultModel] = None
        self.trace: Optional[TraceLog] = None
        # supply temperature per loop name, installed by the data center.
        self._loop_supply: Dict[str, float] = {}
        self._handle: Optional[PeriodicHandle] = None
        self._last_update: Optional[float] = None
        # job_id -> (node names, aggregate loads) registered this step.
        self._job_flows: Dict[str, Tuple[List[str], NodeLoad]] = {}
        # Every sensor path, built once in the order _read_sensors fills it.
        self._sensor_names: Tuple[str, ...] = tuple(self._sensor_paths())

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    def node(self, name: str) -> ComputeNode:
        try:
            return self._node_by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def rack_of(self, node_name: str) -> Rack:
        return self._rack_of[self.node(node_name).name]

    def up_nodes(self) -> List[ComputeNode]:
        return [n for n in self.nodes if n.up]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def it_power_w(self) -> float:
        """Total IT power — the quantity the facility pulls as heat load."""
        return sum(n.power_w for n in self.nodes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(
        self,
        sim: Simulator,
        trace: Optional[TraceLog] = None,
        rng: Optional[np.random.Generator] = None,
        enable_faults: bool = False,
    ) -> None:
        """Start the periodic physics tick (and optionally the fault model)."""
        self.trace = trace
        self._handle = sim.schedule_periodic(
            self.tick, lambda s: self.update(s.now), start_delay=0.0,
            label=f"{self.name}:tick", priority=1,
        )
        if enable_faults:
            if trace is None or rng is None:
                raise ConfigurationError("fault model needs trace and rng")
            self.fault_model = NodeFaultModel(sim, trace, rng, self.nodes)
            self.fault_model.start()

    def detach(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Software-pillar interface
    # ------------------------------------------------------------------
    def set_loop_supply(self, loop_name: str, supply_temp_c: float) -> None:
        """Install a cooling loop's supply temperature (facility coupling)."""
        self._loop_supply[loop_name] = supply_temp_c

    def apply_loads(self, assignments: Mapping[str, Tuple[str, NodeLoad]]) -> None:
        """Install per-node loads: ``{node_name: (job_id, load)}``.

        Nodes not mentioned are idled.  Shared-resource contention (fabric,
        filesystem) is resolved immediately so :attr:`ComputeNode.progress_rate`
        reflects this step's interference.
        """
        self.fabric.begin_step()
        self.filesystem.begin_step()
        self._job_flows.clear()

        job_members: Dict[str, List[str]] = {}
        for node in self.nodes:
            assignment = assignments.get(node.name)
            if assignment is None or not node.up:
                node.assign(None, IDLE_LOAD)
                node.set_contention(1.0)
                continue
            job_id, load = assignment
            node.assign(job_id, load)
            job_members.setdefault(job_id, []).append(node.name)

        for job_id, members in job_members.items():
            sample = assignments[members[0]][1]
            self.fabric.offer_flow(job_id, members, sample.net_bw_bytes * len(members))
            self.filesystem.demand(job_id, sample.io_bw_bytes * len(members))
        self.filesystem.resolve(self.tick)

        for job_id, members in job_members.items():
            contention = max(
                self.fabric.flow_slowdown(job_id), self.filesystem.slowdown(job_id)
            )
            for member in members:
                self._node_by_name[member].set_contention(contention)
            self._job_flows[job_id] = (members, assignments[members[0]][1])

    def job_progress_rate(self, job_id: str) -> float:
        """Mean progress rate across a job's nodes (0 if not running)."""
        flow = self._job_flows.get(job_id)
        if not flow:
            return 0.0
        members = [self._node_by_name[m] for m in flow[0]]
        live = [m for m in members if m.up]
        if not live:
            return 0.0
        return sum(m.progress_rate for m in live) / len(live)

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    def update(self, now: float) -> float:
        """Advance all node physics to ``now``; returns IT power in watts."""
        dt = self.tick if self._last_update is None else now - self._last_update
        self._last_update = now
        for rack in self.racks:
            supply = self._loop_supply.get(rack.loop_name, 18.0)
            rack.set_inlet_temp(supply)
        total = 0.0
        for node in self.nodes:
            total += node.update(dt)
        return total

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sensor_paths(self) -> List[str]:
        """Sensor paths in scrape order: per rack its aggregates then each
        node's counters, then fabric, filesystem and system totals."""
        paths: List[str] = []
        for rack in self.racks:
            rbase = f"{self.name}.{rack.name}"
            paths.extend(f"{rbase}.{key}" for key in _RACK_SENSORS)
            for node in rack.nodes:
                nbase = f"{rbase}.{node.name}"
                paths.extend(f"{nbase}.{key}" for key, _ in _NODE_METRICS)
        paths.extend(f"{self.name}.fabric.{key}" for key in _FABRIC_SENSORS)
        paths.extend(f"{self.name}.pfs.{key}" for key in _PFS_SENSORS)
        paths.extend((f"{self.name}.it_power", f"{self.name}.nodes_up"))
        return paths

    def _read_sensors(self, now: float) -> Dict[str, float]:
        """One reading per bound sensor path; a tick reads values only."""
        values: List[float] = []
        for rack in self.racks:
            values.extend(_rack_values(rack.sensors()))
            for node in rack.nodes:
                values.extend(_node_values(node.counters()))
        values.extend(_fabric_values(self.fabric.sensors()))
        values.extend(_pfs_values(self.filesystem.sensors()))
        values.append(self.it_power_w)
        values.append(float(len(self.up_nodes())))
        return dict(zip(self._sensor_names, values))

    def metric_specs(self) -> List[MetricSpec]:
        labels = {"pillar": "system_hardware"}
        specs: List[MetricSpec] = [
            MetricSpec(f"{self.name}.it_power", Unit.WATT, low=0, labels=labels),
            MetricSpec(f"{self.name}.nodes_up", Unit.COUNT, low=0, labels=labels),
        ]
        for key in _FABRIC_SENSORS:
            specs.append(MetricSpec(f"{self.name}.fabric.{key}", labels=labels))
        for key in _PFS_SENSORS:
            specs.append(MetricSpec(f"{self.name}.pfs.{key}", labels=labels))
        for rack in self.racks:
            rbase = f"{self.name}.{rack.name}"
            for key in _RACK_SENSORS:
                specs.append(MetricSpec(f"{rbase}.{key}", labels=labels))
            for node in rack.nodes:
                nbase = f"{rbase}.{node.name}"
                for key, unit in _NODE_METRICS:
                    kind = MetricKind.COUNTER if key == "ecc_errors" else MetricKind.GAUGE
                    specs.append(MetricSpec(f"{nbase}.{key}", unit, kind, labels=labels))
        return specs

    def sampler(self) -> Sampler:
        """Telemetry sampler covering all hardware sensors and counters."""
        return Sampler(name=self.name, source=self._read_sensors, specs=self.metric_specs())

    def node_metric(self, node_name: str, counter: str) -> str:
        """Fully-qualified metric path of one node counter."""
        rack = self.rack_of(node_name)
        return f"{self.name}.{rack.name}.{node_name}.{counter}"


def build_system(
    racks: int = 4,
    nodes_per_rack: int = 16,
    name: str = "cluster",
    cpu: Optional[CpuSpec] = None,
    loop_names: Sequence[str] = ("loop0",),
    tick: float = 30.0,
) -> HPCSystem:
    """Construct a uniform system: ``racks`` racks of ``nodes_per_rack`` nodes.

    Racks are assigned round-robin to the given cooling loops with a
    positional cooling offset, giving placement policies a thermal
    gradient.  Offsets are deliberately not monotone in rack index — a
    rack's position in the cooling row is unrelated to its name — so
    naive first-fit placement does not accidentally equal cooling-aware
    placement.
    """
    offsets = (1.0, 0.0, 2.0, 0.5)
    rack_objs: List[Rack] = []
    for r in range(racks):
        nodes = [
            ComputeNode(name=f"r{r}n{i}", cpu=cpu)
            for i in range(nodes_per_rack)
        ]
        rack_objs.append(
            Rack(
                name=f"rack{r}",
                nodes=nodes,
                cooling_offset_c=offsets[r % len(offsets)],
                loop_name=loop_names[r % len(loop_names)],
            )
        )
    return HPCSystem(rack_objs, name=name, tick=tick)
