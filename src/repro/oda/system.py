"""ODASystem: a deployed, self-describing ODA installation.

Bundles capabilities, streaming stages and control loops over one
:class:`~repro.oda.datacenter.DataCenter`, and — because every capability
carries its grid cell — reports its own framework footprint, coverage and
staged-roadmap recommendations.  This is the executable version of the
paper's premise: an ODA system that can be "analyzed, assessed and
categorized" by construction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analytics.prescriptive.control import ControlLoop
from repro.core.grid import FrameworkGrid, all_cells
from repro.core.render import render_fig3
from repro.core.roadmap import RoadmapStep, plan_roadmap
from repro.core.usecase import GridCell, SystemProfile
from repro.errors import ConfigurationError
from repro.oda.capability import ODACapability
from repro.oda.datacenter import DataCenter
from repro.oda.pipeline import StreamingStage

__all__ = ["ODASystem"]


class ODASystem:
    """A named ODA deployment over a data center."""

    def __init__(self, name: str, datacenter: DataCenter, description: str = ""):
        self.name = name
        self.datacenter = datacenter
        self.description = description
        self.capabilities: List[ODACapability] = []
        self.stages: List[StreamingStage] = []
        self.control_loops: List[ControlLoop] = []

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def add_capability(self, capability: ODACapability) -> ODACapability:
        if any(c.name == capability.name for c in self.capabilities):
            raise ConfigurationError(f"duplicate capability {capability.name!r}")
        self.capabilities.append(capability)
        return capability

    def add_stage(self, stage: StreamingStage) -> StreamingStage:
        self.stages.append(stage)
        self.datacenter.telemetry.register(stage.metrics)
        if self.datacenter.supervisor is not None:
            self.datacenter.supervisor.supervise_stage(stage)
        return stage

    def add_control_loop(self, loop: ControlLoop, attach: bool = True) -> ControlLoop:
        self.control_loops.append(loop)
        if attach:
            loop.attach(self.datacenter.sim, self.datacenter.trace)
        if self.datacenter.supervisor is not None:
            self.datacenter.supervisor.supervise_loop(loop)
        return loop

    def get(self, name: str) -> ODACapability:
        for cap in self.capabilities:
            if cap.name == name:
                return cap
        raise ConfigurationError(f"no capability named {name!r}")

    def run_capability(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.get(name)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Self-description (the framework applied to itself)
    # ------------------------------------------------------------------
    def footprint(self) -> SystemProfile:
        """This deployment's footprint on the 4x4 grid."""
        return SystemProfile(
            name=self.name,
            cells=frozenset(c.cell for c in self.capabilities),
            description=self.description,
        )

    def covered_cells(self) -> List[GridCell]:
        return sorted({c.cell for c in self.capabilities})

    def coverage(self) -> float:
        """Fraction of the 16 grid cells this deployment occupies."""
        return len(set(self.covered_cells())) / 16.0

    def roadmap(self, horizon: int = 4) -> List[RoadmapStep]:
        """Staged-model recommendations for what to build next."""
        return plan_roadmap(self.covered_cells(), horizon=horizon)

    def describe(self) -> str:
        """Footprint diagram plus the capability inventory."""
        lines = [render_fig3([self.footprint()]), "", "Capabilities:"]
        for cap in sorted(self.capabilities, key=lambda c: c.cell):
            lines.append(f"  - {cap.name} [{cap.cell.label}] ({cap.invocations} runs)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Execution passthrough
    # ------------------------------------------------------------------
    def run(self, days: float = 0.0, seconds: float = 0.0) -> None:
        self.datacenter.run(days=days, seconds=seconds)
