"""Network contention diagnosis (link-level analysis).

The Table I hardware diagnostic "diagnosing network contention issues"
[19][55]: identify saturated links in the fabric, attribute the traffic
crossing them to jobs, and name victim/aggressor pairs — the core of
Jha et al.'s link-level characterization and OVIS/overtime-style
interference analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster.network import FatTreeFabric, LinkKey
from repro.software.jobs import Job

__all__ = ["ContentionIncident", "NetworkDiagnostician"]


@dataclass(frozen=True)
class ContentionIncident:
    """One diagnosed contention hot-spot."""

    link: LinkKey
    utilization: float
    jobs: Tuple[str, ...]      # all jobs crossing the link
    aggressor: str             # job contributing the most traffic
    victims: Tuple[str, ...]   # other affected jobs

    def describe(self) -> str:
        link = f"{self.link[0]}<->{self.link[1]}"
        victims = ", ".join(self.victims) or "none"
        return (
            f"link {link} at {self.utilization:.0%}: aggressor {self.aggressor}, "
            f"victims: {victims}"
        )


class NetworkDiagnostician:
    """Diagnoses link-level contention from the fabric's current step state.

    The fabric must have been stepped (flows offered) before diagnosis —
    typically right after the scheduler's ``_install_loads``.
    """

    def __init__(self, fabric: FatTreeFabric, saturation_threshold: float = 0.9):
        self.fabric = fabric
        self.saturation_threshold = saturation_threshold

    def _traffic_by_job(self) -> Dict[LinkKey, Dict[str, float]]:
        """Per-link traffic attribution: {link: {job_id: bytes/s}}."""
        attribution: Dict[LinkKey, Dict[str, float]] = {}
        for job_id in self.fabric.flow_ids():
            rate = self.fabric.flow_rate(job_id)
            for link in self.fabric.flow_links(job_id):
                jobs = attribution.setdefault(link, {})
                jobs[job_id] = jobs.get(job_id, 0.0) + rate
        return attribution

    def diagnose(self) -> List[ContentionIncident]:
        """All saturated links with job attribution, worst first."""
        incidents: List[ContentionIncident] = []
        attribution = self._traffic_by_job()
        for link, utilization in self.fabric.hot_links(self.saturation_threshold):
            jobs = attribution.get(link, {})
            if not jobs:
                continue
            ranked = sorted(jobs.items(), key=lambda item: -item[1])
            aggressor = ranked[0][0]
            victims = tuple(job_id for job_id, _ in ranked[1:])
            incidents.append(
                ContentionIncident(
                    link=link,
                    utilization=utilization,
                    jobs=tuple(job_id for job_id, _ in ranked),
                    aggressor=aggressor,
                    victims=victims,
                )
            )
        return incidents

    def victim_slowdowns(self, running: Sequence[Job]) -> Dict[str, float]:
        """Current contention slowdown factor per running job (>= 1)."""
        return {
            job.job_id: self.fabric.flow_slowdown(job.job_id) for job in running
        }

    def interference_matrix(self, running: Sequence[Job]) -> Dict[Tuple[str, str], int]:
        """Shared-link counts per job pair — who can interfere with whom."""
        links_of: Dict[str, set] = {
            job.job_id: set(self.fabric.flow_links(job.job_id)) for job in running
        }
        out: Dict[Tuple[str, str], int] = {}
        ids = sorted(links_of)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                shared = len(links_of[a] & links_of[b])
                if shared:
                    out[(a, b)] = shared
        return out
