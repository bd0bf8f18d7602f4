"""DataCenter: the fully-wired synthetic HPC site.

Composes the four pillars — building infrastructure (facility), system
hardware (cluster), system software (scheduler + runtime) and applications
(workload generator) — plus the telemetry pipeline, with the physical
couplings the paper's multi-pillar discussion hinges on:

* cluster IT power is the facility's heat load and the dominant term of
  site power (hardware -> infrastructure),
* cooling-loop supply temperature sets rack inlet temperatures, which feed
  node thermals, leakage and fan power (infrastructure -> hardware),
* scheduler decisions place loads that change both (software -> everything).

This is the standard entry point for examples and benchmarks::

    dc = DataCenter(seed=7, racks=4, nodes_per_rack=16)
    dc.generate_workload(days=2.0, jobs_per_day=150)
    dc.run(days=2.0)
    times, pue = dc.telemetry.store.query("facility.pue")
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.generator import JobRequest, WorkloadGenerator
from repro.apps.profiles import ProfileCatalog, default_catalog
from repro.cluster.system import HPCSystem, build_system
from repro.facility.facility import Facility
from repro.facility.sizing import scaled_cooling_plant, scaled_distribution
from repro.errors import ConfigurationError
from repro.facility.weather import DAY
from repro.simulation.engine import Simulator
from repro.simulation.rng import RngPool
from repro.simulation.trace import TraceLog
from repro.software.policies import SchedulingPolicy
from repro.software.runtime import FrequencyGovernor, NodeRuntime
from repro.software.os_noise import OsNoiseInjector
from repro.software.scheduler import Scheduler
from repro.telemetry.collector import TelemetrySystem

__all__ = ["DataCenter"]


class DataCenter:
    """A complete simulated HPC data center with telemetry.

    Parameters
    ----------
    seed:
        Root seed; identical seeds give identical trajectories.
    racks / nodes_per_rack:
        Cluster size.
    policy:
        Scheduling policy (default FCFS).
    telemetry_period:
        Scrape period for all collection agents, seconds.
    enable_faults:
        Turn on stochastic hardware failures and degradations.
    noisy_node_fraction:
        Fraction of nodes with pathological OS noise.
    catalog:
        Application-profile catalog for workload generation.
    health_period:
        If given, publish pipeline self-metrics (``telemetry.*``) on this
        period and drive stale-data alert checks.
    shards / replication:
        If ``shards`` is given, telemetry is archived in a hash-partitioned
        :class:`~repro.telemetry.distributed.ShardedStore` with
        ``replication`` extra copies per shard (reads fail over when a
        shard member is down); every query API is unchanged.
    parallel:
        With ``shards``, run each shard's replica set in its own worker
        process fed by shared-memory ring buffers (the scale-out runtime,
        :mod:`repro.telemetry.runtime`).  Call :meth:`close` when done for
        a graceful drain; ``enable_supervision()`` automatically puts the
        workers under watchdog crash detection.
    rollups / archive:
        Bool switches of the store's materialized downsample cascade and
        compressed columnar cold tier (as on
        :class:`~repro.telemetry.store.TimeSeriesStore`) — long queries
        are served from pre-aggregated tiers and expired raw samples are
        demoted to cold chunks instead of deleted.
    journal:
        Write-ahead journal base directory for the telemetry store (or
        ``None`` for none); acked ingest survives a crash of the owning
        process and, with ``parallel``, of individual shard workers (see
        :mod:`repro.telemetry.durability`).
    """

    def __init__(
        self,
        seed: int = 0,
        racks: int = 4,
        nodes_per_rack: int = 16,
        policy: Optional[SchedulingPolicy] = None,
        telemetry_period: float = 60.0,
        scheduler_tick: float = 60.0,
        facility_tick: float = 60.0,
        cluster_tick: float = 30.0,
        enable_faults: bool = False,
        noisy_node_fraction: float = 0.0,
        catalog: Optional[ProfileCatalog] = None,
        store_retention: Optional[float] = None,
        cooling_loops: int = 1,
        start_time: float = 0.0,
        sensor_noise_floor_w: float = 0.0,
        health_period: Optional[float] = None,
        shards: Optional[int] = None,
        replication: int = 0,
        parallel: bool = False,
        rollups: bool = False,
        archive: bool = False,
        journal=None,
    ):
        self.rng_pool = RngPool(seed)
        self.sim = Simulator(start_time=start_time)
        self.trace = TraceLog()
        self.catalog = catalog or default_catalog()

        self.system: HPCSystem = build_system(
            racks=racks, nodes_per_rack=nodes_per_rack, tick=cluster_tick,
            loop_names=[f"loop{i}" for i in range(cooling_loops)],
        )
        # Size the plant for the cluster's worst-case draw (all nodes at
        # full dynamic power plus fans) so efficiency figures are realistic.
        peak_it = sum(
            n.idle_power_w + n.max_dynamic_w + n.fan_max_w + 30.0
            for n in self.system.nodes
        )
        self.peak_it_w = peak_it
        self.facility = Facility(
            self.rng_pool.stream("weather"),
            plant=scaled_cooling_plant(peak_it, loops=cooling_loops),
            distribution=scaled_distribution(peak_it),
            it_power_source=lambda: self.system.it_power_w,
            tick=facility_tick,
            sensor_noise_floor_w=sensor_noise_floor_w,
        )
        self.scheduler = Scheduler(self.system, policy=policy, tick=scheduler_tick)
        self.telemetry = TelemetrySystem(
            store_retention=store_retention, shards=shards,
            replication=replication, parallel=parallel,
            rollups=rollups, archive=archive, journal=journal,
        )
        self.runtime: Optional[NodeRuntime] = None
        self.noise: Optional[OsNoiseInjector] = None
        self.generator: Optional[WorkloadGenerator] = None
        self.supervisor = None  # created on demand by enable_supervision()

        # --- wiring -----------------------------------------------------
        self.system.attach(
            self.sim, self.trace, self.rng_pool.stream("hw_faults"),
            enable_faults=enable_faults,
        )
        self.facility.attach(self.sim, self.trace)
        self.scheduler.attach(self.sim, self.trace)
        if noisy_node_fraction > 0:
            self.noise = OsNoiseInjector(
                self.system, self.rng_pool.stream("os_noise"),
                noisy_fraction=noisy_node_fraction,
            )
            self.noise.attach(self.sim, self.trace)

        # Cooling coupling: after each facility tick, propagate loop supply
        # temperatures into the cluster's rack inlets.
        self.sim.schedule_periodic(
            facility_tick, lambda s: self._propagate_cooling(),
            start_delay=0.0, label="coupling:cooling", priority=1,
        )

        # Telemetry agents: one per pillar.
        agent = self.telemetry.new_agent("site", period=telemetry_period)
        agent.add_sampler(self.facility.sampler())
        agent.add_sampler(self.system.sampler())
        agent.add_sampler(self.scheduler.sampler())
        agent.start(self.sim, start_delay=telemetry_period)

        # Optional pipeline self-observability (telemetry.* meta-metrics).
        if health_period is not None:
            self.telemetry.enable_health(health_period)
            self.telemetry.health.start(self.sim)

    # ------------------------------------------------------------------
    def _propagate_cooling(self) -> None:
        for loop in self.facility.plant.loops:
            self.system.set_loop_supply(loop.name, loop.supply_temp_c)

    # ------------------------------------------------------------------
    # Optional subsystems
    # ------------------------------------------------------------------
    def install_runtime(self, governor: FrequencyGovernor, period: float = 120.0) -> NodeRuntime:
        """Attach a GEOPM-like DVFS runtime driven by ``governor``."""
        self.runtime = NodeRuntime(self.system, governor, period=period)
        self.runtime.attach(self.sim, self.trace)
        return self.runtime

    def generate_workload(
        self,
        days: float,
        jobs_per_day: float = 120.0,
        users: int = 12,
        miner_fraction: float = 0.0,
        start: Optional[float] = None,
    ) -> List[JobRequest]:
        """Generate and enqueue a synthetic submission trace."""
        self.generator = WorkloadGenerator(
            self.rng_pool.stream("workload"),
            catalog=self.catalog,
            users=users,
            jobs_per_day=jobs_per_day,
            miner_fraction=miner_fraction,
            max_nodes=self.system.node_count,
        )
        begin = self.sim.now if start is None else start
        requests = self.generator.generate(begin, days * DAY)
        self.scheduler.load_trace(self.sim, requests)
        return requests

    def submit(self, request: JobRequest) -> None:
        """Submit one job immediately."""
        self.scheduler.submit(request, self.sim.now)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, days: float = 0.0, seconds: float = 0.0) -> None:
        """Advance the simulation by the given amount of time."""
        self.sim.run(days * DAY + seconds)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The telemetry time-series store (sharded when ``shards`` set)."""
        return self.telemetry.store

    def shard_fault(self):
        """A :class:`~repro.telemetry.distributed.ShardFault` injector bound
        to this site's sharded store and bus (requires ``shards``)."""
        from repro.telemetry.distributed import ShardFault, ShardedStore

        if not isinstance(self.telemetry.store, ShardedStore):
            raise ConfigurationError(
                "shard_fault() requires a sharded store (pass shards=...)"
            )
        return ShardFault(self.telemetry.store, bus=self.telemetry.bus)

    def metric(self, name: str):
        """Shorthand range query over the full history."""
        return self.store.query(name)

    def frontend(self, **kwargs):
        """The multi-tenant query front door over this site's store.

        Created on first access (keyword arguments configure it then; see
        :class:`~repro.telemetry.serving.QueryFrontend`).  If supervision
        is enabled the frontend goes under the supervisor's watchdog: a
        saturated frontend trips its breaker and degrades to shed-first
        mode until the backlog clears.
        """
        frontend = self.telemetry.frontend(**kwargs)
        if self.supervisor is not None:
            self.supervisor.watch_frontend(frontend)
        return frontend

    def enable_supervision(self, policy=None):
        """Create (once) and start the control-plane
        :class:`~repro.oda.supervision.Supervisor` for this site.

        Control loops attached afterwards through
        :class:`~repro.oda.system.ODASystem` or
        :meth:`~repro.oda.orchestrator.MultiPillarOrchestrator.attach` are
        wrapped automatically; existing loops can be wrapped explicitly via
        ``dc.supervisor.supervise_loop(...)``.
        """
        from repro.oda.supervision import Supervisor

        if self.supervisor is None:
            self.supervisor = Supervisor(
                self.sim, trace=self.trace, store=self.store, policy=policy,
            )
            self.telemetry.register(self.supervisor.metrics)
        runtime = getattr(self.store, "runtime", None)
        if runtime is not None:
            # Parallel shard workers go under watchdog crash detection.
            self.supervisor.watch_runtime(runtime)
        if self.telemetry._frontend is not None:
            # An already-created front door goes under saturation watch.
            self.supervisor.watch_frontend(self.telemetry._frontend)
        self.supervisor.start()
        return self.supervisor

    def close(self) -> None:
        """Stop telemetry collection and drain/stop any shard workers.

        Required for a clean shutdown when ``parallel`` is set (workers
        apply and flush every pushed batch before exiting); harmless
        otherwise.
        """
        self.telemetry.close()

    def prometheus(self) -> str:
        """Prometheus text exposition of every registered self-metrics
        registry (see :meth:`TelemetrySystem.prometheus`)."""
        return self.telemetry.prometheus()
