"""Collection agents: the sampling tier of the telemetry pipeline.

A :class:`Sampler` wraps a source callable that reads instantaneous values
from some substrate component (a node's power model, a chiller's COP…).  The
:class:`CollectionAgent` drives a set of samplers on a period using the
discrete-event simulator and publishes each scrape as one
:class:`~repro.telemetry.sample.SampleBatch` on the message bus — the same
pull-model architecture as LDMS samplers + aggregators or Prometheus scrape
jobs.

A raising source does not crash the run: the failure is counted on the
sampler and the agent, and the sampler is retried with exponential backoff
(skipping scrape ticks, at most :data:`BACKOFF_CAP` periods) until it
recovers — mirroring how production collectors survive flaky sensors.

Everything an agent counts is a function of the seed: scrapes, samples,
errors and skips advance on the simulation clock only.  Wall-clock scrape
time is observability, not operational data: the ``collector.scrape`` span
measures it into the ``obs.collector.scrape.seconds`` histogram, which
``TelemetrySystem.prometheus()`` exports and the store never holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry, prometheus_text
from repro.simulation.engine import PeriodicHandle, Simulator
from repro.telemetry.bus import MessageBus
from repro.telemetry.metric import MetricRegistry, MetricSpec
from repro.telemetry.sample import SampleBatch, bound_batch

__all__ = ["Sampler", "CollectionAgent", "TelemetrySystem"]

SourceFn = Callable[[float], Dict[str, float]]

#: Upper bound, in periods, of the exponential retry backoff applied to a
#: repeatedly-failing sampler (1, 2, 4, … scrape periods).
BACKOFF_CAP = 64.0


@dataclass
class Sampler:
    """One scrapeable source of metrics.

    Attributes
    ----------
    name:
        Sampler identifier; also the bus topic its batches are published on.
    source:
        Callable ``source(now) -> {metric_name: value}``.  Called at each
        scrape with the current simulation time.
    specs:
        The metric specs this sampler produces.  Declared up front so the
        registry is complete before the first scrape (analytics can plan
        against the registry without waiting for data).

    ``errors`` / ``consecutive_errors`` / ``suspended_until`` record scrape
    failures and the backoff window the owning agent applies; they are
    maintained by :class:`CollectionAgent`.
    """

    name: str
    source: SourceFn
    specs: List[MetricSpec] = field(default_factory=list)
    scrapes: int = 0
    samples: int = 0
    errors: int = 0
    consecutive_errors: int = 0
    last_error: str = ""
    suspended_until: float = float("-inf")
    #: The last batch's names, reused while the source's keys are unchanged.
    _names: Tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def scrape(self, now: float) -> SampleBatch:
        """Read the source and package the result as a batch."""
        readings = self.source(now)
        self.scrapes += 1
        self.samples += len(readings)
        batch = bound_batch(now, readings, self._names)
        self._names = batch.names
        return batch


class CollectionAgent:
    """Drives a group of samplers at a fixed period and publishes batches."""

    def __init__(
        self,
        name: str,
        bus: MessageBus,
        period: float,
        registry: Optional[MetricRegistry] = None,
    ):
        if period <= 0:
            raise ConfigurationError(f"agent {name}: period must be > 0")
        self.name = name
        self.bus = bus
        self.period = period
        self.registry = registry
        self.scrape_errors = 0
        self.scrapes_skipped = 0
        self.last_error = ""
        self._samplers: List[Sampler] = []
        self._handle: Optional[PeriodicHandle] = None
        self._metrics: Optional[MetricsRegistry] = None

    def add_sampler(self, sampler: Sampler) -> Sampler:
        """Attach a sampler and register its metric specs."""
        self._samplers.append(sampler)
        if self.registry is not None:
            self.registry.register_many(sampler.specs)
        return sampler

    @property
    def samplers(self) -> List[Sampler]:
        return list(self._samplers)

    def collect_once(self, now: float) -> int:
        """Scrape every sampler once and publish; returns batches published.

        A raising source is isolated: the error is recorded and the sampler
        enters exponential backoff (its next scrapes are skipped) instead of
        killing the collection tick.
        """
        if _OBS.enabled:
            with _OBS.tracer.span(
                "collector.collect", sim_time=now, agent=self.name
            ):
                return self._collect_once(now)
        return self._collect_once(now)

    def _collect_once(self, now: float) -> int:
        published = 0
        obs_on = _OBS.enabled
        for sampler in self._samplers:
            if now < sampler.suspended_until:
                self.scrapes_skipped += 1
                continue
            if obs_on:
                with _OBS.tracer.span(
                    "collector.scrape", sim_time=now, sampler=sampler.name
                ):
                    published += self._scrape_and_publish(sampler, now)
            else:
                published += self._scrape_and_publish(sampler, now)
        return published

    def _scrape_and_publish(self, sampler: Sampler, now: float) -> int:
        """Scrape one sampler and publish its batch; returns 0 or 1."""
        try:
            batch = sampler.scrape(now)
        except Exception as exc:  # noqa: BLE001 — isolate any source failure
            self._record_error(sampler, now, exc)
            return 0
        sampler.consecutive_errors = 0
        sampler.suspended_until = float("-inf")
        if len(batch):
            self.bus.publish(sampler.name, batch)
            return 1
        return 0

    def _record_error(self, sampler: Sampler, now: float, exc: Exception) -> None:
        sampler.errors += 1
        sampler.consecutive_errors += 1
        sampler.last_error = repr(exc)
        self.scrape_errors += 1
        self.last_error = f"{sampler.name}: {exc!r}"
        backoff = self.period * min(
            2.0 ** (sampler.consecutive_errors - 1), BACKOFF_CAP
        )
        sampler.suspended_until = now + backoff

    def start(self, sim: Simulator, start_delay: float = 0.0) -> None:
        """Begin periodic collection on the simulator."""
        if self._handle is not None and self._handle.active:
            raise ConfigurationError(f"agent {self.name} already started")
        self._handle = sim.schedule_periodic(
            self.period,
            lambda s: self.collect_once(s.now),
            start_delay=start_delay,
            label=f"collect:{self.name}",
            priority=10,  # run after physics updates at the same timestamp
        )

    def stop(self) -> None:
        """Stop periodic collection."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments over the agent counters (lazily built)."""
        if self._metrics is None:
            prefix = f"telemetry.agent.{self.name}"
            r = MetricsRegistry()
            r.gauge(f"{prefix}.samplers", "attached samplers",
                    fn=lambda: float(len(self._samplers)))
            r.counter(f"{prefix}.scrapes", "completed scrapes",
                      fn=lambda: float(sum(s.scrapes for s in self._samplers)))
            r.counter(f"{prefix}.samples", "samples produced",
                      fn=lambda: float(sum(s.samples for s in self._samplers)))
            r.counter(f"{prefix}.scrape_errors", "raising scrapes",
                      fn=lambda: float(self.scrape_errors))
            r.counter(f"{prefix}.scrapes_skipped",
                      "scrapes skipped by backoff",
                      fn=lambda: float(self.scrapes_skipped))
            self._metrics = r
        return self._metrics


class TelemetrySystem:
    """Convenience bundle: registry + bus + store + agents, pre-wired.

    This is the "monitoring stack in a box" most examples use::

        telemetry = TelemetrySystem(store_retention=86400.0)
        agent = telemetry.new_agent("rack0", period=10.0)
        agent.add_sampler(Sampler("cluster.rack0", node_source, specs))
        agent.start(sim)
        sim.run(3600)
        times, watts = telemetry.store.query("cluster.rack0.node0.cpu_power")

    ``alerts`` lazily attaches an :class:`~repro.telemetry.alerts.AlertEngine`
    to the bus on first access; :meth:`enable_health` adds a
    :class:`~repro.telemetry.health.HealthMonitor` publishing pipeline
    self-metrics and driving stale-data checks.

    With ``shards`` set, the archive tier is a hash-partitioned
    :class:`~repro.telemetry.distributed.ShardedStore` (optionally
    replicated ``replication`` times per shard) instead of a single
    :class:`~repro.telemetry.store.TimeSeriesStore`; collector output is
    routed through it transparently and every read API is unchanged.

    ``rollups`` / ``archive`` are the bool switches of the materialized
    downsample cascade and the compressed columnar cold tier on the store
    (single or sharded), as on
    :class:`~repro.telemetry.store.TimeSeriesStore`.  ``journal`` is the
    write-ahead journal directory (the base directory of a sharded store's
    per-shard journals), or ``None`` for no journal.
    """

    def __init__(
        self,
        store_retention: Optional[float] = None,
        health_period: Optional[float] = None,
        shards: Optional[int] = None,
        replication: int = 0,
        parallel: bool = False,
        rollups: bool = False,
        archive: bool = False,
        journal=None,
    ):
        from repro.telemetry.store import TimeSeriesStore

        if shards is None and replication:
            raise ConfigurationError(
                "replication requires a sharded store (pass shards=...)"
            )
        if shards is None and parallel:
            raise ConfigurationError(
                "parallel ingest requires a sharded store (pass shards=...)"
            )
        self.registry = MetricRegistry()
        self.bus = MessageBus()
        if shards is not None:
            from repro.telemetry.distributed import ShardedStore

            self.store = ShardedStore(
                shards=shards,
                replication=replication,
                retention=store_retention,
                parallel=parallel,
                rollups=rollups,
                archive=archive,
                journal=journal,
            )
        else:
            self.store = TimeSeriesStore(
                retention=store_retention,
                rollups=rollups,
                archive=archive,
                journal=journal,
            )
        self.agents: List[CollectionAgent] = []
        self._alerts = None
        self._frontend = None
        self.health = None
        self._registries: List[MetricsRegistry] = []
        self.register(self.bus.metrics)
        for registry in self.store.metric_registries():
            self.register(registry)
        self.bus.subscribe("#", self.store.ingest)
        if health_period is not None:
            self.enable_health(health_period)

    @property
    def alerts(self):
        """The alert engine, subscribed to the bus on first access."""
        if self._alerts is None:
            from repro.telemetry.alerts import AlertEngine

            self._alerts = AlertEngine()
            self.bus.subscribe("#", self._alerts.observe)
        return self._alerts

    def frontend(self, **kwargs):
        """The multi-tenant query front door, created on first access.

        Keyword arguments are forwarded to
        :class:`~repro.telemetry.serving.QueryFrontend` on creation only;
        passing them again once the frontend exists raises, because a
        silently ignored config is worse than an error.
        """
        if self._frontend is None:
            from repro.telemetry.serving import QueryFrontend

            self._frontend = QueryFrontend(self.store, **kwargs)
            self.register(self._frontend.metrics)
        elif kwargs:
            raise ConfigurationError(
                "frontend already created; configure tenants via "
                "frontend().configure_tenant(...) instead"
            )
        return self._frontend

    def enable_health(self, period: float = 60.0):
        """Attach (or return) the pipeline self-metrics monitor."""
        if self.health is None:
            from repro.telemetry.health import HealthMonitor

            self.health = HealthMonitor(
                self.bus,
                self._registries,  # live: later registrations are seen too
                alerts=lambda: self._alerts,
                period=period,
            )
            self.register(self.health.metrics)
        return self.health

    def new_agent(self, name: str, period: float) -> CollectionAgent:
        """Create, register and return a collection agent."""
        agent = CollectionAgent(name, self.bus, period, registry=self.registry)
        self.agents.append(agent)
        self.register(agent.metrics)
        return agent

    def start_all(self, sim: Simulator) -> None:
        """Start every agent (and the health monitor) not already running."""
        for agent in self.agents:
            if agent._handle is None or not agent._handle.active:
                agent.start(sim)
        if self.health is not None and not self.health.running:
            self.health.start(sim)

    def stop_all(self) -> None:
        for agent in self.agents:
            agent.stop()
        if self.health is not None:
            self.health.stop()
        # Compact any staged samples so a stopped system is fully flushed
        # (reads flush lazily anyway; this is for persistence/shutdown).
        self.store.flush()

    def close(self) -> None:
        """Stop collection and shut the store down.

        For a parallel sharded store this gracefully drains the shard
        worker processes (every pushed batch is applied, flushed and, with
        a journal, acknowledged before the workers exit); otherwise it is
        equivalent to :meth:`stop_all`.
        """
        self.stop_all()
        if self._frontend is not None:
            self._frontend.close()
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Add a component's self-metrics registry to the one ordered list
        the health monitor publishes and :meth:`prometheus` exports
        (idempotent); every component registers once, when created."""
        if all(r is not registry for r in self._registries):
            self._registries.append(registry)
        return registry

    def metric_registries(self) -> List[MetricsRegistry]:
        """The registered registries, plus the global profiling registry
        when the observability switch has collected anything."""
        return self._registries + ([_OBS.registry] if len(_OBS.registry) else [])

    def prometheus(self) -> str:
        """Prometheus text exposition of every registered registry
        (typed ``telemetry.*`` instruments + ``obs.*`` span histograms)."""
        return prometheus_text(self.metric_registries())
