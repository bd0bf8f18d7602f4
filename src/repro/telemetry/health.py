"""Pipeline self-observability: the monitoring stack monitors itself.

Long-lived ODA deployments treat the monitoring pipeline as just another
production service: the bus, the collection agents and the store publish
their own meta-telemetry (delivery counts, scrape errors, dead-letter depth,
series counts) back onto the bus, where it lands in the store and can be
alerted on like any sensor.  Every component keeps its counters in one
typed :class:`~repro.obs.metrics.MetricsRegistry` and registers it once
with :class:`~repro.telemetry.collector.TelemetrySystem`;
:class:`HealthMonitor` publishes the counters and gauges of that one
registry list on a period — the same list ``TelemetrySystem.prometheus()``
exports — and additionally drives the alert engine's stale-data checks so a
dead sampler raises an alert even when no data flows at all.

The health batch is operational data, so it carries only counters and
gauges, which are functions of the seed: one seed stores one answer.
Wall-clock durations are histograms — the ``obs.*`` span histograms and
the serving frontend's latency histograms — and stay observability:
``prometheus()`` exports them and the store never holds them.

Metric names follow the ``telemetry.*`` subtree::

    telemetry.bus.delivered          telemetry.agent.<name>.scrape_errors
    telemetry.bus.dead_letters       telemetry.store.samples
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.simulation.engine import PeriodicHandle, Simulator
from repro.telemetry.bus import MessageBus
from repro.telemetry.sample import SampleBatch, bound_batch

__all__ = ["HealthMonitor", "HEALTH_TOPIC"]

#: Bus topic health batches are published on.
HEALTH_TOPIC = "telemetry.health"


def _counts_and_gauges(registry: MetricsRegistry) -> Dict[str, float]:
    return {
        instrument.name: instrument.value
        for instrument in registry
        if not isinstance(instrument, Histogram)
    }


class HealthMonitor:
    """Publishes pipeline self-metrics on a period.

    Parameters
    ----------
    bus:
        The bus to publish to (health batches flow through the normal
        transport so they land in the store and alert engine).
    registries:
        The registries to publish.  ``TelemetrySystem`` passes its live
        registration list, so components registered later are picked up
        automatically.  The monitor's own counters are always published.
    alerts:
        An :class:`~repro.telemetry.alerts.AlertEngine`, or a zero-argument
        callable returning one (or ``None``); its ``check_staleness`` is
        driven every period so no-data alerts fire on a silent pipeline.
    """

    def __init__(
        self,
        bus: MessageBus,
        registries: List[MetricsRegistry],
        alerts: Union[None, object, Callable[[], object]] = None,
        period: float = 60.0,
        topic: str = HEALTH_TOPIC,
    ):
        self.bus = bus
        self.registries = registries
        self._alerts = alerts
        self.period = period
        self.topic = topic
        self.ticks = 0
        self.probe_errors = 0
        self.last_probe_error = ""
        self._handle: Optional[PeriodicHandle] = None
        self._metrics: Optional[MetricsRegistry] = None
        # The last batch's names, reused while the registries are unchanged.
        self._names: Tuple[str, ...] = ()

    def _alert_engine(self):
        if callable(self._alerts):
            return self._alerts()
        return self._alerts

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments for the monitor's own counters."""
        if self._metrics is None:
            r = MetricsRegistry()
            r.counter("telemetry.health.ticks", "health reporting ticks",
                      fn=lambda: float(self.ticks))
            r.counter("telemetry.health.probe_errors",
                      "registries whose snapshot raised during a health tick",
                      fn=lambda: float(self.probe_errors))
            self._metrics = r
        return self._metrics

    def snapshot(self) -> Dict[str, float]:
        """One flat ``{name: value}`` view of every registered counter and
        gauge; histograms (wall-clock durations) are left out.

        A raising registry is isolated: it is skipped for this tick, the
        failure is counted in ``telemetry.health.probe_errors``, and every
        other registry still reports — the health tick itself must be as
        fault-tolerant as the pipeline it watches.  The monitor's own
        counters are read last, so they include this tick's failures.
        """
        own = self.metrics
        out: Dict[str, float] = {}
        for registry in self.registries:
            if registry is own:
                continue
            try:
                out.update(_counts_and_gauges(registry))
            except Exception as exc:  # noqa: BLE001 — isolate registry failures
                self.probe_errors += 1
                self.last_probe_error = repr(exc)
        out.update(_counts_and_gauges(own))
        return out

    def collect(self, now: float) -> SampleBatch:
        """Publish one health batch and run staleness checks; returns it."""
        self.ticks += 1
        batch = bound_batch(now, self.snapshot(), self._names)
        self._names = batch.names
        self.bus.publish(self.topic, batch)
        engine = self._alert_engine()
        if engine is not None:
            engine.check_staleness(now)
        return batch

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._handle is not None and self._handle.active

    def start(self, sim: Simulator, start_delay: Optional[float] = None) -> None:
        """Begin periodic self-reporting on the simulator."""
        if self.running:
            return
        self._handle = sim.schedule_periodic(
            self.period,
            lambda s: self.collect(s.now),
            start_delay=self.period if start_delay is None else start_delay,
            label="telemetry:health",
            priority=20,  # after collection ticks: report this tick's counters
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
