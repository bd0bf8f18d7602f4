"""Streaming analytics pipelines over the message bus.

Production ODA runs much of its analytics *online*: stages subscribe to
telemetry topics, transform batches as they arrive, and republish derived
metrics that land in the store like any sensor (DCDB Wintermute's
operator plugins, ExaMon's consumers).  :class:`StreamingStage` is that
plugin shape; two stock stages cover the common cases.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.bus import MessageBus
from repro.telemetry.sample import SampleBatch

__all__ = ["StreamingStage", "DerivedMetricStage", "StreamingDetectorStage"]


class StreamingStage:
    """Base: subscribe to a topic pattern, transform, republish.

    Subclasses implement :meth:`process`, returning a mapping of derived
    metric names to values (or ``None`` to emit nothing for this batch).
    Derived batches are published on ``output_topic`` so downstream stages
    and the store pick them up transparently.
    """

    def __init__(self, bus: MessageBus, pattern: str, output_topic: str):
        self.bus = bus
        self.output_topic = output_topic
        self.processed = 0
        self.emitted = 0
        self.errors = 0
        self.last_error = ""
        self._metrics: Optional[MetricsRegistry] = None
        self._subscription = bus.subscribe(pattern, self._on_batch)

    def stop(self) -> None:
        self._subscription.cancel()

    def _on_batch(self, topic: str, batch: SampleBatch) -> None:
        if _OBS.enabled:
            with _OBS.tracer.span(
                "stage.process", sim_time=batch.time, stage=self.output_topic
            ):
                self._on_batch_impl(topic, batch)
            return
        self._on_batch_impl(topic, batch)

    def _on_batch_impl(self, topic: str, batch: SampleBatch) -> None:
        self.processed += 1
        try:
            derived = self.process(topic, batch)
        except Exception as exc:  # noqa: BLE001 — a buggy stage must not
            # poison the bus delivery loop or get itself quarantined; count
            # the failure and skip this batch.
            self.errors += 1
            self.last_error = repr(exc)
            return
        if derived:
            self.emitted += 1
            self.bus.publish(self.output_topic, SampleBatch.from_mapping(batch.time, derived))

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``telemetry.stage.<topic>`` subtree."""
        if self._metrics is None:
            prefix = f"telemetry.stage.{self.output_topic}"
            r = MetricsRegistry()
            r.counter(f"{prefix}.processed", "batches seen by the stage",
                      fn=lambda: float(self.processed))
            r.counter(f"{prefix}.emitted", "derived batches republished",
                      fn=lambda: float(self.emitted))
            r.counter(f"{prefix}.errors", "process() calls that raised",
                      fn=lambda: float(self.errors))
            self._metrics = r
        return self._metrics

    def process(self, topic: str, batch: SampleBatch) -> Optional[Dict[str, float]]:
        raise NotImplementedError


class DerivedMetricStage(StreamingStage):
    """Compute derived metrics from each batch with a plain function.

    ``compute(values: dict) -> dict`` receives the declared ``inputs`` as a
    mapping and returns derived name/value pairs; missing inputs skip the
    batch.  Only the declared inputs are materialized (via indexed batch
    lookups), so non-matching batches cost two dict probes, not a full
    batch-to-dict conversion.
    Example — streaming instantaneous PUE::

        DerivedMetricStage(
            bus, "facility", "derived.pue",
            inputs=("facility.power.site_power", "facility.power.it_power"),
            compute=lambda v: {"derived.pue": v["facility.power.site_power"]
                                              / max(v["facility.power.it_power"], 1.0)},
        )
    """

    def __init__(
        self,
        bus: MessageBus,
        pattern: str,
        output_topic: str,
        inputs: tuple,
        compute: Callable[[Dict[str, float]], Dict[str, float]],
    ):
        super().__init__(bus, pattern, output_topic)
        self.inputs = inputs
        self.compute = compute

    def process(self, topic: str, batch: SampleBatch) -> Optional[Dict[str, float]]:
        values: Dict[str, float] = {}
        for name in self.inputs:
            value = batch.get(name)
            if value is None:
                return None
            values[name] = value
        return self.compute(values)


class StreamingDetectorStage(StreamingStage):
    """Online EWMA anomaly scoring of selected metrics.

    Maintains per-metric EWMA mean/variance; publishes a ``<metric>.zscore``
    derived value per batch and counts threshold breaches — the streaming
    half of descriptive alerting and diagnostic detection.
    """

    def __init__(
        self,
        bus: MessageBus,
        pattern: str,
        output_topic: str,
        metrics: tuple,
        alpha: float = 0.1,
        threshold: float = 4.0,
    ):
        super().__init__(bus, pattern, output_topic)
        self.watched = metrics
        self.alpha = alpha
        self.threshold = threshold
        self.breaches = 0
        self._state: Dict[str, tuple] = {}  # metric -> (ewma, ewvar)

    def process(self, topic: str, batch: SampleBatch) -> Optional[Dict[str, float]]:
        out: Dict[str, float] = {}
        for metric in self.watched:
            value = batch.get(metric)
            if value is None:
                continue
            state = self._state.get(metric)
            if state is None:
                self._state[metric] = (value, 0.0)
                continue
            ewma, ewvar = state
            # Score against the previous state (control-chart order); a
            # deviation from a variance-free baseline is maximally surprising.
            std = np.sqrt(ewvar)
            if std > 0:
                z = abs(value - ewma) / std
            else:
                z = 0.0 if value == ewma else self.threshold * 10.0
            delta = value - ewma
            ewma += self.alpha * delta
            ewvar = (1 - self.alpha) * (ewvar + self.alpha * delta**2)
            self._state[metric] = (ewma, ewvar)
            out[f"{metric}.zscore"] = z
            if z > self.threshold:
                self.breaches += 1
        return out or None
