"""Cross-cutting observability: tracing, typed metrics, profiling hooks.

DCDB Wintermute's lesson is that an online ODA stack must be *holistically
instrumented* — the monitoring system itself needs monitoring.  This package
provides the three legs:

* :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.Tracer` with nested
  spans carrying sim-time and wall-time, propagated along the real data
  path (scrape → publish → deliver → stage → ingest → shard fan-out →
  federated query), exportable as Chrome trace-event JSON and JSONL;
* :mod:`repro.obs.metrics` — typed :class:`~repro.obs.metrics.Counter` /
  :class:`~repro.obs.metrics.Gauge` / :class:`~repro.obs.metrics.Histogram`
  instruments in a :class:`~repro.obs.metrics.MetricsRegistry` with a
  Prometheus text exporter (every pipeline component keeps its
  self-metrics in one such registry, registered once with
  ``TelemetrySystem``);
* **profiling hooks** — the hot paths (store ingest/flush/resample, bus
  routing, replica fan-out, federated queries, scheduler tick, orchestrator
  decide) open spans only when the single global switch is on, so a
  disabled pipeline pays one attribute check per operation and nothing
  else.

Usage::

    from repro.obs import OBS

    OBS.enable()
    dc = DataCenter(seed=1, shards=4)
    dc.run(days=0.1)
    spans = OBS.tracer.spans()                  # every traced operation
    text = OBS.registry.to_prometheus()         # profiling histograms
    OBS.disable()

Instrumented call sites follow one pattern, chosen so the *disabled* cost
is a single attribute load and branch::

    if OBS.enabled:
        with OBS.tracer.span("store.ingest", sim_time=batch.time):
            return self._ingest(topic, batch)
    return self._ingest(topic, batch)

``OBS`` is a process-wide singleton (like OpenTelemetry's global tracer
provider): deep pipeline internals reach it without threading an
observability handle through every constructor.  Tests and the ``repro
obs`` CLI bracket their runs with ``enable()``/``disable()`` + ``reset()``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    spans_to_chrome,
    spans_to_dicts,
)

__all__ = [
    "OBS",
    "Observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "prometheus_text",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "spans_to_chrome",
    "spans_to_dicts",
]


class Observability:
    """The switchable bundle of tracer + metrics registry.

    ``enabled`` is the single switch every instrumented call site checks;
    with it off, the tracer and registry are never touched.  Each finished
    span also feeds a per-span-name duration histogram
    (``obs.<name>.seconds``) in :attr:`registry`, so profiling summaries
    (p50/p95/p99 per operation) fall out of tracing for free.
    """

    def __init__(self, trace_capacity: int = 65536):
        self.enabled = False
        self.tracer = Tracer(capacity=trace_capacity)
        self.registry = MetricsRegistry()
        self._hist_cache: Dict[str, Histogram] = {}
        self.tracer.on_finish = self._observe_span

    # ------------------------------------------------------------------
    def enable(self, trace_capacity: Optional[int] = None) -> "Observability":
        """Turn instrumentation on (optionally resizing the span ring)."""
        if trace_capacity is not None and trace_capacity != self.tracer.capacity:
            self.reset(trace_capacity=trace_capacity)
        self.enabled = True
        return self

    def disable(self) -> None:
        """Turn instrumentation off; collected data stays readable."""
        self.enabled = False

    def reset(self, trace_capacity: Optional[int] = None) -> None:
        """Drop all collected spans and metrics (fresh tracer + registry)."""
        capacity = trace_capacity or self.tracer.capacity
        self.tracer = Tracer(capacity=capacity)
        self.tracer.on_finish = self._observe_span
        self.registry = MetricsRegistry()
        self._hist_cache = {}

    # ------------------------------------------------------------------
    def span(self, name: str, sim_time: Optional[float] = None, **attrs: Any):
        """Open a span when enabled; a shared no-op span otherwise.

        Convenience for cold call sites; hot paths guard on
        ``OBS.enabled`` explicitly and call ``OBS.tracer.span`` directly
        to avoid the keyword packing when disabled.
        """
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, sim_time=sim_time, **attrs)

    def _observe_span(self, span: Span) -> None:
        hist = self._hist_cache.get(span.name)
        if hist is None:
            hist = self.registry.histogram(
                f"obs.{span.name}.seconds",
                description=f"wall-clock duration of {span.name} spans",
            )
            self._hist_cache[span.name] = hist
        hist.observe(span.duration)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name profile: count, total/mean seconds, p50/p95/p99."""
        out: Dict[str, Dict[str, float]] = {}
        for name, spans in sorted(self.tracer.by_name().items()):
            hist = self._hist_cache.get(name)
            row = {
                "count": float(len(spans)),
                "total_s": sum(s.duration for s in spans),
                "errors": float(sum(1 for s in spans if s.error)),
            }
            if hist is not None and hist.count:
                row["mean_s"] = hist.mean
                row["p50_s"] = hist.quantile(0.5)
                row["p95_s"] = hist.quantile(0.95)
                row["p99_s"] = hist.quantile(0.99)
            out[name] = row
        return out


#: Process-wide observability singleton; disabled by default.
OBS = Observability()
