"""Typed metric instruments and the observability metrics registry.

The telemetry pipeline's self-metrics are typed — :class:`Counter`
(monotone), :class:`Gauge` (free-moving) and :class:`Histogram` (fixed
buckets plus p50/p95/p99 summaries) — and collected in a
:class:`MetricsRegistry` that can render the Prometheus text exposition
format.  Each component owns one registry and registers it once with
``TelemetrySystem``; the flat dict view (:meth:`MetricsRegistry.snapshot`)
is what the :class:`~repro.telemetry.health.HealthMonitor` publishes as a
health batch.

Instruments come in two flavors:

* **stateful** — ``counter.inc()`` / ``gauge.set()`` / ``hist.observe()``
  mutate the instrument directly (used by the profiling hooks), and
* **callback-backed** — constructed with ``fn=...``, the instrument reads
  its value from an existing component attribute at collection time.  This
  is how the pipeline's hot-path counters are migrated without adding any
  work to the hot paths themselves: ``bus.published`` stays a plain ``int``
  increment, and the typed counter wraps it for snapshots and export.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "prometheus_text",
]

#: Default latency buckets (seconds), log-ish spaced from 1 µs to 10 s —
#: sized for the wall-clock of in-process pipeline operations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)

ValueFn = Callable[[], float]


class Counter:
    """Monotonically non-decreasing value (events, samples, errors)."""

    kind = "counter"
    __slots__ = ("name", "description", "unit", "_value", "_fn")

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        fn: Optional[ValueFn] = None,
    ):
        self.name = name
        self.description = description
        self.unit = unit
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ConfigurationError(
                f"counter {self.name} is callback-backed; mutate the source"
            )
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name}: increment must be >= 0, got {amount}"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def snapshot_items(self) -> Iterator[Tuple[str, float]]:
        yield self.name, self.value


class Gauge:
    """Free-moving instantaneous value (queue depth, cache size)."""

    kind = "gauge"
    __slots__ = ("name", "description", "unit", "_value", "_fn")

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        fn: Optional[ValueFn] = None,
    ):
        self.name = name
        self.description = description
        self.unit = unit
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ConfigurationError(
                f"gauge {self.name} is callback-backed; mutate the source"
            )
        self._value = float(value)

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def snapshot_items(self) -> Iterator[Tuple[str, float]]:
        yield self.name, self.value


class Histogram:
    """Fixed-bucket distribution with on-demand quantile estimates.

    Observations land in the first bucket whose upper edge is >= the value
    (cumulative ``le`` semantics, like Prometheus); values beyond the last
    edge go to the implicit +Inf bucket.  p50/p95/p99 are estimated by
    linear interpolation inside the owning bucket, with the interpolation
    range clamped to the tracked observed ``[min, max]`` — this keeps the
    first and overflow buckets finite *and* stops interior buckets from
    over-reporting the tail (a histogram whose every observation is 0.3 s
    reports p99 = 0.3 s, not the bucket's upper edge).

    Histograms observed from several threads at once (the serving worker
    pool) should be built with ``threadsafe=True``; the default stays
    lock-free for the single-threaded pipeline hot paths.
    """

    kind = "histogram"
    __slots__ = ("name", "description", "unit", "edges", "bucket_counts",
                 "count", "sum", "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        description: str = "",
        unit: str = "s",
        threadsafe: bool = False,
    ):
        self.name = name
        self.description = description
        self.unit = unit
        edges = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        if not edges:
            raise ConfigurationError(f"histogram {name}: needs >= 1 bucket edge")
        self.edges: Tuple[float, ...] = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock: Optional[threading.Lock] = threading.Lock() if threadsafe else None

    def observe(self, value: float) -> None:
        if self._lock is not None:
            with self._lock:
                self._observe(value)
        else:
            self._observe(value)

    def _observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate in ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return math.nan
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.bucket_counts):
            if not n:
                continue
            if cum + n >= target:
                lo = -math.inf if i == 0 else self.edges[i - 1]
                hi = math.inf if i == len(self.edges) else self.edges[i]
                # Clamp the interpolation range to what was actually
                # observed: a non-empty bucket i holds at least one value in
                # (edges[i-1], edges[i]], so min <= hi and max > lo and the
                # clamped range stays well ordered.
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if lo > hi:
                    lo = hi
                frac = (target - cum) / n
                return lo + (hi - lo) * frac
            cum += n
        return self.max

    def quantiles(self, qs: Tuple[float, ...] = (0.5, 0.95, 0.99)) -> Dict[float, float]:
        return {q: self.quantile(q) for q in qs}

    def snapshot_items(self) -> Iterator[Tuple[str, float]]:
        """Flat dict view: count/sum/mean plus p50/p95/p99 estimates."""
        yield f"{self.name}.count", float(self.count)
        yield f"{self.name}.sum", self.sum
        yield f"{self.name}.mean", self.mean
        for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            yield f"{self.name}.{label}", self.quantile(q)


Instrument = object  # Counter | Gauge | Histogram


class MetricsRegistry:
    """Name-indexed collection of typed instruments.

    ``counter()`` / ``gauge()`` / ``histogram()`` are get-or-create:
    requesting an existing name returns the existing instrument (and raises
    :class:`~repro.errors.ConfigurationError` if the kind differs), so
    independent call sites can share one instrument safely.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        instrument = cls(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        fn: Optional[ValueFn] = None,
    ) -> Counter:
        return self._get_or_create(
            Counter, name, description=description, unit=unit, fn=fn
        )

    def gauge(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        fn: Optional[ValueFn] = None,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, description=description, unit=unit, fn=fn
        )

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        description: str = "",
        unit: str = "s",
        threadsafe: bool = False,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, buckets=buckets, description=description,
            unit=unit, threadsafe=threadsafe,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            from repro.errors import UnknownMetricError

            raise UnknownMetricError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # ------------------------------------------------------------------
    # Views / export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view — the shape of one health batch.

        Counters and gauges contribute one entry each (their own name);
        histograms expand to ``.count/.sum/.mean/.p50/.p95/.p99``.
        """
        out: Dict[str, float] = {}
        for instrument in self._instruments.values():
            out.update(instrument.snapshot_items())
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition of this registry alone."""
        return prometheus_text([self])


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus exposition."""
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(registries: Iterable[MetricsRegistry]) -> str:
    """Render one text exposition across several registries.

    Names are not aggregated across registries: the first instrument with
    a given (sanitized) name is emitted as is, a second one is renamed
    ``<name>_dup``, and any further copies are dropped.  The pipeline keeps
    names disjoint, so this only shows up on a naming bug.  Histograms
    additionally emit a ``<name>_summary`` block with p50/p95/p99 quantile
    lines so consumers that cannot aggregate buckets still see the tail
    behavior.
    """
    lines: List[str] = []
    seen: set = set()
    for registry in registries:
        for instrument in registry:
            pname = _prom_name(instrument.name)
            if pname in seen:
                pname = pname + "_dup"
                if pname in seen:
                    continue
            seen.add(pname)
            if instrument.description:
                lines.append(f"# HELP {pname} {instrument.description}")
            lines.append(f"# TYPE {pname} {instrument.kind}")
            if isinstance(instrument, Histogram):
                cum = 0
                for edge, n in zip(instrument.edges, instrument.bucket_counts):
                    cum += n
                    lines.append(
                        f'{pname}_bucket{{le="{edge:g}"}} {cum}'
                    )
                lines.append(f'{pname}_bucket{{le="+Inf"}} {instrument.count}')
                lines.append(f"{pname}_sum {_prom_value(instrument.sum)}")
                lines.append(f"{pname}_count {instrument.count}")
                lines.append(f"# TYPE {pname}_summary summary")
                for q in (0.5, 0.95, 0.99):
                    lines.append(
                        f'{pname}_summary{{quantile="{q}"}} '
                        f"{_prom_value(instrument.quantile(q))}"
                    )
                lines.append(f"{pname}_summary_sum {_prom_value(instrument.sum)}")
                lines.append(f"{pname}_summary_count {instrument.count}")
            else:
                lines.append(f"{pname} {_prom_value(instrument.value)}")
    return "\n".join(lines) + "\n"
