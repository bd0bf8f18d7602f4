"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.  Subsystems raise the most
specific subclass that applies; generic built-ins (``ValueError``,
``TypeError``) are reserved for plain argument-validation failures where the
caller made a programming error rather than a domain error.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation enters an invalid state."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed or wired inconsistently."""


class TelemetryError(ReproError):
    """Base class for telemetry-pipeline errors."""


class UnknownMetricError(TelemetryError, KeyError):
    """Raised when a metric name is not present in a registry or store."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return f"unknown metric: {self.name!r}"


class StoreError(TelemetryError):
    """Raised on invalid time-series store operations (bad ranges, dtypes)."""


class ShardDownError(StoreError):
    """Raised when no healthy replica of a storage shard can serve a read."""


class PersistenceError(StoreError):
    """Raised when a persisted store artifact is damaged beyond safe loading.

    Carries enough context to locate the damage: ``path`` names the artifact
    and ``offset`` (when known) the byte position where decoding failed.
    Recoverable damage — a single corrupt chunk inside an otherwise intact
    archive, one bad member of a sharded save — is *not* raised; those
    degrade into partial loads counted by ``telemetry.durability.corrupt_artifacts``.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 offset: int | None = None):
        super().__init__(message)
        self.path = path
        self.offset = offset

    def __str__(self) -> str:
        base = super().__str__()
        loc = []
        if self.path is not None:
            loc.append(f"path={self.path!r}")
        if self.offset is not None:
            loc.append(f"offset={self.offset}")
        return f"{base} ({', '.join(loc)})" if loc else base


class JournalError(StoreError):
    """Raised on invalid write-ahead journal configuration or use.

    Damage *inside* journal segments is never raised during recovery — torn
    tails and corrupt records degrade into counted drops so a crash-landed
    journal always replays its intact prefix.
    """


class ServingError(TelemetryError):
    """Raised on invalid serving front-door configuration or use.

    Note that *per-query* serving outcomes (rate limiting, shedding, open
    breakers, unknown metrics) are never raised — the front door returns
    typed ``RejectedQuery``/failed ``QueryResult`` values instead, so one
    misbehaving tenant cannot turn into an exception storm.
    """


class SamplerError(TelemetryError):
    """Raised when a telemetry source fails to produce a reading."""


class SensorDropoutError(SamplerError):
    """Raised by a (possibly injected) sensor that is offline for a scrape."""


class SubscriberError(TelemetryError):
    """Raised when a bus sink cannot accept a delivery (e.g. failed replay)."""


class AnalyticsError(ReproError):
    """Base class for analytics-layer errors."""


class NotFittedError(AnalyticsError):
    """Raised when a model is used before :meth:`fit` was called."""


class InsufficientDataError(AnalyticsError):
    """Raised when an analytics routine receives too few samples to work."""


class SchedulingError(ReproError):
    """Raised on invalid scheduler or job-lifecycle operations."""


class ClassificationError(ReproError):
    """Raised when a use case cannot be mapped onto the ODA framework grid."""


class ControlError(ReproError):
    """Raised when a prescriptive controller receives an invalid actuation."""


class SupervisionError(ReproError):
    """Raised on invalid control-plane supervision configuration or use."""


class ChaosError(ReproError):
    """Raised by injected controller faults during a chaos campaign."""
