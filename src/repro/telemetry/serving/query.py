"""Typed queries and results for the serving front door.

The front door speaks *values*, not exceptions: a caller submits one of the
frozen query dataclasses below and always gets a value back — a
:class:`QueryResult` (which may carry an error string for per-query domain
failures like an unknown metric) or a :class:`RejectedQuery` when admission
control turned the request away before execution.  Keeping rejection in the
type system rather than the exception system is what lets one tenant
hammering the API degrade into cheap typed rejections instead of an
exception storm through the worker pool.

The query dataclasses are frozen and hashable on purpose: a query *is* its
own cache-key material (together with the tenant's visibility scope — see
:mod:`.cache`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

__all__ = [
    "NamesQuery",
    "SelectQuery",
    "RangeQuery",
    "ResampleQuery",
    "AlignQuery",
    "Query",
    "QueryResult",
    "RejectReason",
    "RejectedQuery",
    "ServeOutcome",
]


@dataclass(frozen=True)
class NamesQuery:
    """Catalog query: every series name visible to the tenant, sorted."""

    kind = "names"


@dataclass(frozen=True)
class SelectQuery:
    """Catalog query: visible names matching a shell-style pattern."""

    pattern: str

    kind = "select"


@dataclass(frozen=True)
class RangeQuery:
    """Raw range read of one series; payload is ``(times, values)``."""

    name: str
    since: float = -math.inf
    until: float = math.inf

    kind = "range"


@dataclass(frozen=True)
class ResampleQuery:
    """Downsample one series onto buckets; payload is ``(grid, values)``."""

    name: str
    since: float
    until: float
    step: float
    agg: str = "mean"

    kind = "resample"


@dataclass(frozen=True)
class AlignQuery:
    """Multi-series alignment onto one shared grid.

    Give either explicit ``names`` or a ``pattern`` (resolved against the
    tenant's visible series at execution time).  Payload is
    ``(grid, matrix, resolved_names)``.
    """

    names: Tuple[str, ...] = ()
    pattern: Optional[str] = None
    since: float = 0.0
    until: float = 0.0
    step: float = 60.0
    agg: str = "mean"
    fill: str = "ffill"

    kind = "align"

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))


Query = Union[NamesQuery, SelectQuery, RangeQuery, ResampleQuery, AlignQuery]


class RejectReason(enum.Enum):
    """Why admission control turned a query away before execution."""

    RATE_LIMITED = "rate_limited"    # tenant token bucket empty
    QUEUE_FULL = "queue_full"        # tenant or global queue at capacity
    SHED = "shed"                    # saturation watermark: shed-first mode
    BREAKER_OPEN = "breaker_open"    # frontend breaker open (degraded)
    CLOSED = "closed"                # frontend shut down


@dataclass(frozen=True)
class RejectedQuery:
    """Typed load-shed result — never an exception.

    ``retry_after_s`` is a hint (seconds) for :data:`RejectReason.RATE_LIMITED`;
    ``None`` when retrying sooner cannot help (full queue, open breaker).
    """

    tenant: str
    query: Query
    reason: RejectReason
    retry_after_s: Optional[float] = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return False

    @property
    def rejected(self) -> bool:
        return True


@dataclass
class QueryResult:
    """Outcome of an executed (admitted) query.

    ``ok`` with a ``payload``, or ``not ok`` with an ``error`` string for
    per-query domain failures (unknown/invisible metric, bad arguments,
    shard down).  ``payload`` arrays are read-only: cache hits share them.
    """

    tenant: str
    query: Query
    ok: bool
    payload: Any = None
    error: str = ""
    cache_hit: bool = False
    latency_s: float = field(default=math.nan)

    @property
    def rejected(self) -> bool:
        return False


ServeOutcome = Union[QueryResult, RejectedQuery]
