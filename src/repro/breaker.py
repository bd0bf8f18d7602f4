"""Circuit breakers: the three-state failure-isolation machine.

One :class:`CircuitBreaker` guards each supervised controller or stage of
the control plane (:mod:`repro.oda.supervision`) and the query front door
(:mod:`repro.telemetry.serving.frontend`): closed → open after N
consecutive failures → half-open probe → closed, with the open window
growing exponentially while probes keep failing.  Every transition is
audited as a :class:`BreakerTransition`.  The module depends on nothing
but :mod:`repro.errors`, so both layers import it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.errors import SupervisionError

__all__ = ["BreakerState", "BreakerTransition", "CircuitBreaker"]


class BreakerState(Enum):
    """Circuit-breaker states (the classic three-state machine)."""

    CLOSED = "closed"          # normal operation
    OPEN = "open"              # failing: calls short-circuit to safe state
    HALF_OPEN = "half_open"    # probing: one call allowed through


@dataclass(frozen=True)
class BreakerTransition:
    """One audited breaker state change."""

    time: float
    from_state: BreakerState
    to_state: BreakerState
    reason: str = ""


#: The only legal breaker transitions.
_LEGAL_TRANSITIONS = {
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
}


class CircuitBreaker:
    """Per-controller failure isolation with exponential open-window backoff.

    ``closed`` counts consecutive failures; at ``failure_threshold`` the
    breaker opens for ``open_timeout_s`` of simulation time.  The first
    :meth:`allow` at/after the probe time moves it to ``half_open`` and lets
    exactly that call through; a success closes it (resetting the window), a
    failure re-opens it with the window doubled (capped).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        open_timeout_s: float = 3600.0,
        backoff_factor: float = 2.0,
        max_open_timeout_s: float = 12 * 3600.0,
        half_open_successes: int = 1,
    ):
        if failure_threshold < 1:
            raise SupervisionError("failure_threshold must be >= 1")
        if open_timeout_s <= 0:
            raise SupervisionError("open_timeout_s must be positive")
        self.failure_threshold = failure_threshold
        self.open_timeout_s = open_timeout_s
        self.backoff_factor = backoff_factor
        self.max_open_timeout_s = max_open_timeout_s
        self.half_open_successes = half_open_successes
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.failures = 0
        self.opens = 0
        self.closes = 0
        self.transitions: List[BreakerTransition] = []
        self._probe_at = math.inf
        self._probe_successes = 0
        self._current_timeout = open_timeout_s

    def _transition(self, now: float, to_state: BreakerState, reason: str) -> None:
        pair = (self.state, to_state)
        if pair not in _LEGAL_TRANSITIONS:
            raise SupervisionError(
                f"illegal breaker transition {self.state.value} -> {to_state.value}"
            )
        self.transitions.append(BreakerTransition(now, self.state, to_state, reason))
        self.state = to_state

    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether a call may proceed at ``now`` (moves open → half-open)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now >= self._probe_at:
                self._probe_successes = 0
                self._transition(now, BreakerState.HALF_OPEN, "probe window reached")
                return True
            return False
        return True  # HALF_OPEN: the probe call

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._transition(now, BreakerState.CLOSED, "probe succeeded")
                self.closes += 1
                self._current_timeout = self.open_timeout_s
                self.consecutive_failures = 0
        else:
            self.consecutive_failures = 0

    def record_failure(self, now: float, reason: str = "") -> bool:
        """Record a failure; returns ``True`` if this opened the breaker."""
        self.failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._open(now, reason or "probe failed", escalate=True)
            return True
        if self.state is BreakerState.CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                self._open(now, reason or "failure threshold reached", escalate=False)
                return True
        return False

    def _open(self, now: float, reason: str, escalate: bool) -> None:
        if escalate:
            self._current_timeout = min(
                self._current_timeout * self.backoff_factor, self.max_open_timeout_s
            )
        self._transition(now, BreakerState.OPEN, reason)
        self.opens += 1
        self._probe_at = now + self._current_timeout
