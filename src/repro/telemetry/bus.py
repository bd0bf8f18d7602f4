"""In-process publish/subscribe message bus.

Plays the role of the transport layer in production monitoring stacks
(MQTT in DCDB, the aggregator overlay in LDMS): samplers publish
:class:`~repro.telemetry.sample.SampleBatch` objects to topics, and sinks
(the time-series store, alert engines, streaming analytics) subscribe with
topic patterns.

Topics are hierarchical dot-paths like metric names; subscriptions match by
shell-style patterns so a store can subscribe to ``"#"`` (everything) while a
node-level runtime subscribes only to ``cluster.rack0.node3.*``.

Routing is indexed: each subscription pattern is compiled to a regex once,
and the bus caches the exact-topic → matching-subscriptions list so a
publish on a hot topic does no pattern matching at all.  The cache is
invalidated on subscribe and compaction; quarantine and cancellation are
checked per delivery, so the resilience semantics below are unaffected.

Fault tolerance mirrors what long-lived monitoring deployments need: a
raising sink is isolated (other subscribers still get the batch), repeated
failures quarantine the subscription instead of poisoning every publish, and
failed deliveries are parked in a bounded dead-letter queue that operators
can inspect and replay once the sink is fixed.
"""

from __future__ import annotations

import fnmatch
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import SubscriberError
from repro.obs import OBS as _OBS
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.sample import SampleBatch

__all__ = ["Subscription", "DeadLetter", "MessageBus"]

SinkFn = Callable[[str, SampleBatch], None]

#: Wildcard pattern matching every topic.
MATCH_ALL = "#"


@dataclass
class Subscription:
    """A registered sink: pattern + callback + delivery statistics.

    ``errors`` counts every failed delivery; ``consecutive_errors`` resets on
    each success and drives quarantine.  A quarantined subscription stays
    registered (inspectable, revivable via :meth:`reset`) but receives no
    deliveries until revived.
    """

    pattern: str
    callback: SinkFn
    delivered: int = 0
    active: bool = True
    errors: int = 0
    consecutive_errors: int = 0
    quarantined: bool = False
    last_error: str = ""
    _matcher: Optional[Callable] = field(
        default=None, init=False, repr=False, compare=False
    )
    _bus: Optional["MessageBus"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Compile the shell pattern once; "#" (and "*") match everything
        # without a regex call at all.
        if self.pattern in (MATCH_ALL, "*"):
            self._matcher = None
        else:
            self._matcher = re.compile(fnmatch.translate(self.pattern)).match

    def matches_topic(self, topic: str) -> bool:
        """Pure pattern match, ignoring active/quarantine state."""
        return self._matcher is None or self._matcher(topic) is not None

    def matches(self, topic: str) -> bool:
        if not self.active or self.quarantined:
            return False
        return self.matches_topic(topic)

    def cancel(self) -> None:
        """Stop delivering to this subscription.

        The bus compacts cancelled subscriptions out of its delivery list
        opportunistically on the next publish.
        """
        self.active = False
        if self._bus is not None:
            self._bus._pending_compact = True

    def reset(self) -> None:
        """Revive a quarantined subscription (e.g. after fixing the sink)."""
        self.quarantined = False
        self.consecutive_errors = 0


@dataclass
class DeadLetter:
    """One failed delivery parked for inspection/replay."""

    topic: str
    batch: SampleBatch
    subscription: Subscription
    error: str
    time: float = field(default=0.0)


class MessageBus:
    """Synchronous topic-based pub/sub bus with delivery accounting.

    Delivery is synchronous and in subscription order, which keeps the whole
    pipeline deterministic under the discrete-event simulator.  The bus keeps
    simple counters (published / delivered / dropped / delivery_errors) that
    the telemetry benchmarks and the health monitor report.

    Parameters
    ----------
    max_consecutive_errors:
        A subscription that fails this many deliveries in a row is
        quarantined: skipped on subsequent publishes until
        :meth:`Subscription.reset` revives it.
    dead_letter_capacity:
        Bound on the dead-letter queue; oldest letters are evicted first and
        counted in ``dead_letters_evicted``.
    topic_cardinality_cap:
        Bound on the per-topic publish counters.  The first
        ``topic_cardinality_cap`` distinct topics are tracked individually;
        publishes on any further topic are folded into a single overflow
        bucket (``topic_overflow``) so a high-cardinality workload cannot
        grow bus memory without bound.
    route_cache_capacity:
        Bound on the exact-topic routing cache; when full, the cache is
        dropped and rebuilt on demand.
    """

    def __init__(
        self,
        max_consecutive_errors: int = 5,
        dead_letter_capacity: int = 256,
        topic_cardinality_cap: int = 1024,
        route_cache_capacity: int = 1024,
    ) -> None:
        self._subscriptions: List[Subscription] = []
        self.published = 0
        self.delivered = 0
        self.dropped = 0
        self.delivery_errors = 0
        self.quarantines = 0
        self.dead_letters_evicted = 0
        self.max_consecutive_errors = max_consecutive_errors
        self._dead_letters: Deque[DeadLetter] = deque(maxlen=dead_letter_capacity)
        self.topic_cardinality_cap = topic_cardinality_cap
        self._topic_counts: Dict[str, int] = {}
        self.topic_overflow = 0  # publishes folded into the overflow bucket
        self.route_cache_capacity = route_cache_capacity
        self._route_cache: Dict[str, List[Subscription]] = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._pending_compact = False
        self._metrics: Optional[MetricsRegistry] = None

    def subscribe(self, pattern: str, callback: SinkFn) -> Subscription:
        """Register ``callback`` for topics matching ``pattern``.

        ``pattern`` uses shell-style wildcards (``*``, ``?``) or the special
        ``"#"`` which matches every topic.
        """
        sub = Subscription(pattern=pattern, callback=callback)
        sub._bus = self
        self._subscriptions.append(sub)
        self._route_cache.clear()
        return sub

    def _count_topic(self, topic: str) -> None:
        counts = self._topic_counts
        seen = counts.get(topic)
        if seen is not None:
            counts[topic] = seen + 1
        elif len(counts) < self.topic_cardinality_cap:
            counts[topic] = 1
        else:
            self.topic_overflow += 1

    def _route(self, topic: str) -> List[Subscription]:
        """Matching subscriptions for ``topic``, cached per exact topic."""
        subs = self._route_cache.get(topic)
        if subs is None:
            self.route_cache_misses += 1
            if len(self._route_cache) >= self.route_cache_capacity:
                self._route_cache.clear()
            subs = [s for s in self._subscriptions if s.matches_topic(topic)]
            self._route_cache[topic] = subs
        else:
            self.route_cache_hits += 1
        return subs

    def publish(self, topic: str, batch: SampleBatch) -> int:
        """Deliver ``batch`` to all matching subscriptions.

        Returns the number of successful deliveries; a published batch no
        subscriber wanted counts as dropped.  A raising subscriber does not
        abort delivery to the rest: the failure is counted, the batch is
        parked in the dead-letter queue, and delivery continues.
        """
        if _OBS.enabled:
            with _OBS.tracer.span("bus.publish", sim_time=batch.time, topic=topic):
                return self._publish(topic, batch)
        return self._publish(topic, batch)

    def _publish(self, topic: str, batch: SampleBatch) -> int:
        self.published += 1
        self._count_topic(topic)
        if self._pending_compact:
            self.compact()
        obs_on = _OBS.enabled
        count = 0
        for sub in self._route(topic):
            if not sub.active or sub.quarantined:
                continue
            try:
                if obs_on:
                    with _OBS.tracer.span(
                        "bus.deliver", sim_time=batch.time, pattern=sub.pattern
                    ):
                        sub.callback(topic, batch)
                else:
                    sub.callback(topic, batch)
            except Exception as exc:  # noqa: BLE001 — isolate any sink failure
                self._record_failure(sub, topic, batch, exc)
                continue
            sub.delivered += 1
            sub.consecutive_errors = 0
            count += 1
        if count == 0:
            self.dropped += 1
        self.delivered += count
        return count

    def _record_failure(
        self, sub: Subscription, topic: str, batch: SampleBatch, exc: Exception
    ) -> None:
        sub.errors += 1
        sub.consecutive_errors += 1
        sub.last_error = repr(exc)
        self.delivery_errors += 1
        if (
            self._dead_letters.maxlen is not None
            and len(self._dead_letters) >= self._dead_letters.maxlen
        ):
            self.dead_letters_evicted += 1
        self._dead_letters.append(
            DeadLetter(topic, batch, sub, repr(exc), time=batch.time)
        )
        if (
            not sub.quarantined
            and sub.consecutive_errors >= self.max_consecutive_errors
        ):
            sub.quarantined = True
            self.quarantines += 1

    # ------------------------------------------------------------------
    # Dead-letter queue
    # ------------------------------------------------------------------
    @property
    def dead_letters(self) -> List[DeadLetter]:
        """Snapshot of currently parked failed deliveries (oldest first)."""
        return list(self._dead_letters)

    @property
    def dead_letter_count(self) -> int:
        return len(self._dead_letters)

    def replay_dead_letters(
        self, subscription: Optional[Subscription] = None, strict: bool = False
    ) -> int:
        """Re-attempt parked deliveries; returns the number redelivered.

        Letters whose delivery succeeds are removed; letters that fail again
        are re-parked with the fresh error.  Letters for cancelled
        subscriptions are discarded.  Pass ``subscription`` to replay only one
        sink's letters; with ``strict=True`` the first re-failure raises
        :class:`~repro.errors.SubscriberError` instead of re-parking.

        Replay intentionally ignores quarantine: the operator flow is to fix
        the sink, :meth:`Subscription.reset` it, then replay.
        """
        letters = list(self._dead_letters)
        self._dead_letters.clear()
        replayed = 0
        for letter in letters:
            sub = letter.subscription
            if subscription is not None and sub is not subscription:
                self._dead_letters.append(letter)
                continue
            if not sub.active:
                continue
            try:
                sub.callback(letter.topic, letter.batch)
            except Exception as exc:  # noqa: BLE001
                letter.error = repr(exc)
                self._dead_letters.append(letter)
                if strict:
                    raise SubscriberError(
                        f"replay to {sub.pattern!r} failed again: {exc!r}"
                    ) from exc
                continue
            sub.delivered += 1
            self.delivered += 1
            replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Drop cancelled subscriptions from the delivery list.

        Called opportunistically by :meth:`publish`; returns count removed.
        Invalidates the routing cache, which still references the dropped
        subscriptions.
        """
        before = len(self._subscriptions)
        self._subscriptions = [s for s in self._subscriptions if s.active]
        removed = before - len(self._subscriptions)
        if removed:
            self._route_cache.clear()
        self._pending_compact = False
        return removed

    def quarantined(self) -> List[Subscription]:
        """Subscriptions currently quarantined for repeated failures."""
        return [s for s in self._subscriptions if s.active and s.quarantined]

    def topics(self) -> List[str]:
        """Individually tracked topics seen so far, sorted.

        Topics folded into the overflow bucket (beyond
        ``topic_cardinality_cap``) are not listed.
        """
        return sorted(self._topic_counts)

    def topic_count(self, topic: str) -> int:
        """Number of batches published on ``topic`` (0 if untracked)."""
        return self._topic_counts.get(topic, 0)

    @property
    def subscription_count(self) -> int:
        return sum(1 for s in self._subscriptions if s.active)

    @property
    def quarantined_count(self) -> int:
        return sum(1 for s in self._subscriptions if s.active and s.quarantined)

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments over the bus counters (lazily built).

        The hot-path counting stays plain attribute increments; the
        registry's callback-backed instruments read them at snapshot or
        Prometheus-export time, so migration costs the publish path
        nothing.
        """
        if self._metrics is None:
            r = MetricsRegistry()
            r.counter("telemetry.bus.published",
                      "batches published", fn=lambda: float(self.published))
            r.counter("telemetry.bus.delivered",
                      "successful deliveries", fn=lambda: float(self.delivered))
            r.counter("telemetry.bus.dropped",
                      "batches no subscriber accepted",
                      fn=lambda: float(self.dropped))
            r.counter("telemetry.bus.delivery_errors",
                      "failed deliveries", fn=lambda: float(self.delivery_errors))
            r.gauge("telemetry.bus.dead_letters",
                    "parked failed deliveries",
                    fn=lambda: float(len(self._dead_letters)))
            r.counter("telemetry.bus.dead_letters_evicted",
                      "dead letters evicted by the capacity bound",
                      fn=lambda: float(self.dead_letters_evicted))
            r.gauge("telemetry.bus.subscriptions",
                    "active subscriptions",
                    fn=lambda: float(self.subscription_count))
            r.gauge("telemetry.bus.quarantined",
                    "quarantined subscriptions",
                    fn=lambda: float(self.quarantined_count))
            r.gauge("telemetry.bus.topics_tracked",
                    "individually tracked topics",
                    fn=lambda: float(len(self._topic_counts)))
            r.gauge("telemetry.bus.topic_cardinality_cap",
                    "bound on tracked topics",
                    fn=lambda: float(self.topic_cardinality_cap))
            r.counter("telemetry.bus.topic_overflow",
                      "publishes folded into the overflow bucket",
                      fn=lambda: float(self.topic_overflow))
            r.gauge("telemetry.bus.route_cache_size",
                    "cached exact-topic routes",
                    fn=lambda: float(len(self._route_cache)))
            r.counter("telemetry.bus.route_cache_hits",
                      "route cache hits", fn=lambda: float(self.route_cache_hits))
            r.counter("telemetry.bus.route_cache_misses",
                      "route cache misses",
                      fn=lambda: float(self.route_cache_misses))
            self._metrics = r
        return self._metrics
