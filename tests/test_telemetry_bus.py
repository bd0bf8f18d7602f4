"""Tests for the pub/sub message bus."""

from __future__ import annotations

from repro.telemetry import MessageBus, SampleBatch


def batch(t=0.0, **values):
    return SampleBatch.from_mapping(t, values or {"m": 1.0})


class TestMessageBus:
    def test_publish_delivers_to_matching_subscription(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("cluster.*", lambda topic, b: seen.append(topic))
        bus.publish("cluster.rack0", batch())
        bus.publish("facility", batch())
        assert seen == ["cluster.rack0"]

    def test_match_all_pattern(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("#", lambda topic, b: seen.append(topic))
        bus.publish("a", batch())
        bus.publish("b.c", batch())
        assert seen == ["a", "b.c"]

    def test_multiple_subscribers_all_delivered(self):
        bus = MessageBus()
        counts = [0, 0]
        bus.subscribe("#", lambda t, b: counts.__setitem__(0, counts[0] + 1))
        bus.subscribe("#", lambda t, b: counts.__setitem__(1, counts[1] + 1))
        assert bus.publish("x", batch()) == 2
        assert counts == [1, 1]

    def test_unmatched_publish_counts_dropped(self):
        bus = MessageBus()
        bus.subscribe("only.this", lambda t, b: None)
        bus.publish("other", batch())
        assert bus.dropped == 1

    def test_cancelled_subscription_stops_delivery(self):
        bus = MessageBus()
        seen = []
        sub = bus.subscribe("#", lambda t, b: seen.append(t))
        bus.publish("x", batch())
        sub.cancel()
        bus.publish("y", batch())
        assert seen == ["x"]
        assert bus.subscription_count == 0

    def test_delivery_accounting(self):
        bus = MessageBus()
        bus.subscribe("#", lambda t, b: None)
        for _ in range(3):
            bus.publish("x", batch())
        assert bus.published == 3
        assert bus.delivered == 3
        assert bus.topic_count("x") == 3
        assert bus.topics() == ["x"]

    def test_subscription_delivered_counter(self):
        bus = MessageBus()
        sub = bus.subscribe("a*", lambda t, b: None)
        bus.publish("abc", batch())
        bus.publish("xyz", batch())
        assert sub.delivered == 1

    def test_cancelled_subscriptions_compacted(self):
        """Regression: cancelled subs must not be scanned forever."""
        bus = MessageBus()
        subs = [bus.subscribe("#", lambda t, b: None) for _ in range(10)]
        for sub in subs[:9]:
            sub.cancel()
        assert bus.subscription_count == 1
        bus.publish("x", batch())  # opportunistic compaction
        assert len(bus._subscriptions) == 1
        assert bus.subscription_count == 1
        # Survivor still receives deliveries after compaction.
        assert bus.publish("x", batch()) == 1

    def test_compact_explicit(self):
        bus = MessageBus()
        sub = bus.subscribe("#", lambda t, b: None)
        bus.subscribe("#", lambda t, b: None)
        sub.cancel()
        assert bus.compact() == 1
        assert bus.subscription_count == 1


class TestErrorIsolation:
    def test_raising_subscriber_does_not_block_others(self):
        bus = MessageBus()
        seen = []

        def bad(topic, b):
            raise RuntimeError("sink down")

        bus.subscribe("#", bad)
        bus.subscribe("#", lambda t, b: seen.append(t))
        count = bus.publish("x", batch())
        assert count == 1  # only the healthy sink delivered
        assert seen == ["x"]
        assert bus.delivery_errors == 1

    def test_error_counters_and_dead_letters(self):
        bus = MessageBus()
        sub = bus.subscribe("#", lambda t, b: 1 / 0)
        bus.publish("x", batch())
        bus.publish("y", batch())
        assert sub.errors == 2
        assert sub.consecutive_errors == 2
        assert "ZeroDivisionError" in sub.last_error
        assert bus.dead_letter_count == 2
        assert [dl.topic for dl in bus.dead_letters] == ["x", "y"]

    def test_quarantine_after_consecutive_failures(self):
        bus = MessageBus(max_consecutive_errors=3)
        sub = bus.subscribe("#", lambda t, b: 1 / 0)
        for _ in range(5):
            bus.publish("x", batch())
        assert sub.quarantined
        assert bus.quarantines == 1
        assert bus.quarantined() == [sub]
        # Quarantined: skipped, so no further errors accumulate.
        assert sub.errors == 3
        assert bus.delivery_errors == 3

    def test_success_resets_consecutive_errors(self):
        bus = MessageBus(max_consecutive_errors=3)
        flaky = {"fail": True}

        def sink(topic, b):
            if flaky["fail"]:
                raise RuntimeError("flaky")

        sub = bus.subscribe("#", sink)
        bus.publish("x", batch())
        bus.publish("x", batch())
        flaky["fail"] = False
        bus.publish("x", batch())
        assert sub.consecutive_errors == 0
        assert not sub.quarantined
        assert sub.errors == 2

    def test_reset_revives_quarantined_subscription(self):
        bus = MessageBus(max_consecutive_errors=1)
        state = {"fail": True}

        def sink(topic, b):
            if state["fail"]:
                raise RuntimeError("down")

        sub = bus.subscribe("#", sink)
        bus.publish("x", batch())
        assert sub.quarantined
        state["fail"] = False
        sub.reset()
        assert bus.publish("x", batch()) == 1
        assert sub.delivered == 1

    def test_replay_dead_letters_after_recovery(self):
        bus = MessageBus(max_consecutive_errors=2)
        delivered = []
        state = {"fail": True}

        def sink(topic, b):
            if state["fail"]:
                raise RuntimeError("down")
            delivered.append((topic, b.time))

        sub = bus.subscribe("#", sink)
        bus.publish("x", batch(t=1.0))
        bus.publish("x", batch(t=2.0))
        assert sub.quarantined and bus.dead_letter_count == 2
        state["fail"] = False
        sub.reset()
        assert bus.replay_dead_letters() == 2
        assert delivered == [("x", 1.0), ("x", 2.0)]
        assert bus.dead_letter_count == 0

    def test_replay_failure_reparks_letter(self):
        bus = MessageBus()
        bus.subscribe("#", lambda t, b: 1 / 0)
        bus.publish("x", batch())
        assert bus.replay_dead_letters() == 0
        assert bus.dead_letter_count == 1

    def test_dead_letter_queue_is_bounded(self):
        bus = MessageBus(max_consecutive_errors=10**9, dead_letter_capacity=4)
        bus.subscribe("#", lambda t, b: 1 / 0)
        for i in range(10):
            bus.publish("x", batch(t=float(i)))
        assert bus.dead_letter_count == 4
        assert bus.dead_letters_evicted == 6
        # Oldest evicted first.
        assert [dl.time for dl in bus.dead_letters] == [6.0, 7.0, 8.0, 9.0]

    def test_health_metrics_snapshot(self):
        bus = MessageBus()
        bus.subscribe("#", lambda t, b: None)
        bus.publish("x", batch())
        metrics = bus.metrics.snapshot()
        assert metrics["telemetry.bus.published"] == 1.0
        assert metrics["telemetry.bus.delivered"] == 1.0
        assert metrics["telemetry.bus.subscriptions"] == 1.0


class TestIndexedRouting:
    def test_repeat_publish_hits_route_cache(self):
        bus = MessageBus()
        bus.subscribe("cluster.*", lambda t, b: None)
        for _ in range(5):
            bus.publish("cluster.rack0", batch())
        assert bus.route_cache_misses == 1
        assert bus.route_cache_hits == 4

    def test_subscribe_invalidates_route_cache(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("x*", lambda t, b: seen.append("first"))
        bus.publish("x", batch())
        bus.subscribe("x*", lambda t, b: seen.append("second"))
        bus.publish("x", batch())
        assert seen == ["first", "first", "second"]

    def test_cancel_respected_through_cached_route(self):
        bus = MessageBus()
        seen = []
        sub = bus.subscribe("x", lambda t, b: seen.append(1))
        bus.publish("x", batch())
        sub.cancel()
        bus.publish("x", batch())
        assert seen == [1]
        assert len(bus._subscriptions) == 0  # compacted opportunistically

    def test_quarantine_respected_through_cached_route(self):
        bus = MessageBus(max_consecutive_errors=1)
        sub = bus.subscribe("x", lambda t, b: 1 / 0)
        bus.publish("x", batch())  # builds cache + quarantines
        bus.publish("x", batch())
        assert sub.quarantined
        assert sub.errors == 1  # second publish skipped the quarantined sink

    def test_reset_revives_through_cached_route(self):
        bus = MessageBus(max_consecutive_errors=1)
        state = {"fail": True}
        seen = []

        def sink(topic, b):
            if state["fail"]:
                raise RuntimeError("down")
            seen.append(topic)

        sub = bus.subscribe("x", sink)
        bus.publish("x", batch())
        assert sub.quarantined
        state["fail"] = False
        sub.reset()
        assert bus.publish("x", batch()) == 1
        assert seen == ["x"]

    def test_route_cache_bounded(self):
        bus = MessageBus(route_cache_capacity=8)
        bus.subscribe("#", lambda t, b: None)
        for i in range(50):
            bus.publish(f"topic.{i}", batch())
        assert len(bus._route_cache) <= 8

    def test_delivery_order_is_subscription_order(self):
        bus = MessageBus()
        order = []
        bus.subscribe("#", lambda t, b: order.append("a"))
        bus.subscribe("x*", lambda t, b: order.append("b"))
        bus.subscribe("#", lambda t, b: order.append("c"))
        bus.publish("x", batch())
        assert order == ["a", "b", "c"]


class TestTopicCardinalityCap:
    def test_overflow_topics_folded(self):
        bus = MessageBus(topic_cardinality_cap=4)
        for i in range(10):
            bus.publish(f"t{i}", batch())
        assert len(bus.topics()) == 4
        assert bus.topic_overflow == 6
        assert bus.topic_count("t0") == 1
        assert bus.topic_count("t9") == 0  # folded, not tracked

    def test_tracked_topic_keeps_counting_past_cap(self):
        bus = MessageBus(topic_cardinality_cap=2)
        bus.publish("a", batch())
        bus.publish("b", batch())
        bus.publish("c", batch())  # overflow
        bus.publish("a", batch())  # still tracked
        assert bus.topic_count("a") == 2
        assert bus.topic_overflow == 1

    def test_cap_exposed_in_health_metrics(self):
        bus = MessageBus(topic_cardinality_cap=7)
        bus.publish("a", batch())
        metrics = bus.metrics.snapshot()
        assert metrics["telemetry.bus.topic_cardinality_cap"] == 7.0
        assert metrics["telemetry.bus.topics_tracked"] == 1.0
        assert metrics["telemetry.bus.topic_overflow"] == 0.0
        assert metrics["telemetry.bus.route_cache_misses"] == 1.0
