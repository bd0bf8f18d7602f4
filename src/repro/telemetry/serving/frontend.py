"""The multi-tenant query-serving front door.

:class:`QueryFrontend` is the piece that faces traffic: callers (tenants)
submit typed queries (:mod:`.query`) and the frontend

1. **plans** each query — running it on the store's own read verbs, which
   on a :class:`~repro.telemetry.distributed.shard.ShardedStore` fan out
   over the owning shards (each consulting its rollup-tier planner) and on
   a single :class:`~repro.telemetry.store.TimeSeriesStore` run in place;
2. **admits** it — per-tenant token buckets, bounded per-tenant/global
   queues, fair round-robin dispatch to a bounded worker pool
   (:mod:`.admission`); over-limit work gets a typed
   :class:`~repro.telemetry.serving.query.RejectedQuery`, never an
   exception;
3. **caches** results keyed on (query, tenant-visibility scope) and
   validated against per-shard ingest watermarks (:mod:`.cache`) — a hit
   is bit-identical to an uncached execution by construction;
4. **measures** everything through a :mod:`repro.obs` registry: per-tenant
   p50/p95/p99 latency histograms, cache hit/miss counters, queue-depth
   and shed gauges, all exposed in Prometheus text.

Failure containment: execution failures that indicate an unhealthy backend
(dead shards, unexpected exceptions) feed a
:class:`~repro.breaker.CircuitBreaker`; an open breaker flips the
frontend into **shed-first mode** where every submission is rejected with
``BREAKER_OPEN`` until a half-open probe succeeds.  The supervisor's
watchdog additionally records sustained queue saturation as breaker
failures (see :meth:`QueryFrontend.watchdog_check`), so a saturated
frontend degrades to shedding instead of queueing unboundedly.
"""

from __future__ import annotations

import fnmatch
import re
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.breaker import BreakerState, CircuitBreaker
from repro.errors import (
    ReproError,
    ServingError,
    ShardDownError,
    UnknownMetricError,
)
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.serving.admission import (
    AdmissionController,
    TenantConfig,
    TenantState,
)
from repro.telemetry.serving.cache import ResultCache, freeze_payload
from repro.telemetry.serving.query import (
    AlignQuery,
    Query,
    QueryResult,
    RejectReason,
    RejectedQuery,
    ServeOutcome,
)

__all__ = ["PendingQuery", "QueryFrontend"]


#: Latency buckets for serving histograms: 50 µs .. 30 s.
LATENCY_BUCKETS: Tuple[float, ...] = (
    5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class PendingQuery:
    """Handle for one submitted query; resolves to a :data:`ServeOutcome`."""

    __slots__ = ("tenant", "query", "submitted_at", "_event", "_outcome")

    def __init__(self, tenant: str, query: Query, submitted_at: float):
        self.tenant = tenant
        self.query = query
        self.submitted_at = submitted_at
        self._event = threading.Event()
        self._outcome: Optional[ServeOutcome] = None

    def _resolve(self, outcome: ServeOutcome) -> None:
        self._outcome = outcome
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServeOutcome:
        if not self._event.wait(timeout):
            raise ServingError(
                f"query for tenant {self.tenant!r} not resolved "
                f"within {timeout}s"
            )
        return self._outcome  # type: ignore[return-value]


class QueryFrontend:
    """Multi-tenant serving front door over a (sharded) telemetry store.

    Parameters
    ----------
    store:
        A :class:`~repro.telemetry.store.TimeSeriesStore` or
        :class:`~repro.telemetry.distributed.shard.ShardedStore` (any
        replication / ``parallel`` tier).
    tenants:
        Optional ``{name: TenantConfig}`` installed up front; unknown
        tenants are auto-created under ``default_config`` on first query.
    max_workers:
        Size of the worker pool — the *global* concurrency bound.  ``0``
        runs no threads: callers drive execution via :meth:`serve` /
        :meth:`pump` inline (deterministic; used by tests and benchmarks
        measuring pure execution cost).
    admission:
        ``False`` disables rate limits and queue bounds (every query is
        admitted and queued unboundedly) — the "no admission control"
        baseline the serving benchmark compares tail latencies against.
    cache:
        ``False`` disables the result cache entirely.
    shed_watermark:
        Fraction of ``global_queue`` occupancy at which new submissions are
        shed outright (and the supervisor watchdog starts counting
        saturation toward the breaker).
    clock:
        Injectable monotonic clock (seconds); defaults to
        :func:`time.perf_counter`.  Drives token buckets, latency
        measurement and the breaker — the frontend runs on wall time, not
        simulation time.
    """

    def __init__(
        self,
        store,
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_config: Optional[TenantConfig] = None,
        max_workers: int = 4,
        global_queue: int = 256,
        admission: bool = True,
        cache: bool = True,
        cache_capacity: int = 512,
        shed_watermark: float = 0.9,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Callable[[], float]] = None,
        name: str = "frontend",
    ):
        if max_workers < 0:
            raise ServingError(f"max_workers must be >= 0, got {max_workers}")
        if not 0.0 < shed_watermark <= 1.0:
            raise ServingError(
                f"shed_watermark must be in (0, 1], got {shed_watermark}"
            )
        self.name = name
        self._store = store
        # A sharded store's read verbs fan out over its shards (each
        # consulting its own rollup planner); both kinds of store share one
        # query surface, so only the cache stamps need to tell them apart.
        self._sharded = store if hasattr(store, "replica_sets") else None
        self._clock = clock or time.perf_counter
        self._admission = AdmissionController(
            default_config=default_config,
            global_queue=global_queue,
            enabled=admission,
        )
        self.shed_watermark = shed_watermark
        self._cache: Optional[ResultCache] = (
            ResultCache(cache_capacity) if cache else None
        )
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, open_timeout_s=1.0, max_open_timeout_s=60.0
        )
        self._reported_transitions = 0
        self._matchers: Dict[Tuple[str, ...], List[Callable]] = {}
        # One lock guards admission state, the dispatch queue and the
        # breaker; execution itself runs outside it.
        self._mu = threading.Lock()
        self._work = threading.Condition(self._mu)
        self._closed = False
        # Counters (all mutated under the lock except cache internals).
        self.queries_offered = 0
        self.queries_admitted = 0
        self.queries_completed = 0
        self.query_errors = 0
        self.saturation_sheds = 0
        self.rejections: Dict[RejectReason, int] = {r: 0 for r in RejectReason}
        self._metrics: Optional[MetricsRegistry] = None
        self._registry_lock = threading.Lock()
        self.max_workers = max_workers
        self._threads: List[threading.Thread] = []
        if tenants:
            now = self._clock()
            for tenant_name, config in tenants.items():
                self._admission.configure(tenant_name, config, now)
                self._tenant_histogram(tenant_name)
        for i in range(max_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{name}-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def configure_tenant(self, tenant: str, config: TenantConfig) -> None:
        with self._mu:
            self._admission.configure(tenant, config, self._clock())
        self._tenant_histogram(tenant)

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        with self._mu:
            return self._admission.stats()

    def _matchers_for(self, config: TenantConfig) -> Optional[List[Callable]]:
        if config.visibility is None:
            return None
        matchers = self._matchers.get(config.visibility)
        if matchers is None:
            matchers = self._matchers[config.visibility] = [
                re.compile(fnmatch.translate(p)).match
                for p in config.visibility
            ]
        return matchers

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, tenant: str, query: Query) -> PendingQuery:
        """Admit-or-reject ``query``; never raises for per-query outcomes.

        The returned handle resolves immediately for rejections and once a
        worker finishes otherwise (with ``max_workers=0``, drive execution
        via :meth:`pump` or use :meth:`serve`).
        """
        now = self._clock()
        pending = PendingQuery(tenant, query, now)
        with self._work:
            state = self._admission.tenant(tenant, now)
            state.offered += 1
            self.queries_offered += 1
            rejection = self._admit_locked(state, query, now)
            if rejection is not None:
                reason, retry_after, message = rejection
                state.rejected[reason] += 1
                self.rejections[reason] += 1
                pending._resolve(RejectedQuery(
                    tenant, query, reason, retry_after, message
                ))
                return pending
            state.admitted += 1
            self.queries_admitted += 1
            self._admission.push(state, (state, pending))
            self._work.notify()
        self._tenant_histogram(tenant)
        return pending

    def _admit_locked(self, state: TenantState, query: Query, now: float):
        if self._closed:
            return (RejectReason.CLOSED, None, "frontend is closed")
        if not self.breaker.allow(now):
            return (
                RejectReason.BREAKER_OPEN, None,
                "frontend breaker is open (shed-first mode)",
            )
        if (
            self._admission.enabled
            and self._admission.queued
            >= self.shed_watermark * self._admission.global_queue
        ):
            self.saturation_sheds += 1
            return (
                RejectReason.SHED, None,
                f"queue at {self._admission.queued}/"
                f"{self._admission.global_queue} (watermark "
                f"{self.shed_watermark:.0%})",
            )
        verdict = self._admission.try_admit(state, now)
        if verdict is not None:
            reason, retry_after = verdict
            return (reason, retry_after, f"admission: {reason.value}")
        return None

    def serve(
        self, tenant: str, query: Query, timeout: Optional[float] = None
    ) -> ServeOutcome:
        """Submit and wait; with no worker pool, executes inline."""
        pending = self.submit(tenant, query)
        if self.max_workers == 0 and not pending.done():
            self.pump()
        return pending.result(timeout)

    def pump(self, max_tasks: Optional[int] = None) -> int:
        """Inline dispatcher for ``max_workers=0``: run queued tasks on the
        calling thread (in fair order) until the queue drains.  Returns the
        number of tasks executed."""
        executed = 0
        while max_tasks is None or executed < max_tasks:
            with self._mu:
                task = self._admission.pop()
            if task is None:
                break
            self._run_task(task)
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._work:
                task = self._admission.pop()
                while task is None:
                    if self._closed:
                        return
                    self._work.wait(0.1)
                    task = self._admission.pop()
            self._run_task(task)

    def _run_task(self, task) -> None:
        state, pending = task
        outcome = self._execute(state, pending)
        with self._work:
            self._admission.task_done(state)
            state.completed += 1
            self.queries_completed += 1
            if not outcome.ok:
                state.errors += 1
                self.query_errors += 1
            # A freed concurrency slot may unblock another tenant's task.
            self._work.notify()
        latency = self._clock() - pending.submitted_at
        outcome.latency_s = latency
        self._observe_latency(state.name, latency)
        pending._resolve(outcome)

    # ------------------------------------------------------------------
    # Planning + execution
    # ------------------------------------------------------------------
    def _execute(self, state: TenantState, pending: PendingQuery) -> QueryResult:
        tenant, query = state.name, pending.query
        config = state.config
        matchers = self._matchers_for(config)
        cacheable = self._cache is not None
        key = (query, config.visibility) if cacheable else None
        now = self._clock()
        try:
            if cacheable:
                shards = self._owning_shards(query)
                pre = self._versions(shards)
                hit = self._cache.get(key, pre)
                if hit is not None:
                    self.breaker.record_success(now)
                    return QueryResult(
                        tenant, query, ok=True, payload=hit, cache_hit=True
                    )
            payload = self._run(query, matchers)
            if cacheable:
                payload = freeze_payload(payload)
                # Only cache when no ingest raced the execution — otherwise
                # the payload may mix pre- and post-write state and would
                # not be bit-identical to a fresh execution at `post`.
                post = self._versions(shards)
                if post == pre:
                    self._cache.put(key, pre, payload)
            self.breaker.record_success(self._clock())
            return QueryResult(tenant, query, ok=True, payload=payload)
        except UnknownMetricError as exc:
            # Domain error (includes invisible-to-tenant): caller's problem,
            # not a backend health signal.
            return QueryResult(tenant, query, ok=False, error=str(exc))
        except ShardDownError as exc:
            self.breaker.record_failure(self._clock(), "shard down")
            return QueryResult(tenant, query, ok=False, error=str(exc))
        except ReproError as exc:
            # Bad arguments, store-level validation: domain error.
            return QueryResult(tenant, query, ok=False, error=str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self.breaker.record_failure(self._clock(), type(exc).__name__)
            return QueryResult(
                tenant, query, ok=False,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _run(self, query: Query, matchers: Optional[List[Callable]]):
        store = self._store
        kind = query.kind
        if kind == "names":
            return tuple(self._filter_names(store.names(), matchers))
        if kind == "select":
            return tuple(self._filter_names(store.select(query.pattern), matchers))
        if kind == "range":
            self._check_visible(query.name, matchers)
            times, values = store.query(query.name, query.since, query.until)
            return (times, values)
        if kind == "resample":
            self._check_visible(query.name, matchers)
            return store.resample(
                query.name, query.since, query.until, query.step,
                agg=query.agg,
            )
        if kind == "align":
            names = self._resolve_align_names(query, matchers)
            grid, matrix = store.align(
                names, query.since, query.until, query.step,
                agg=query.agg, fill=query.fill,
            )
            return (grid, matrix, names)
        raise ServingError(f"unknown query kind {kind!r}")

    def _resolve_align_names(
        self, query: AlignQuery, matchers: Optional[List[Callable]]
    ) -> Tuple[str, ...]:
        if query.pattern is not None:
            return tuple(
                self._filter_names(self._store.select(query.pattern), matchers)
            )
        for name in query.names:
            self._check_visible(name, matchers)
        return query.names

    @staticmethod
    def _filter_names(
        names: List[str], matchers: Optional[List[Callable]]
    ) -> List[str]:
        if matchers is None:
            return names
        return [n for n in names if any(m(n) for m in matchers)]

    @staticmethod
    def _check_visible(name: str, matchers: Optional[List[Callable]]) -> None:
        # An invisible series is indistinguishable from an absent one —
        # tenants cannot probe for other tenants' series names.
        if matchers is not None and not any(m(name) for m in matchers):
            raise UnknownMetricError(name)

    # ------------------------------------------------------------------
    # Watermarks
    # ------------------------------------------------------------------
    def _owning_shards(self, query: Query) -> Tuple[int, ...]:
        """Shards whose content the query can read (cache-stamp scope)."""
        if self._sharded is None:
            return (0,)
        if query.kind in ("range", "resample"):
            return (self._sharded.shard_of(query.name),)
        if query.kind == "align" and query.pattern is None and query.names:
            return tuple(sorted(
                {self._sharded.shard_of(n) for n in query.names}
            ))
        # Catalog queries and pattern-aligns fan out everywhere.
        return tuple(range(self._sharded.shards))

    def _versions(self, shards: Tuple[int, ...]) -> Tuple:
        """Current ``(shard, member, *stamp)`` tuple per involved shard.

        The serving member index is part of the stamp, so a failover to a
        replica — even one holding identical data — invalidates cached
        entries (the replica may legitimately have missed writes).
        """
        if self._sharded is None:
            return ((0, 0) + self._store.version_stamp(),)
        out = []
        for shard in shards:
            rs = self._sharded.replica_sets[shard]
            store = rs.read_store()
            member = rs.members.index(store)
            out.append((shard, member) + tuple(store.version_stamp()))
        return tuple(out)

    # ------------------------------------------------------------------
    # Supervision surface
    # ------------------------------------------------------------------
    @property
    def shedding(self) -> bool:
        """True when the breaker has the frontend in shed-first mode."""
        return self.breaker.state is not BreakerState.CLOSED

    def watchdog_check(self) -> List[Tuple[str, dict]]:
        """Called by the supervisor's watchdog tick.

        Records sustained queue saturation as a breaker failure (a
        saturated frontend should degrade to shedding, not queue without
        bound) and returns new events — saturation episodes and breaker
        transitions since the last check — for the site trace.
        """
        events: List[Tuple[str, dict]] = []
        with self._mu:
            depth = self._admission.queued
            capacity = self._admission.global_queue
            if (
                self._admission.enabled
                and depth >= self.shed_watermark * capacity
            ):
                opened = self.breaker.record_failure(
                    self._clock(), "saturated"
                )
                events.append((
                    "saturated",
                    {"depth": depth, "capacity": capacity, "opened": opened},
                ))
            transitions = getattr(self.breaker, "transitions", [])
            for tr in transitions[self._reported_transitions:]:
                events.append((
                    "breaker_transition",
                    {
                        "from": tr.from_state.value,
                        "to": tr.to_state.value,
                        "reason": tr.reason,
                    },
                ))
            self._reported_transitions = len(transitions)
        return events

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _tenant_histogram(self, tenant: str):
        registry = self.metrics
        # get-or-create mutates the registry dict; serialize it so two
        # submitter threads cannot race one tenant's first query.
        with self._registry_lock:
            return registry.histogram(
                f"telemetry.serving.tenant.{tenant}.latency",
                buckets=LATENCY_BUCKETS,
                description=f"query latency for tenant {tenant}",
                threadsafe=True,
            )

    def _observe_latency(self, tenant: str, latency: float) -> None:
        self.metrics.get("telemetry.serving.latency").observe(latency)
        self._tenant_histogram(tenant).observe(latency)

    @property
    def metrics(self) -> MetricsRegistry:
        """Typed instruments on the ``telemetry.serving.*`` subtree."""
        with self._registry_lock:
            if self._metrics is None:
                r = MetricsRegistry()
                r.histogram("telemetry.serving.latency",
                            buckets=LATENCY_BUCKETS,
                            description="end-to-end query latency (all tenants)",
                            threadsafe=True)
                r.counter("telemetry.serving.queries", "queries offered",
                          fn=lambda: float(self.queries_offered))
                r.counter("telemetry.serving.admitted", "queries admitted",
                          fn=lambda: float(self.queries_admitted))
                r.counter("telemetry.serving.completed", "queries completed",
                          fn=lambda: float(self.queries_completed))
                r.counter("telemetry.serving.errors",
                          "admitted queries that returned an error",
                          fn=lambda: float(self.query_errors))
                for reason in RejectReason:
                    r.counter(
                        f"telemetry.serving.rejected.{reason.value}",
                        f"queries rejected: {reason.value}",
                        fn=(lambda rr=reason: float(self.rejections[rr])),
                    )
                r.counter("telemetry.serving.saturation_sheds",
                          "submissions shed at the queue watermark",
                          fn=lambda: float(self.saturation_sheds))
                r.gauge("telemetry.serving.queue_depth", "queries queued",
                        fn=lambda: float(self._admission.queued))
                r.gauge("telemetry.serving.inflight", "queries executing",
                        fn=lambda: float(self._admission.inflight()))
                r.gauge("telemetry.serving.tenants", "tenants seen",
                        fn=lambda: float(len(self._admission.tenants)))
                r.gauge("telemetry.serving.workers", "worker pool size",
                        fn=lambda: float(self.max_workers))
                r.gauge("telemetry.serving.shedding",
                        "1 when the breaker has serving in shed-first mode",
                        fn=lambda: float(self.shedding))
                r.counter("telemetry.serving.breaker_opens",
                          "times the frontend breaker opened",
                          fn=lambda: float(self.breaker.opens))
                if self._cache is not None:
                    c = self._cache
                    r.counter("telemetry.serving.cache.hits", "cache hits",
                              fn=lambda: float(c.hits))
                    r.counter("telemetry.serving.cache.misses", "cache misses",
                              fn=lambda: float(c.misses))
                    r.counter("telemetry.serving.cache.invalidations",
                              "entries dropped on watermark mismatch",
                              fn=lambda: float(c.invalidations))
                    r.counter("telemetry.serving.cache.evictions",
                              "entries evicted by LRU capacity",
                              fn=lambda: float(c.evictions))
                    r.gauge("telemetry.serving.cache.entries", "entries held",
                            fn=lambda: float(len(c)))
                self._metrics = r
            return self._metrics

    def cache_stats(self) -> dict:
        return self._cache.stats() if self._cache is not None else {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker pool; queued tasks resolve as ``CLOSED``."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            drained = []
            for state in self._admission.tenants.values():
                while state.queue:
                    drained.append(state.queue.popleft())
                    self._admission.queued -= 1
                    state.rejected[RejectReason.CLOSED] += 1
                    self.rejections[RejectReason.CLOSED] += 1
            self._work.notify_all()
        for state, pending in drained:
            pending._resolve(RejectedQuery(
                state.name, pending.query, RejectReason.CLOSED,
                None, "frontend closed before execution",
            ))
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
