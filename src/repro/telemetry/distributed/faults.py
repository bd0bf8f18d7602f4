"""Shard-level fault injection for the distributed storage tier.

The storage-tier counterpart of the PR-1 sensor fault machinery
(:mod:`repro.telemetry.faults`): where ``FaultySource`` corrupts what goes
*into* the pipeline, :class:`ShardFault` kills and revives the backends
the pipeline writes to, and crashes their worker processes — the failure
modes the replication/failover and worker-restart paths exist for.
Faults can be applied immediately or scheduled on the discrete-event
simulator so a shard dies (and optionally recovers) mid-run while
collection continues.

Every action is recorded as a :class:`ShardFaultEvent` (ground truth for
tests and benchmarks) and, when a bus is attached, announced as a one-sample
batch on the ``telemetry.shard.fault`` topic so fault timing lands in the
store next to the ``telemetry.shard.*`` health counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.simulation.engine import Simulator
from repro.telemetry.bus import MessageBus
from repro.telemetry.distributed.shard import ShardedStore
from repro.telemetry.sample import SampleBatch

__all__ = ["ShardFaultKind", "ShardFaultEvent", "ShardFault", "FAULT_TOPIC"]

#: Bus topic fault announcements are published on.
FAULT_TOPIC = "telemetry.shard.fault"


class ShardFaultKind(Enum):
    """Storage-backend pathologies."""

    KILL = "kill"        # member offline: misses writes, reads fail over
    REVIVE = "revive"    # member back (optionally resynced with its peers)
    WORKER_CRASH = "worker_crash"  # parallel runtime: shard process dies


@dataclass(frozen=True)
class ShardFaultEvent:
    """One applied fault action (ground truth for evaluation)."""

    time: float
    shard: int
    member: int
    kind: ShardFaultKind


class ShardFault:
    """Kill/revive members (and crash workers) of a :class:`ShardedStore`.

    ::

        fault = ShardFault(store, bus=telemetry.bus)
        fault.schedule_kill(sim, at=1800.0, shard=2)          # dies mid-run
        fault.schedule_revive(sim, at=3600.0, shard=2)        # resynced return
    """

    def __init__(self, store: ShardedStore, bus: Optional[MessageBus] = None):
        self.store = store
        self.bus = bus
        self.events: List[ShardFaultEvent] = []
        self.counts: Dict[ShardFaultKind, int] = {k: 0 for k in ShardFaultKind}

    def _check_target(self, shard: int, member: int) -> None:
        if not 0 <= shard < self.store.shards:
            raise ConfigurationError(
                f"no shard {shard} (store has {self.store.shards})"
            )
        members = len(self.store.replica_sets[shard].members)
        if not 0 <= member < members:
            raise ConfigurationError(
                f"shard {shard} has no member {member} ({members} members)"
            )

    def _record(
        self, now: float, shard: int, member: int, kind: ShardFaultKind
    ) -> None:
        self.events.append(ShardFaultEvent(now, shard, member, kind))
        self.counts[kind] += 1
        if self.bus is not None:
            self.bus.publish(
                FAULT_TOPIC,
                SampleBatch.from_mapping(
                    now, {f"telemetry.shard.{shard}.{kind.value}": float(member)}
                ),
            )

    # ------------------------------------------------------------------
    # Immediate actions
    # ------------------------------------------------------------------
    def kill(self, shard: int, member: int = 0, now: float = 0.0) -> None:
        """Take one member down (default: the shard's primary)."""
        self._check_target(shard, member)
        self.store.replica_sets[shard].mark_down(member)
        self._record(now, shard, member, ShardFaultKind.KILL)

    def revive(
        self,
        shard: int,
        member: int = 0,
        resync: bool = True,
        now: float = 0.0,
    ) -> None:
        """Bring a member back, by default resynced: rebuilt from the merge
        of its own and its healthy peers' samples."""
        self._check_target(shard, member)
        self.store.replica_sets[shard].revive(member, resync=resync)
        self._record(now, shard, member, ShardFaultKind.REVIVE)

    def crash_worker(self, shard: int, now: float = 0.0) -> None:
        """Kill a shard's *worker process* (parallel runtime only).

        Unlike :meth:`kill` — which models a storage member going offline
        while the process keeps running — this makes the whole shard
        worker die abruptly (no flush, no ack), exercising crash
        detection, restart and ring replay in
        :class:`~repro.telemetry.runtime.ParallelShardRuntime`.
        """
        if self.store.runtime is None:
            raise ConfigurationError(
                "crash_worker requires a parallel ShardedStore "
                "(parallel=True)"
            )
        if not 0 <= shard < self.store.shards:
            raise ConfigurationError(
                f"no shard {shard} (store has {self.store.shards})"
            )
        self.store.runtime.crash_worker(shard)
        self._record(now, shard, -1, ShardFaultKind.WORKER_CRASH)

    # ------------------------------------------------------------------
    # Scheduled (mid-run) actions
    # ------------------------------------------------------------------
    def schedule_kill(
        self, sim: Simulator, at: float, shard: int, member: int = 0
    ) -> None:
        """Kill a member at absolute simulation time ``at``."""
        self._check_target(shard, member)
        sim.schedule_at(
            at,
            lambda s: self.kill(shard, member, now=s.now),
            label=f"shardfault:kill:{shard}.{member}",
        )

    def schedule_revive(
        self,
        sim: Simulator,
        at: float,
        shard: int,
        member: int = 0,
        resync: bool = True,
    ) -> None:
        """Revive a member at absolute simulation time ``at``."""
        self._check_target(shard, member)
        sim.schedule_at(
            at,
            lambda s: self.revive(shard, member, resync=resync, now=s.now),
            label=f"shardfault:revive:{shard}.{member}",
        )
