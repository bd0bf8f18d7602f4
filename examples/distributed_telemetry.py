#!/usr/bin/env python
"""Distributed telemetry storage: sharding, replication, mid-run failover.

Production monitoring stacks (DCDB, LDMS) are *distributed*: telemetry is
hash-partitioned across storage backends, each partition replicated, and a
federated front-end answers queries without callers knowing where data
lives.  This example runs a simulated HPC site on exactly that tier:

* the site archives telemetry in 4 hash-partitioned shards x 2 copies,
* one shard's primary is killed mid-run — collection continues, writes
  keep landing on the replica, reads fail over transparently,
* the dead primary is revived and resynced: rebuilt from the merge of its
  own samples and its replica's,
* federated queries (``query``/``align``/``select``) return bit-for-bit
  what one monolithic store would, throughout,
* the whole deployment round-trips to disk (manifest + per-shard files).

Run:  python examples/distributed_telemetry.py
"""

from __future__ import annotations

import os
import tempfile

from repro.oda import DataCenter
from repro.telemetry import ShardedStore, load_store, save_store

SHARDS = 4
KILL_AT = 3 * 3600.0      # primary of one shard dies 3 h in
REVIVE_AT = 6 * 3600.0    # and is revived (resynced) at 6 h
RUN_HOURS = 9.0


def main() -> None:
    print("=== 1. A site archiving telemetry in "
          f"{SHARDS} shards x 2 copies ===")
    dc = DataCenter(seed=42, racks=2, nodes_per_rack=8,
                    shards=SHARDS, replication=1, health_period=300.0)
    dc.generate_workload(days=RUN_HOURS / 24.0, jobs_per_day=48)

    victim = dc.store.shard_of("facility.pue")
    fault = dc.shard_fault()
    fault.schedule_kill(dc.sim, at=KILL_AT, shard=victim)
    fault.schedule_revive(dc.sim, at=REVIVE_AT, shard=victim)
    print(f"  facility.pue lives on shard {victim}; its primary dies at "
          f"t={KILL_AT / 3600.0:.0f}h and returns at t={REVIVE_AT / 3600.0:.0f}h\n")

    print("=== 2. Run through the failure ===")
    dc.run(seconds=RUN_HOURS * 3600.0)
    times, pue = dc.store.query("facility.pue")
    covered = times[-1] - times[0]
    print(f"  {len(dc.store.names())} series collected; facility.pue has "
          f"{times.size} samples spanning {covered / 3600.0:.1f}h —")
    print("  no gap across the kill window: reads failed over to the "
          "replica, which kept every write\n")

    print("=== 3. What the shard tier absorbed ===")
    rs = dc.store.replica_sets[victim]
    health = dc.telemetry.health.snapshot()
    print(f"  fault events: {[(e.time, e.kind.value) for e in fault.events]}")
    print(f"  samples the revived primary lacks: {rs.missed_writes[0]} "
          "(a resync merges its own samples with its peer's)")
    print(f"  failover reads served by replicas: "
          f"{int(health['telemetry.shard.failover_reads'])}")
    per_shard = [int(health[f"telemetry.shard.{i}.series"])
                 for i in range(SHARDS)]
    print(f"  series per shard (hash balance): {per_shard}\n")

    print("=== 4. Federated queries, unchanged API ===")
    rack_metrics = dc.store.select("cluster.rack0.*")[:4]
    grid, matrix = dc.store.align(rack_metrics, 0.0, dc.sim.now, 300.0)
    print(f"  align({len(rack_metrics)} series across {SHARDS} shards) -> "
          f"matrix {matrix.shape}, one shared bucket grid")
    _, shard_down = dc.store.query("telemetry.shard.down_members")
    print(f"  self-metrics saw the outage: max down_members = "
          f"{int(shard_down.max())}\n")

    print("=== 5. Persist and reload the whole deployment ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "site.npz")
        count = save_store(dc.store, path)
        files = sorted(os.listdir(tmp))
        loaded = load_store(path)
        assert isinstance(loaded, ShardedStore)
        t2, _ = loaded.query("facility.pue")
        print(f"  archived {count} series as {files}")
        print(f"  reloaded: {loaded.shards} shards, replication "
              f"{loaded.replication}, facility.pue intact "
              f"({t2.size} samples)")


if __name__ == "__main__":
    main()
