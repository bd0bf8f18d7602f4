"""Command-line interface: ``python -m repro <command>``.

Commands map to the library's main entry points so operators can use the
framework without writing code:

* ``survey``    — regenerate Table I, Figures 1-3 and the survey analysis.
* ``classify``  — map a free-text ODA capability description onto the grid.
* ``roadmap``   — staged recommendations from a list of covered cells.
* ``simulate``  — run the synthetic data center, print KPIs, optionally
  archive the telemetry store to ``.npz``.
* ``replay``    — policy what-if comparison on a synthetic trace.
* ``obs``       — run an instrumented simulation and export observability
  artifacts: a per-operation profile, Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto), span JSONL and a Prometheus snapshot.
* ``chaos``     — run a seeded chaos campaign against a supervised site
  (controller crashes, facility outage, node faults, shard kill) and
  write the resilience scorecard (MTTD/MTTR per fault) as JSON.
* ``serve``     — replay a seeded heavy-tailed multi-tenant query workload
  through the serving front door and print the serving scorecard
  (per-tenant admission stats, cache hit ratio, latency percentiles).
* ``durability`` — kill / corrupt / recover drill against a journaled
  parallel sharded store: crash every shard worker mid-ingest, tear a
  journal tail, bit-flip and truncate persisted archives, then verify
  zero acked-sample loss and zero silently-wrong reads against a shadow
  reference; writes a durability scorecard as JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC Operational Data Analytics framework and platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("survey", help="regenerate Table I, Figures 1-3 and the analysis")

    classify = sub.add_parser("classify", help="classify an ODA description onto the grid")
    classify.add_argument("description", nargs="+", help="free-text capability description")

    roadmap = sub.add_parser("roadmap", help="staged roadmap from covered cells")
    roadmap.add_argument(
        "--covered", nargs="*", default=[],
        help="covered cells as type:pillar (e.g. descriptive:system_hardware)",
    )
    roadmap.add_argument("--horizon", type=int, default=8)

    simulate = sub.add_parser("simulate", help="run the synthetic data center")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--racks", type=int, default=2)
    simulate.add_argument("--nodes-per-rack", type=int, default=8)
    simulate.add_argument("--days", type=float, default=1.0)
    simulate.add_argument("--jobs-per-day", type=float, default=24.0)
    simulate.add_argument("--faults", action="store_true")
    simulate.add_argument("--shards", type=int, default=None, metavar="N",
                          help="archive telemetry in N hash-partitioned "
                               "store shards")
    simulate.add_argument("--replication", type=int, default=0, metavar="R",
                          help="extra replicas per shard (requires --shards)")
    simulate.add_argument("--parallel", action="store_true",
                          help="run each shard's replica set in its own "
                               "worker process fed by shared-memory ring "
                               "buffers (requires --shards)")
    simulate.add_argument("--rollups", action="store_true",
                          help="maintain materialized downsample tiers "
                               "(10s/1m/5m/1h mean-min-max-sum-count) at ingest "
                               "so long resample/align queries are served "
                               "pre-aggregated")
    simulate.add_argument("--archive", action="store_true",
                          help="demote raw samples past retention into an "
                               "immutable compressed columnar cold tier "
                               "instead of deleting them")
    simulate.add_argument("--retention", type=float, default=None,
                          metavar="SECONDS",
                          help="hot-tier retention window (with --archive, "
                               "expired samples are demoted, not dropped)")
    simulate.add_argument("--save-store", metavar="PATH.npz",
                          help="archive the telemetry store (a sharded run "
                               "writes a manifest plus one file per shard)")

    replay = sub.add_parser("replay", help="compare scheduling policies on a trace")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--days", type=float, default=1.0)
    replay.add_argument("--jobs-per-day", type=float, default=24.0)
    replay.add_argument("--racks", type=int, default=2)
    replay.add_argument("--nodes-per-rack", type=int, default=8)

    obs = sub.add_parser(
        "obs", help="trace + profile an instrumented simulation run"
    )
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--racks", type=int, default=2)
    obs.add_argument("--nodes-per-rack", type=int, default=4)
    obs.add_argument("--hours", type=float, default=2.0)
    obs.add_argument("--jobs-per-day", type=float, default=24.0)
    obs.add_argument("--shards", type=int, default=2, metavar="N",
                     help="telemetry shards (0 = single store)")
    obs.add_argument("--replication", type=int, default=0, metavar="R")
    obs.add_argument("--trace-capacity", type=int, default=65536,
                     help="span ring-buffer bound")
    obs.add_argument("--out", default="obs-artifacts", metavar="DIR",
                     help="directory for trace.json / spans.jsonl / "
                          "metrics.prom")

    chaos = sub.add_parser(
        "chaos", help="run a seeded chaos campaign against a supervised site"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--racks", type=int, default=2)
    chaos.add_argument("--nodes-per-rack", type=int, default=8)
    chaos.add_argument("--days", type=float, default=1.0)
    chaos.add_argument("--jobs-per-day", type=float, default=24.0)
    chaos.add_argument("--shards", type=int, default=2, metavar="N",
                       help="telemetry shards (0 = single store, "
                            "disables the shard-kill fault)")
    chaos.add_argument("--replication", type=int, default=1, metavar="R")
    chaos.add_argument("--out", default="chaos-scorecard.json",
                       metavar="PATH.json",
                       help="where to write the resilience scorecard")

    serve = sub.add_parser(
        "serve",
        help="replay a heavy-tailed multi-tenant query workload through "
             "the serving front door",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--racks", type=int, default=2)
    serve.add_argument("--nodes-per-rack", type=int, default=8)
    serve.add_argument("--hours", type=float, default=4.0,
                       help="simulated hours of telemetry to collect "
                            "before serving")
    serve.add_argument("--jobs-per-day", type=float, default=24.0)
    serve.add_argument("--shards", type=int, default=2, metavar="N",
                       help="telemetry shards (0 = single store)")
    serve.add_argument("--replication", type=int, default=0, metavar="R")
    serve.add_argument("--tenants", type=int, default=6)
    serve.add_argument("--queries", type=int, default=400,
                       help="workload length (Zipf tenants, Zipf hot "
                            "pool, Pareto windows)")
    serve.add_argument("--hot-fraction", type=float, default=0.6,
                       help="fraction of queries re-issuing a hot-pool "
                            "canonical query")
    serve.add_argument("--rate", type=float, default=200.0,
                       help="per-tenant token-bucket rate, queries/s")
    serve.add_argument("--workers", type=int, default=4,
                       help="frontend worker threads (0 = inline)")
    serve.add_argument("--submitters", type=int, default=4,
                       help="concurrent client threads")
    serve.add_argument("--no-admission", action="store_true",
                       help="disable admission control (compare tails)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--out", default=None, metavar="PATH.json",
                       help="also write the serving scorecard as JSON")

    durability = sub.add_parser(
        "durability",
        help="kill/corrupt/recover drill against a journaled store",
    )
    durability.add_argument("--seed", type=int, default=0)
    durability.add_argument("--shards", type=int, default=2, metavar="N")
    durability.add_argument("--replication", type=int, default=1, metavar="R")
    durability.add_argument("--series", type=int, default=24,
                            help="synthetic series count")
    durability.add_argument("--batches", type=int, default=160,
                            help="ingest batches per phase")
    durability.add_argument("--workdir", default=None, metavar="DIR",
                            help="journal + archive directory "
                                 "(default: a fresh temp dir, removed "
                                 "afterwards)")
    durability.add_argument("--out", default="durability-scorecard.json",
                            metavar="PATH.json",
                            help="where to write the durability scorecard")
    return parser


def _cmd_survey() -> int:
    from repro.analytics.descriptive import table
    from repro.core import (
        analyze_survey, figure3_systems, render_fig1, render_fig2,
        render_fig3, render_occupancy, render_table1, survey_grid,
    )

    grid = survey_grid()
    print(render_fig1())
    print()
    print(render_fig2())
    print()
    print(render_table1(grid))
    print()
    print(render_occupancy(grid))
    print()
    print(render_fig3(figure3_systems()))
    print()
    print(table(analyze_survey(grid).rows(), title="Survey statistics"))
    return 0


def _cmd_classify(words: List[str]) -> int:
    from repro.core import UseCaseClassifier
    from repro.errors import ClassificationError

    text = " ".join(words)
    try:
        print(UseCaseClassifier().explain(text))
    except ClassificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_roadmap(covered: List[str], horizon: int) -> int:
    from repro.core import AnalyticsType, GridCell, Pillar, plan_roadmap

    cells = []
    for item in covered:
        try:
            type_name, pillar_name = item.split(":")
            cells.append(GridCell(AnalyticsType(type_name), Pillar(pillar_name)))
        except (ValueError, KeyError):
            print(f"error: bad cell spec {item!r} (want type:pillar)", file=sys.stderr)
            return 1
    for step in plan_roadmap(cells, horizon=horizon):
        print(f"{step.priority}. {step.cell.label}")
        print(f"   {step.rationale}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analytics.descriptive import table
    from repro.oda import DataCenter, collect_kpis
    from repro.telemetry import save_store

    if args.parallel and args.shards is None:
        print("error: --parallel requires --shards", file=sys.stderr)
        return 1
    dc = DataCenter(
        seed=args.seed, racks=args.racks, nodes_per_rack=args.nodes_per_rack,
        enable_faults=args.faults, shards=args.shards,
        replication=args.replication, parallel=args.parallel,
        rollups=args.rollups, archive=args.archive,
        store_retention=args.retention,
    )
    try:
        requests = dc.generate_workload(
            days=args.days, jobs_per_day=args.jobs_per_day
        )
        print(f"simulating {args.days} days, {len(requests)} submissions ...")
        dc.run(days=args.days)
        kpis = collect_kpis(dc)
        print(table(kpis.rows(), title="Run KPIs"))
        if args.shards is not None:
            per_shard = [
                int(rs.metrics.snapshot()[f"telemetry.shard.{rs.shard_id}.series"])
                for rs in dc.store.replica_sets
            ]
            print(
                f"sharded store: {args.shards} shards x "
                f"{args.replication + 1} copies, series per shard {per_shard}"
            )
        if args.parallel:
            runtime = dc.store.runtime
            print(
                f"parallel runtime: {args.shards} shard workers, "
                f"{runtime.pushed_batches} batches pushed "
                f"({runtime.pushed_slots} ring slots), "
                f"{runtime.backpressure_waits} backpressure waits, "
                f"{runtime.dropped_batches} dropped, "
                f"{runtime.worker_crashes} crashes"
            )
        if args.rollups or args.archive:
            # Tier stats live on the member stores; worker-process members
            # keep them in-process, so report what is directly reachable.
            if args.shards is None:
                stores = [dc.store]
            elif not args.parallel:
                stores = [rs.read_store() for rs in dc.store.replica_sets]
            else:
                stores = []
            if stores and args.rollups:
                print(
                    "rollups: "
                    f"{sum(s.rollups.buckets_finalized for s in stores)} "
                    "buckets materialized, "
                    f"{sum(s.rollups.tier_hits for s in stores)} queries "
                    "served entirely from tiers"
                )
            if stores and args.archive:
                encoded = sum(s.archive.encoded_bytes for s in stores)
                raw = sum(s.archive.raw_bytes for s in stores)
                ratio = (f"{raw / encoded:.1f}x compression" if encoded
                         else "nothing demoted yet")
                print(
                    "cold tier: "
                    f"{sum(s.archive.chunk_count() for s in stores)} chunks, "
                    f"{sum(s.archive.samples() for s in stores)} samples, "
                    f"{ratio}"
                )
        if args.save_store:
            count = save_store(dc.store, args.save_store)
            print(f"archived {count} series to {args.save_store}")
    finally:
        # Graceful drain: workers apply + flush everything pushed, then exit.
        dc.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.analytics.prescriptive import CoolingAwarePolicy, PowerAwarePolicy
    from repro.apps import WorkloadGenerator
    from repro.software import EasyBackfillPolicy, FcfsPolicy, compare_policies

    generator = WorkloadGenerator(
        np.random.default_rng(args.seed), jobs_per_day=args.jobs_per_day,
        max_nodes=args.racks * args.nodes_per_rack,
    )
    requests = generator.generate(0.0, args.days * 86_400.0)
    print(f"replaying {len(requests)} submissions under 4 policies ...")
    results = compare_policies(
        requests,
        {
            "fcfs": FcfsPolicy(),
            "easy_backfill": EasyBackfillPolicy(),
            "power_aware": PowerAwarePolicy(
                power_cap_w=args.racks * args.nodes_per_rack * 300.0
            ),
            "cooling_aware": CoolingAwarePolicy(),
        },
        racks=args.racks,
        nodes_per_rack=args.nodes_per_rack,
    )
    for result in results:
        print("  " + ", ".join(f"{k}={v}" for k, v in result.rows()))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import os

    from repro.obs import OBS
    from repro.oda import DataCenter
    from repro.oda.pipeline import DerivedMetricStage
    from repro.telemetry.export import (
        write_chrome_trace,
        write_prometheus,
        write_spans_jsonl,
    )

    hours = args.hours
    shards = args.shards if args.shards and args.shards > 0 else None
    OBS.reset(trace_capacity=args.trace_capacity)
    OBS.enable()
    try:
        dc = DataCenter(
            seed=args.seed, racks=args.racks,
            nodes_per_rack=args.nodes_per_rack, shards=shards,
            replication=args.replication, health_period=600.0,
        )
        DerivedMetricStage(
            dc.telemetry.bus, "facility", "derived.pue",
            inputs=("facility.power.site_power", "facility.power.it_power"),
            compute=lambda v: {
                "derived.pue": v["facility.power.site_power"]
                / max(v["facility.power.it_power"], 1.0)
            },
        )
        requests = dc.generate_workload(
            days=hours / 24.0, jobs_per_day=args.jobs_per_day
        )
        print(
            f"tracing {hours:g} simulated hours "
            f"({len(requests)} submissions, "
            f"shards={shards or 1}x{args.replication + 1}) ..."
        )
        dc.run(seconds=hours * 3600.0)
        # Exercise the federated read path so query spans appear too.
        names = dc.store.select("cluster.*")[:8] or dc.store.names()[:8]
        if names:
            dc.store.align(names, 0.0, hours * 3600.0, 300.0)

        tracer = OBS.tracer
        print(
            f"spans: {tracer.finished} finished, "
            f"{tracer.dropped} evicted (capacity {tracer.capacity})"
        )
        header = (
            f"{'span':<24}{'count':>8}{'total_s':>10}{'mean_us':>10}"
            f"{'p95_us':>10}{'p99_us':>10}{'errors':>8}"
        )
        print(header)
        print("-" * len(header))
        for name, row in OBS.report().items():
            print(
                f"{name:<24}{int(row['count']):>8}"
                f"{row['total_s']:>10.4f}"
                f"{row.get('mean_s', 0.0) * 1e6:>10.1f}"
                f"{row.get('p95_s', 0.0) * 1e6:>10.1f}"
                f"{row.get('p99_s', 0.0) * 1e6:>10.1f}"
                f"{int(row['errors']):>8}"
            )

        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, "trace.json")
        spans_path = os.path.join(args.out, "spans.jsonl")
        prom_path = os.path.join(args.out, "metrics.prom")
        events = write_chrome_trace(trace_path, tracer)
        write_spans_jsonl(spans_path, tracer)
        write_prometheus(prom_path, dc.telemetry.prometheus())
        print(
            f"wrote {events} trace events to {trace_path} "
            f"(open in chrome://tracing or Perfetto), spans to "
            f"{spans_path}, metrics to {prom_path}"
        )
    finally:
        OBS.disable()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.facility.weather import DAY
    from repro.oda import ChaosEngine, DataCenter, MultiPillarOrchestrator
    from repro.oda.chaos import standard_campaign

    shards = args.shards if args.shards and args.shards > 0 else None
    dc = DataCenter(
        seed=args.seed, racks=args.racks, nodes_per_rack=args.nodes_per_rack,
        shards=shards, replication=args.replication if shards else 0,
        health_period=300.0,
    )
    dc.enable_supervision()
    orchestrator = MultiPillarOrchestrator(dc)
    orchestrator.attach()  # auto-supervised: the site has a supervisor

    horizon = args.days * DAY
    campaign = standard_campaign(
        seed=args.seed, horizon_s=horizon, shards=shards is not None,
    )
    engine = ChaosEngine(dc)
    engine.schedule(campaign)
    requests = dc.generate_workload(days=args.days, jobs_per_day=args.jobs_per_day)
    print(
        f"chaos campaign {campaign.name!r}: {len(campaign.faults)} faults "
        f"over {args.days:g} days ({len(requests)} submissions) ..."
    )
    dc.run(days=args.days)

    card = engine.write_scorecard(campaign, args.out)
    totals = card["totals"]
    fmt = lambda v: "n/a" if v is None else f"{v:.0f}s"  # noqa: E731
    for row in card["faults"]:
        print(
            f"  {row['pillar']:<10} {row['target']:<12} {row['mode']:<12} "
            f"mttd={fmt(row['mttd_s'])} mttr={fmt(row['mttr_s'])} "
            f"actions_during={row['actions_during_fault']}"
        )
    print(
        f"detected {totals['detected']}/{totals['faults']}, "
        f"recovered {totals['recovered']}/{totals['faults']}, "
        f"mean MTTD {fmt(totals['mean_mttd_s'])}, "
        f"mean MTTR {fmt(totals['mean_mttr_s'])}, "
        f"safe-state entries {totals.get('safe_state_entries', 0)}, "
        f"breaker opens/closes {totals.get('breaker_opens', 0)}"
        f"/{totals.get('breaker_closes', 0)}"
    )
    print(f"scorecard written to {args.out}")
    return 0 if totals["unrecovered"] == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.ioutil import atomic_write_json
    from repro.oda import DataCenter
    from repro.telemetry.serving import (
        WorkloadSpec, heavy_tailed_workload, replay, tenant_configs,
    )

    shards = args.shards if args.shards and args.shards > 0 else None
    dc = DataCenter(
        seed=args.seed, racks=args.racks, nodes_per_rack=args.nodes_per_rack,
        shards=shards, replication=args.replication if shards else 0,
    )
    try:
        dc.generate_workload(
            days=args.hours / 24.0, jobs_per_day=args.jobs_per_day,
        )
        dc.run(seconds=args.hours * 3600.0)
        dc.enable_supervision()

        frontend = dc.frontend(
            tenants=tenant_configs(args.tenants, base_rate=args.rate),
            max_workers=args.workers,
            admission=not args.no_admission,
            cache=not args.no_cache,
        )
        names = dc.store.names()
        spec = WorkloadSpec(
            tenants=args.tenants, queries=args.queries, seed=args.seed,
            hot_fraction=args.hot_fraction,
        )
        events = heavy_tailed_workload(names, 0.0, dc.sim.now, spec)
        print(
            f"serving {len(events)} queries from {args.tenants} tenants "
            f"over {len(names)} series "
            f"({'sharded x' + str(shards) if shards else 'single store'}, "
            f"{args.workers} workers, {args.submitters} submitters, "
            f"admission {'off' if args.no_admission else 'on'}, "
            f"cache {'off' if args.no_cache else 'on'}) ..."
        )
        outcomes = replay(frontend, events, submitters=args.submitters)

        ok = sum(1 for o in outcomes if o.ok)
        rejected = sum(1 for o in outcomes if o.rejected)
        errors = len(outcomes) - ok - rejected
        hits = sum(1 for o in outcomes if o.ok and o.cache_hit)
        snap = frontend.metrics.snapshot()
        cache = frontend.cache_stats()
        print(f"  ok {ok}  rejected {rejected}  errors {errors}")
        if cache:
            print(
                f"  cache: hit_ratio {cache['hit_ratio']:.2f} "
                f"({hits} served from cache, "
                f"{cache['invalidations']:.0f} invalidations)"
            )
        lat = {
            q: snap.get(f"telemetry.serving.latency.{q}", float("nan"))
            for q in ("p50", "p95", "p99")
        }
        print(
            "  latency: "
            + "  ".join(f"{q} {v * 1e3:.2f}ms" for q, v in lat.items())
        )
        print(f"  {'tenant':<10} {'offered':>8} {'admitted':>9} "
              f"{'completed':>10} {'rejected':>9}")
        tenant_rows = {}
        for name in sorted(frontend.tenant_stats()):
            s = frontend.tenant_stats()[name]
            rej = sum(v for k, v in s.items() if k.startswith("rejected."))
            tenant_rows[name] = s
            print(
                f"  {name:<10} {s['offered']:>8.0f} {s['admitted']:>9.0f} "
                f"{s['completed']:>10.0f} {rej:>9.0f}"
            )
        if args.out:
            card = {
                "config": {
                    "seed": args.seed, "tenants": args.tenants,
                    "queries": args.queries, "shards": shards or 0,
                    "workers": args.workers, "submitters": args.submitters,
                    "admission": not args.no_admission,
                    "cache": not args.no_cache,
                },
                "outcomes": {
                    "ok": ok, "rejected": rejected, "errors": errors,
                    "cache_hits": hits,
                },
                "latency_s": lat,
                "cache": cache,
                "tenants": tenant_rows,
            }
            atomic_write_json(args.out, card)
            print(f"scorecard written to {args.out}")
    finally:
        dc.close()
    return 0 if errors == 0 else 1


def _cmd_durability(args: argparse.Namespace) -> int:
    from repro.ioutil import atomic_write_json
    from repro.oda.chaos import durability_drill

    card = durability_drill(
        args.seed, shards=args.shards, replication=args.replication,
        series=args.series, batches=args.batches, workdir=args.workdir,
    )
    print(
        f"durability drill: {args.shards} shards x {args.replication + 1} "
        f"copies, {args.series} series, seed {args.seed}"
    )
    for label, phase in card["phases"].items():
        ok = (phase.get("lost_acked_samples", 0) == 0
              and phase["silently_wrong_samples"] == 0
              and phase.get("detected", 1) > 0)
        cells = " ".join(f"{key}={value}" for key, value in phase.items())
        print(f"  {label:<18} {cells}  {'OK' if ok else 'FAIL'}")
    totals = card["totals"]
    print(f"  recovered {totals['recovered_samples']} samples from journals "
          "on reopen")
    atomic_write_json(args.out, card, sort_keys=True)
    print(f"scorecard written to {args.out}")
    print("durability drill " + ("PASSED" if card["pass"] else "FAILED"))
    return 0 if card["pass"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "survey":
        return _cmd_survey()
    if args.command == "classify":
        return _cmd_classify(args.description)
    if args.command == "roadmap":
        return _cmd_roadmap(args.covered, args.horizon)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "durability":
        return _cmd_durability(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
