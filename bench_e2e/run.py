#!/usr/bin/env python3
"""End-to-end benchmark: one workload, one fresh process, one result line.

    python3 bench_e2e/run.py --workload ingest_fleet --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, checks the outputs against an
oracle, and ends with one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs the workload untraced and then traced and reports
the per-layer metrics.  Exit code 0 only if the run is correct.

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import time
import zlib

from measure import (
    environment,
    latency_stats,
    peak_rss_mb,
    pid_alive,
    worker_pids,
    workers_cpu_seconds,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The harness's own directory, created inside ``--workdir``: run directories
#: live (and stale ones are swept) only here, never beside the user's files.
WORK_ROOT = ".bench_e2e_work"
RUN_DIR = re.compile(r"run-\d+-\w+")

#: Set-ups per untraced run; ``setup_s`` is their median, the last is used.
SETUP_REPEATS = 3

EXIT_INCORRECT = 1
EXIT_UNUSABLE = 2  # no program to measure, bad arguments, or leftovers


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Hygiene: one work directory, no leftovers before or after
# ----------------------------------------------------------------------
def leftovers(work_root: str) -> str:
    """Why this run may not start, or "" once the box is clear of earlier runs.

    ``work_root`` is the harness's own ``.bench_e2e_work`` directory, never a
    directory the user named.  Only what a run of this harness made there is
    touched: an entry called ``run-<pid>-*`` that holds a readable ``pids``
    file.  If a recorded harness or worker is still alive, another run is
    measuring (or leaked workers are burning a core): refuse.  If they are
    all gone the entry is only files, and is removed.  Anything else is
    somebody else's (or a run that has not written its ``pids`` yet) and is
    reported and left alone.
    """
    if not os.path.isdir(work_root):
        return ""
    for entry in sorted(os.listdir(work_root)):
        path = os.path.join(work_root, entry)
        try:
            if not RUN_DIR.fullmatch(entry) or os.path.islink(path):
                raise ValueError("not a run directory of this harness")
            with open(os.path.join(path, "pids"), "r", encoding="ascii") as fh:
                pids = [int(tok) for tok in fh.read().split()]
            if not pids:
                raise ValueError("its pids record is empty")
        except (OSError, ValueError) as exc:
            print(f"bench_e2e: leaving {path} alone ({exc})", file=sys.stderr)
            continue
        alive = [pid for pid in pids if pid != os.getpid() and pid_alive(pid)]
        if alive:
            return (
                f"refusing to run beside leftovers: {path} belongs to live "
                f"process(es) {alive}; stop them (or wait for that run) first"
            )
        print(f"bench_e2e: removing stale work directory {path}", file=sys.stderr)
        shutil.rmtree(path, ignore_errors=True)
    return ""


def record_pids(workdir: str) -> None:
    """Harness and worker pids, replaced in one step so that another run's
    sweep never reads a half-written record."""
    record = os.path.join(workdir, "pids")
    with open(record + ".new", "w", encoding="ascii") as fh:
        fh.write(" ".join(str(pid) for pid in [os.getpid()] + worker_pids()))
    os.replace(record + ".new", record)


def leaked_processes_or_segments() -> list:
    """Worker processes still alive, or shared-memory files still named
    after this process, once the workload has been torn down."""
    leaks = [f"worker pid {pid}" for pid in worker_pids()]
    try:
        leaks += [
            f"/dev/shm/{name}" for name in os.listdir("/dev/shm")
            if name.startswith((f"pym-{os.getpid()}-", f"psm_{os.getpid()}_"))
        ]
    except OSError:
        pass
    return leaks


# ----------------------------------------------------------------------
# Oracle comparison
# ----------------------------------------------------------------------
def payloads_equal(got, want) -> bool:
    """Bit-identical, recursively (NaNs in the same places are equal)."""
    import numpy as np

    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return (
            isinstance(got, np.ndarray) and isinstance(want, np.ndarray)
            and got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
        )
    if isinstance(want, (tuple, list)):
        return (
            isinstance(got, (tuple, list)) and len(got) == len(want)
            and all(payloads_equal(g, w) for g, w in zip(got, want))
        )
    return got == want


def answers_digest(answers: list) -> int:
    """CRC of every answer's bytes: repeats on a seed, moves with it."""
    import numpy as np

    crc = 0
    for _label, payload in answers:
        for part in payload if isinstance(payload, (tuple, list)) else [payload]:
            data = part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode()
            crc = zlib.crc32(data, crc)
    return crc


def corrupt_one(answers: list) -> None:
    """Flip the lowest mantissa bit of one value of one answer (the smoke
    test's proof that the oracle is looking)."""
    import numpy as np

    for i, (label, payload) in enumerate(answers):
        parts = list(payload) if isinstance(payload, (tuple, list)) else [payload]
        for j, part in enumerate(parts):
            if isinstance(part, np.ndarray) and part.dtype == np.float64 and part.size:
                damaged = part.copy()
                damaged.reshape(-1).view(np.uint64)[-1] ^= 1
                parts[j] = damaged
                answers[i] = (label, tuple(parts) if len(parts) > 1 else damaged)
                return
    raise SystemExit("bench_e2e: --corrupt-answer found no array answer to damage")


# ----------------------------------------------------------------------
# One measured pass
# ----------------------------------------------------------------------
def measured_pass(workload, setups: int, traced: bool) -> dict:
    """Set up ``setups`` times (keeping the last), run the timed section,
    and read the clocks; the workload is left set up for verification."""
    setup_s = []
    for i in range(setups):
        if i:
            workload.teardown()
            gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    record_pids(workload.workdir)
    gc.collect()
    pids = worker_pids()
    if traced:
        workload.tracer.active = True
    own0, workers0 = time.process_time(), workers_cpu_seconds(pids)
    t0 = time.perf_counter()
    timed = workload.timed()
    wall = time.perf_counter() - t0
    own_cpu = time.process_time() - own0
    worker_cpu = workers_cpu_seconds(pids) - workers0
    if traced:
        workload.tracer.active = False
    return {
        "timed": timed, "wall_s": wall, "cpu_s": own_cpu + worker_cpu,
        "worker_cpu_s": worker_cpu, "setup_s": setup_s,
    }


def verify(workload, attempted: int, corrupt: bool) -> dict:
    """Failure accounting plus the oracle comparison (untimed)."""
    failures = {k: int(v) for k, v in workload.failures().items()}
    answers = workload.answers()
    digest = answers_digest(answers)
    if corrupt:
        corrupt_one(answers)
    expected = workload.expected()
    wrong = [
        label for (label, got), (_, want) in zip(answers, expected)
        if not payloads_equal(got, want)
    ]
    if len(answers) != len(expected):
        wrong.append(f"{len(answers)} answers against {len(expected)} expected")
    failures["wrong_answers"] = len(wrong)
    failed = sum(failures.values())
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / max(1, attempted), "failures": failures,
        "answers_checked": len(expected), "answers_digest": digest,
        "wrong_answers": wrong[:10],
    }


def end_to_end_metrics(passed: dict, rss_mb: float) -> tuple:
    timed = passed["timed"]
    lat = latency_stats(timed.latencies_s)
    return {
        "setup_s": statistics.median(passed["setup_s"]),
        "throughput_per_s": timed.ops / passed["wall_s"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "cpu_s": passed["cpu_s"],
        "peak_rss_mb": rss_mb,
    }, lat


def layer_metrics(workload, untraced: dict, traced: dict, declared: list) -> dict:
    """Every declared per-layer row: from the spans, the workload's counters
    or the harness; a row this workload does not exercise reads 0."""
    tracer = workload.tracer
    values = tracer.layer_values()
    values.update(workload.layer_values(traced["timed"]))
    values["runtime.worker_cpu_s"] = traced["worker_cpu_s"]
    values["unattributed_s"] = traced["wall_s"] - tracer.attributed_s()
    values["trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise SystemExit(f"bench_e2e: BENCHMARK.json per_layer lacks {undeclared}")
    return {name: float(values.get(name, 0.0)) for name in declared}


# ----------------------------------------------------------------------
def run(args, benchmark: dict, workdir: str) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, sizes_for

    sizes = sizes_for(args.workload, args.smoke, args.seconds / benchmark["run_seconds"])
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, sizes, workdir, tracer)
    workload.make_inputs()
    # Runs follow each other closely and the journalling workloads fsync:
    # write back whatever an earlier run left dirty before the clock starts,
    # or this run pays for it inside its own fsyncs.
    os.sync()

    if not args.trace:
        passed = measured_pass(workload, SETUP_REPEATS, traced=False)
        declared = benchmark["end_to_end"]
    else:
        untraced = measured_pass(workload, 1, traced=False)
        workload.teardown()
        tracer.install()
        passed = measured_pass(workload, 1, traced=True)
        declared = benchmark["per_layer"]
    rss = peak_rss_mb(worker_pids())
    checked = verify(workload, passed["timed"].ops, args.corrupt_answer)
    e2e, lat = end_to_end_metrics(passed, rss)
    if args.trace:
        values = layer_metrics(
            workload, untraced, passed, [m["name"] for m in declared]
        )
    else:
        values = e2e
    counters = {k: float(v) for k, v in workload.counters().items()}
    workload.teardown()

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    timed = passed["timed"]
    report = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "env": environment(ROOT, args.seed, sizes),
        **checked,
        "metrics": metrics,
        "end_to_end_this_pass": e2e,
        "timed": {
            "wall_s": passed["wall_s"], "ops": timed.ops, "op_unit": timed.op_unit,
            "latency_op": timed.latency_op, "latency_samples": lat["samples"],
            "tail_samples": lat["tail_samples"], "setup_s": passed["setup_s"],
        },
        "counters": counters,
        "untraced_targets": tracer.missing if tracer is not None else [],
    }
    if tracer is not None and args.out:
        tracer.write_chrome_trace(os.path.splitext(args.out)[0] + ".trace.json")
    return report


def print_report(report: dict) -> None:
    timed = report["timed"]
    print(f"workload {report['workload']}  seed {report['env']['seed']}  "
          f"{'traced' if report['trace'] else 'untraced'}  sizes {report['env']['sizes']}")
    print(f"timed section: {timed['ops']} {timed['op_unit']} in {timed['wall_s']:.3f} s; "
          f"latency op = {timed['latency_op']}, n = {timed['latency_samples']} "
          f"(tail = mean of slowest {timed['tail_samples']}); "
          f"set-ups {[round(s, 3) for s in timed['setup_s']]} s")
    for name, metric in report["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'failed_share':<34} {report['failed_share']:>16.6f} ratio "
          f"({report['failed']} of {report['attempted']}; {report['failures']})")
    print(f"oracle: {report['answers_checked']} answers compared bit for bit "
          f"(digest {report['answers_digest']:08x}), "
          f"{len(report['wrong_answers'])} wrong {report['wrong_answers'] or ''}")
    for name, value in report["counters"].items():
        print(f"  counter {name:<26} {value:>16.0f}")
    if report["untraced_targets"]:
        print(f"trace targets not found (their rows read 0): {report['untraced_targets']}")


def main(argv=None) -> int:
    benchmark = _load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="size the timed work for about this long (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes, for the smoke test (ignores --seconds)")
    parser.add_argument("--out", help="also write the full result (env, counters) as JSON")
    parser.add_argument("--workdir", default=".",
                        help="existing directory to work in: the run's scratch files go "
                             f"under <workdir>/{WORK_ROOT}/, which is removed on exit "
                             "(default: the current directory)")
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="damage one answer before the oracle sees it (must fail)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"bench_e2e: the program under test is not importable: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE

    if not os.path.isdir(args.workdir):
        print(f"bench_e2e: --workdir {args.workdir} is not a directory", file=sys.stderr)
        return EXIT_UNUSABLE
    work_root = os.path.join(os.path.abspath(args.workdir), WORK_ROOT)
    refusal = leftovers(work_root)
    if refusal:
        print(f"bench_e2e: {refusal}", file=sys.stderr)
        return EXIT_UNUSABLE
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=work_root)
    try:
        record_pids(workdir)
        report = run(args, benchmark, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only if this run's directory was the last
        except OSError:
            pass
    gc.collect()
    leaks = leaked_processes_or_segments()
    if leaks:
        print(f"bench_e2e: run left {leaks} behind", file=sys.stderr)
        return EXIT_UNUSABLE

    print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": report["metrics"],
    }))
    return 0 if report["correct"] else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
