"""Smoke test of the benchmark harness itself (not in ``testpaths``):

    python3 -m pytest bench_e2e/test_smoke.py -q

Runs every workload at ``--smoke`` sizes in fresh processes, exactly as the
driver does, and checks what the numbers cannot: that every declared metric
is printed with its unit, that the exact work counters repeat (on a seed and,
because ``--seed`` draws values and not shapes, across seeds) while the
answers move with the seed, that the oracle notices a damaged answer, and
that a run leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Work counters that must read the same on every run, whatever the seed.
EXACT = {
    "ingest_fleet": ["samples", "store_flushes", "journal_bytes", "journal_records"],
    "serve_tenants": ["queries", "cache_hits", "cache_evictions", "cold_chunks"],
    "live_mixed": ["queries", "cache_hits", "journal_bytes", "slots_applied"],
    "crash_recover": ["recovered_samples", "repaired_windows", "torn_tail_drops",
                      "torn_bytes"],
}


def run(tmp_path, workload, seed, *extra):
    out = tmp_path / f"{workload}-{seed}-{len(os.listdir(tmp_path))}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--smoke", "--out", str(out), *extra],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    return proc, out


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(tmp_path, workload):
    first, first_out = run(tmp_path, workload, 11)
    again, again_out = run(tmp_path, workload, 11)
    other, other_out = run(tmp_path, workload, 12)
    for proc in (first, again, other):
        assert proc.returncode == 0, proc.stderr + proc.stdout
        line = result_line(proc)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
        for metric in BENCHMARK["end_to_end"]:
            got = line["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0
            assert f"{metric['name']} " in proc.stdout  # the human-readable row
    reports = [json.load(open(p)) for p in (first_out, again_out, other_out)]
    for report in reports:
        assert report["env"]["python"] and report["env"]["numpy"] and report["env"]["nproc"]
        assert report["failed_share"] == 0.0 and report["answers_checked"] > 0
    for name in EXACT[workload]:
        assert (reports[0]["counters"][name] == reports[1]["counters"][name]
                == reports[2]["counters"][name]), name
    assert reports[0]["attempted"] == reports[1]["attempted"] == reports[2]["attempted"]
    assert reports[0]["answers_digest"] == reports[1]["answers_digest"]
    assert reports[0]["answers_digest"] != reports[2]["answers_digest"]
    # The work directory is gone and nothing was written beside the results.
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(p) for p in (first_out, again_out, other_out)
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    proc, out = run(tmp_path, workload, 11, "--trace", "1")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    line = result_line(proc)
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    report = json.load(open(out))
    assert report["untraced_targets"] == []
    wall = report["timed"]["wall_s"]
    layers = line["metrics"]
    assert abs(layers["unattributed_s"]["value"]) < wall
    self_rows = sum(layers[name]["value"] for name in _self_time_rows())
    total = self_rows + layers["other_self_s"]["value"] + layers["unattributed_s"]["value"]
    assert total == pytest.approx(wall, rel=1e-6)
    trace = json.load(open(os.path.splitext(out)[0] + ".trace.json"))
    assert trace["traceEvents"] and {"name", "ts", "dur", "args"} <= set(trace["traceEvents"][0])


def _self_time_rows():
    sys.path.insert(0, HERE)
    try:
        import tracing
    finally:
        sys.path.remove(HERE)
    assert set(tracing.LAYER_SPANS) <= {m["name"] for m in BENCHMARK["per_layer"]}
    rows = {name: spans for name, (kind, spans) in tracing.LAYER_SPANS.items() if kind == "self"}
    spans = [s for row in rows.values() for s in row]
    assert len(spans) == len(set(spans)), "a span name sits under two self-time rows"
    return rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_notices_a_damaged_answer(tmp_path, workload):
    proc, _ = run(tmp_path, workload, 11, "--corrupt-answer")
    assert proc.returncode == 1, proc.stderr + proc.stdout
    line = result_line(proc)
    assert line["correct"] is False and line["failed"] == 1


def test_refuses_to_run_beside_a_live_run(tmp_path):
    leftover = tmp_path / ".bench_e2e_work" / "run-1-left"
    leftover.mkdir(parents=True)
    (leftover / "pids").write_text(str(os.getppid()))  # pytest's parent: alive
    proc, _ = run(tmp_path, "crash_recover", 11)
    assert proc.returncode == 2 and "leftovers" in proc.stderr
    assert '"correct"' not in proc.stdout
    (leftover / "pids").write_text("999999999")  # nobody: stale files only
    proc, _ = run(tmp_path, "crash_recover", 11)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / ".bench_e2e_work").exists()


def test_workdir_sweep_spares_what_the_harness_did_not_make(tmp_path):
    """``--workdir`` is the user's directory: only ``run-<pid>-*`` entries
    with a ``pids`` file under its ``.bench_e2e_work`` are ever removed."""
    scratch = tmp_path / "scratch"
    work = scratch / ".bench_e2e_work"
    bystanders = [
        scratch / "thesis",                # the user's own directory
        work / "notes",                    # not named like a run
        work / "run-7-nopids",             # a run that has not recorded itself
        work / "run-8-garbled",            # unreadable record
    ]
    for path in bystanders:
        path.mkdir(parents=True)
        (path / "keep.txt").write_text("mine")
    (work / "run-8-garbled" / "pids").write_text("not a pid")
    stale = work / "run-9-stale"
    stale.mkdir()
    (stale / "pids").write_text("999999999")
    proc, _ = run(tmp_path, "crash_recover", 11, "--workdir", str(scratch))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    for path in bystanders:
        assert (path / "keep.txt").read_text() == "mine", path
    assert not stale.exists()
    assert sorted(p.name for p in work.iterdir()) == ["notes", "run-7-nopids", "run-8-garbled"]
    proc, _ = run(tmp_path, "crash_recover", 11, "--workdir", str(tmp_path / "absent"))
    assert proc.returncode == 2 and not (tmp_path / "absent").exists()


def test_without_the_program_there_is_no_result(tmp_path):
    """In a tree holding only the benchmark the run must fail, not report."""
    import shutil

    shutil.copytree(HERE, tmp_path / "bench_e2e", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "serve_tenants",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout
