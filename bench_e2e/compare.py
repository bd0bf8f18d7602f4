#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per workload and metric.

    python3 bench_e2e/compare.py A/ B/

``A/`` and ``B/`` hold result files written by ``run.py --out`` (any
names, any number of runs per workload).  For every workload and end-to-end
metric the table gives each side's median and quartiles, the relative
difference of the medians (positive = B is worse) and the bound from
``BENCHMARK.json``, and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``REGRESSED`` — it is worse by more than the bound;
* ``UNRESOLVED`` — the quartile spread of either side is wider than the
  bound, so the runs cannot tell (unless every B run beats every A run).

Exit code 1 if any row is REGRESSED or UNRESOLVED, or a run was incorrect.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> Dict[str, List[dict]]:
    """Untraced results under ``directory``, grouped by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not report.get("trace"):
            runs[report["workload"]].append(report)
    return runs


def summarize(values: List[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the median
    (the driver's own spread statistic)."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def compare(a_runs: List[dict], b_runs: List[dict], metric: dict) -> dict:
    name, lower_is_better = metric["name"], metric["better"] == "lower"
    a_values = [r["metrics"][name]["value"] for r in a_runs]
    b_values = [r["metrics"][name]["value"] for r in b_runs]
    a, b = summarize(a_values), summarize(b_values)
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = change if lower_is_better else -change
    b_always_better = (
        max(b_values) < min(a_values) if lower_is_better else min(b_values) > max(a_values)
    )
    if max(a["spread"], b["spread"]) > metric["bound"] and not b_always_better:
        verdict = "UNRESOLVED"
    elif worse_by > metric["bound"]:
        verdict = "REGRESSED"
    else:
        verdict = "ok"
    return {"a": a, "b": b, "worse_by": worse_by, "verdict": verdict}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    a_all, b_all = load_runs(argv[0]), load_runs(argv[1])
    bad = 0
    print(f"{'workload':<14} {'metric':<17} {'unit':<5} "
          f"{'A median [q1, q3] n':<42} {'B median [q1, q3] n':<42} "
          f"{'spreadA':>8} {'spreadB':>8} {'B worse by':>11} {'bound':>6}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        a_runs, b_runs = a_all.get(workload, []), b_all.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:<14} missing from {'A' if not a_runs else 'B'}")
            bad += 1
            continue
        incorrect = sum(not r["correct"] for r in a_runs + b_runs)
        if incorrect:
            print(f"{workload:<14} {incorrect} run(s) failed the oracle or lost operations")
            bad += 1
        for metric in benchmark["end_to_end"]:
            row = compare(a_runs, b_runs, metric)
            cells = [
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}"
                for s in (row["a"], row["b"])
            ]
            print(f"{workload:<14} {metric['name']:<17} {metric['unit']:<5} "
                  f"{cells[0]:<42} {cells[1]:<42} "
                  f"{row['a']['spread']:>8.2%} {row['b']['spread']:>8.2%} "
                  f"{row['worse_by']:>+11.2%} {metric['bound']:>6.0%}  {row['verdict']}")
            bad += row["verdict"] != "ok"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
