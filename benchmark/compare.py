#!/usr/bin/env python3
"""Compares two sets of benchmark runs metric by metric, one row per workload.

Usage: python3 benchmark/compare.py BASE.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds the JSON lines `run.py --record FILE` appends, one per run.
For every workload present on both sides and every end-to-end metric of
BENCHMARK.json, it prints each side's median and quartiles (Python's
statistics.quantiles, n=4) and a verdict:

  pass        the medians differ by less than the metric's bound
  regressed   the change's median is worse by the bound or more
  improved    the change's median is better by the bound or more
  unresolved  a side's quartile spread, as a share of its median, exceeds the
              bound, so the bound cannot be resolved -- unless every change run
              reads better than every base run (then: improved)

Exits 1 when any metric regressed or is unresolved, else 0. Runs of the same
commit in both files check the benchmark's own repeatability.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCHMARK.json")


def load_runs(path):
    """workload -> metric -> [values], from untraced runs only."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace", 0) != 0:
                continue
            metrics = runs.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return runs


def summarize(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, change, bound, higher_is_better):
    base_med, _, _, base_spread = summarize(base)
    change_med, _, _, change_spread = summarize(change)
    # Positive = the change is worse.
    worse = (base_med - change_med) if higher_is_better else (change_med - base_med)
    delta = worse / base_med if base_med else 0.0
    if base_spread > bound or change_spread > bound:
        if higher_is_better:
            better_everywhere = min(change) > max(base)
        else:
            better_everywhere = max(change) < min(base)
        return delta, "improved" if better_everywhere else "unresolved"
    if delta >= bound:
        return delta, "regressed"
    if delta <= -bound:
        return delta, "improved"
    return delta, "pass"


def compare(base_runs, change_runs, bench):
    """Returns rows: (workload, [(metric, cell text, verdict)])."""
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base_runs or workload not in change_runs:
            continue
        cells = []
        for spec in bench["end_to_end"]:
            name = spec["name"]
            base = base_runs[workload].get(name)
            change = change_runs[workload].get(name)
            if not base or not change:
                continue
            delta, outcome = verdict(base, change, spec["bound"], spec["better"] == "higher")
            b_med, b_q1, b_q3, _ = summarize(base)
            c_med, c_q1, c_q3, _ = summarize(change)
            text = (f"{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] -> {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]"
                    f" worse {100 * delta:+.1f}% {outcome}")
            cells.append((name, text, outcome))
        rows.append((workload, cells))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    args = parser.parse_args(argv)
    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    base_runs = load_runs(args.base)
    change_runs = load_runs(args.change)
    rows = compare(base_runs, change_runs, bench)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1

    names = [spec["name"] for spec in bench["end_to_end"]]
    print("| workload | runs | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 2) + "|")
    failing = False
    for workload, cells in rows:
        by_name = {name: text for name, text, _ in cells}
        counts = f"{len(base_runs[workload][names[0]])}/{len(change_runs[workload][names[0]])}"
        print(f"| {workload} | {counts} | " + " | ".join(by_name.get(n, "-") for n in names) + " |")
        failing = failing or any(o in ("regressed", "unresolved") for _, _, o in cells)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
