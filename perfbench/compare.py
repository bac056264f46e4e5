"""Spread of one set of benchmark runs, or a comparison of two.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that `run.py --record FILE` appends, one per
run.  Runs are grouped by workload and by trace mode; each workload gets
its own rows.  Bounds and directions come from BENCHMARK.json.

With one file, each metric shows its median, quartiles and spread (the
interquartile distance as a share of the median) next to its bound.

With two, the i-th run of each side for a workload form a pair, so record
the runs alternating which side goes first.  A metric is
- improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more
  than the parent's interquartile distance;
- unresolved: otherwise, when either side's spread is wider than the
  bound, unless every change run reads better than every parent run;
- worse than bound: the change's median is worse than the parent's by
  more than the bound;
- within bound: otherwise.
A metric without a bound can only be improved; otherwise it shows "-".
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Sums over one analysis, measured on the untraced passes of every run.
ANALYSIS_SUMS = ("pmf_s", "switching_s", "disjoint_s", "draws_per_s", "expander_s", "walks_s")


def load(path) -> dict:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def spec() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: (m["unit"], m["better"], m.get("bound"))
        for m in bench["end_to_end"] + bench["per_layer"]
    }


def metric_names(trace: int, metrics: dict, records: list) -> list:
    names = [n for n, (_, _, bound) in metrics.items() if (bound is not None) != bool(trace)]
    if not trace:
        names += [n for n in ANALYSIS_SUMS if any(r["figures"].get(n) for r in records)]
    return names


def summary(xs):
    med = statistics.median(xs)
    q1, q3 = (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else (xs[0], xs[0]))
    return med, q1, q3


def spread(xs) -> float:
    med, q1, q3 = summary(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound):
    worse = (lambda c, p: c > p) if better == "lower" else (lambda c, p: c < p)
    pairs = list(zip(parent, change))
    wins = sum(worse(p, c) for p, c in pairs)
    pm, pq1, pq3 = summary(parent)
    cm = summary(change)[0]
    if wins >= 0.9 * len(pairs) and worse(pm, cm) and abs(cm - pm) > pq3 - pq1:
        return "improved", wins, len(pairs)
    if bound is None:
        return "-", wins, len(pairs)
    every_better = all(worse(p, c) for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved", wins, len(pairs)
    if pm and worse(cm, pm) and abs(cm - pm) / abs(pm) > bound:
        return "worse than bound", wins, len(pairs)
    return "within bound", wins, len(pairs)


def show_spread(runs, metrics):
    for (workload, trace), records in sorted(runs.items()):
        print(f"{workload} (trace {trace}, {len(records)} runs)")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in metric_names(trace, metrics, records):
            xs = [r["figures"].get(name, 0) for r in records]
            med, q1, q3 = summary(xs)
            bound = metrics.get(name, (None, None, None))[2]
            flag = "  over a third of the bound" if bound and spread(xs) > bound / 3 else ""
            print(f"  {name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread(xs):>8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"  error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")


def cell(med, q1, q3) -> str:
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def show_compare(parent_runs, change_runs, metrics):
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parent, change = parent_runs[key], change_runs[key]
        print(f"{workload} (trace {trace}; {len(parent)} parent runs, {len(change)} change runs)")
        print(f"  {'metric':<36} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'delta':>8} {'won':>6}  verdict")
        for name in metric_names(trace, metrics, parent + change):
            better, bound = metrics.get(name, (None, "lower", None))[1:]
            ps = [r["figures"].get(name, 0) for r in parent]
            cs = [r["figures"].get(name, 0) for r in change]
            (pm, pq1, pq3), (cm, cq1, cq3) = summary(ps), summary(cs)
            text, wins, n = verdict(ps, cs, better, bound)
            delta = f"{(cm - pm) / abs(pm):+.2%}" if pm else "-"
            print(f"  {name:<36} {cell(pm, pq1, pq3):>34} {cell(cm, cq1, cq3):>34} "
                  f"{delta:>8} {f'{wins}/{n}':>6}  {text}")
        failed = [sum(r["failed"] for r in side) for side in (parent, change)]
        print(f"  failed operations: parent {failed[0]}, change {failed[1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", help="one or two files written by run.py --record")
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one file (spread) or two (parent, change)")
    metrics = spec()
    if len(args.runs) == 1:
        show_spread(load(args.runs[0]), metrics)
    else:
        show_compare(load(args.runs[0]), load(args.runs[1]), metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
