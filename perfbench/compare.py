#!/usr/bin/env python3
"""Compare the benchmark results of two commits, or show the spread of one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --spread RESULTS.jsonl

Each file holds the records ``run.py`` appends, one JSON object per line.
Only untraced, full-size runs count.  Runs of one workload are paired in
file order, so run the two commits alternately, one seed per pair.

Verdict per workload and end-to-end metric, with the bound from
BENCHMARK.json and the pair rule of the choosing-metrics guide:

- ``better``: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither side), and the medians differ in its favour
  by more than the parent's interquartile range.  A gain does not count
  when the change fails a larger share of its operations than the parent,
  or any of its runs is incorrect; such a metric reads ``unresolved``;
- ``unresolved``: the parent's spread (interquartile range over median) is
  wider than the bound, unless every run of the change reads better than
  every run of the parent;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``within_bound``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench() -> dict[str, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["run"]["trace"] == 0 and not record["run"]["tiny"]:
            runs[record["run"]["workload"]].append(record)
    return runs


def values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) for one metric of one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q1, med_a, q3 = quartiles(parent)
    med_b = quartiles(change)[1]
    gain = sign * (med_b - med_a) / med_a  # > 0 means the change is better
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > 0 and abs(med_b - med_a) > q3 - q1:
        return "better", wins, len(pairs)
    all_better = min(sign * b for b in change) > max(sign * a for a in parent)
    if (q3 - q1) / med_a > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound:
        return "worse", wins, len(pairs)
    return "within_bound", wins, len(pairs)


def failures(records: list[dict]) -> tuple[int, int]:
    """(failed, attempted) operations over a side's runs of one workload."""
    return sum(r["failed"] for r in records), sum(r["attempted"] for r in records)


def fails_more(parent: list[dict], change: list[dict]) -> bool:
    """True when the change may not claim a gain: it fails a larger share of
    its operations than the parent, or one of its runs is incorrect."""
    (fa, na), (fb, nb) = failures(parent), failures(change)
    return fb * na > fa * nb or not all(r["correct"] for r in change)


def compare(parent_path: str, change_path: str) -> int:
    bench = load_bench()
    parent, change = load_runs(parent_path), load_runs(change_path)
    print(f"{'workload':14s} {'metric':15s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'change':>8s} {'bound':>6s} {'won':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        (fa, na), (fb, nb) = failures(parent[workload]), failures(change[workload])
        print(f"{workload:14s} failed operations: parent {fa}/{na}, change {fb}/{nb}")
        no_gain = fails_more(parent[workload], change[workload])
        for name, spec in bench.items():
            a, b = values(parent[workload], name), values(change[workload], name)
            if not a or not b:
                continue
            v, wins, n = verdict(a, b, spec["better"], spec["bound"])
            if v == "better" and no_gain:
                v = "unresolved (change fails more)"
            qa, qb = quartiles(a), quartiles(b)
            rel = (qb[1] - qa[1]) / qa[1]
            print(f"{workload:14s} {name:15s} {_cell(qa, spec['unit']):34s} {_cell(qb, spec['unit']):34s} "
                  f"{rel:+8.1%} {spec['bound']:6.2f} {wins:>2d}/{n:<3d}  {v}")
    return 0


def _cell(q: tuple[float, float, float], unit: str) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {unit}"


def spread(path: str) -> int:
    """Interquartile range over median of each metric, against a third of its bound."""
    bench = load_bench()
    runs = load_runs(path)
    worst = 0.0
    print(f"{'workload':14s} {'metric':15s} {'runs':>4s} {'median':>12s} {'spread':>8s} {'bound':>6s}  within bound/3")
    for workload in sorted(runs):
        for name, spec in bench.items():
            xs = values(runs[workload], name)
            if len(xs) < 2:
                continue
            q1, med, q3 = quartiles(xs)
            s = (q3 - q1) / med
            ok = s <= spec["bound"] / 3
            if name != "setup_s":
                worst = max(worst, s / spec["bound"])
            print(f"{workload:14s} {name:15s} {len(xs):4d} {med:12.6g} {s:8.2%} {spec['bound']:6.2f}  {'yes' if ok else 'NO'}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="PARENT.jsonl CHANGE.jsonl, or one file with --spread")
    parser.add_argument("--spread", action="store_true", help="report the run-to-run spread of one file")
    args = parser.parse_args(argv)
    if args.spread:
        if len(args.files) != 1:
            parser.error("--spread takes one results file")
        return spread(args.files[0])
    if len(args.files) != 2:
        parser.error("give the parent's and the change's results files")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
