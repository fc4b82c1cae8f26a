#!/usr/bin/env python3
"""Compares two sets of cswitch_benchmark result envelopes.

    python3 bench/suite/compare.py A B [--benchmark BENCHMARK.json] [--extras]

A and B are result files (schema cswitch-benchmark-v1, written by
`cswitch_benchmark --json` and kept by run.py in .bench_build/results/)
or directories of them; A is the baseline. Runs are grouped by workload
and by traced/untraced, and paired by seed. For every workload x metric
the table shows each set's median and quartiles, the fraction of pairs
B wins (ties count for neither), and a verdict:

  better      B wins at least 9 in 10 pairs and the medians differ by
              more than A's interquartile range;
  worse       B's median is worse than A's by more than the bound
              BENCHMARK.json fixes (per-layer metrics have no bound:
              worse when B loses 9 in 10 pairs by more than A's spread);
  unresolved  the run-to-run spread of either set is wider than the
              bound, and not every run of B beats every run of A;
  unchanged   otherwise.

With --extras, workload-specific details (apps.*, concurrent.*, ...)
are listed too; having no direction, they read `same` when both sets
hold identical values, else `differs`. Exit status is 1 when any
verdict is `worse`.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA = "cswitch-benchmark-v1"


def load(path):
    """Result envelopes in a file or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = (json.loads(f.read_text()) for f in files)
    return [doc for doc in docs if doc.get("schema") == SCHEMA]


def group(runs, extras):
    """{(workload, traced): {seed: {metric: (value, unit)}}}"""
    out = {}
    for run in runs:
        values = dict(run["metrics"])
        if extras:
            values.update(run.get("extras", {}))
        key = (run["workload"], run["traced"])
        out.setdefault(key, {})[run["seed"]] = {
            name: (m["value"], m["unit"]) for name, m in values.items()
            if m["value"] is not None}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, pairs, better, bound):
    """a, b: value lists; pairs: [(a, b)]; better: 'lower'/'higher'."""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win = wins / len(pairs) if pairs else 0.0
    loss = losses / len(pairs) if pairs else 0.0
    gap = abs(mb - ma)
    if win >= 0.9 and gap > qa3 - qa1:
        return "better", win
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if bound is None:
        if loss >= 0.9 and gap > qa3 - qa1:
            return "worse", win
        return "unchanged", win
    if worse_by > bound:
        return "worse", win
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", win
    return "unchanged", win


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark results (A = baseline).")
    parser.add_argument("a", help="baseline result file or directory")
    parser.add_argument("b", help="changed result file or directory")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"))
    parser.add_argument("--extras", action="store_true")
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    declared = {m["name"]: (m["better"], m.get("bound"))
                for m in spec["end_to_end"] + spec["per_layer"]}
    a_sets = group(load(args.a), args.extras)
    b_sets = group(load(args.b), args.extras)

    header = (f"{'workload':20} {'t':1} {'metric':32} {'unit':6} "
              f"{'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
              f"{'delta':>8} {'wins':>5}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for key in sorted(set(a_sets) & set(b_sets)):
        workload, traced = key
        a_runs, b_runs = a_sets[key], b_sets[key]
        seeds = sorted(set(a_runs) & set(b_runs))
        names = [n for n in a_runs[next(iter(a_runs))]
                 if all(n in r for r in list(a_runs.values()) +
                        list(b_runs.values()))]
        for name in names:
            a = [r[name][0] for r in a_runs.values()]
            b = [r[name][0] for r in b_runs.values()]
            unit = next(iter(a_runs.values()))[name][1]
            pairs = [(a_runs[s][name][0], b_runs[s][name][0]) for s in seeds]
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            delta = (mb - ma) / abs(ma) * 100 if ma else 0.0
            if name in declared:
                better, bound = declared[name]
                result, win = verdict(a, b, pairs, better, bound)
                wins = f"{win:5.2f}"
            else:
                result = "same" if sorted(a) == sorted(b) else "differs"
                wins = "    -"
            worse += result == "worse"
            a_cell = f"{ma:.5g} [{qa1:.5g}, {qa3:.5g}]"
            b_cell = f"{mb:.5g} [{qb1:.5g}, {qb3:.5g}]"
            print(f"{workload:20} {'t' if traced else 'u'} {name:32} "
                  f"{unit:6} {a_cell:>30} {b_cell:>30} {delta:+7.2f}% "
                  f"{wins}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
