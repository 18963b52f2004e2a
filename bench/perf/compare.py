#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent (BASE) and a change (CHANGE).

    python3 bench/perf/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records `run.py --out` appended, one per run; all of them must have
been run for the same number of seconds. For every workload and end-to-end metric it
prints each side's median, quartiles and run count, and a verdict:

  ok          the change's median is not worse than the parent's by more than the bound
              BENCHMARK.json gives the metric
  REGRESSION  it is worse by more than the bound
  unresolved  one side's spread (quartile distance over median) exceeds the bound, so
              the data cannot tell; unless every change run beats every parent run
  better      every change run beats every parent run

The simulated outcomes (EXACT) are deterministic for a seed, so they get no bound:
their verdict is `exact` when every seed both sides ran gives the same value on both,
`REGRESSION` when any such seed does not, and `unpaired` when the sides share no seed.

A claim column says CLAIM when at least ten runs were made on each side in alternating
pairs, the change wins at least nine tenths of the pairs (ties count for neither), the
medians differ by more than the parent's quartile distance, and the change fails no
more operations than the parent. Per-layer metrics of traced runs are listed side by
side without a verdict, except EXACT ones. Exits 1 on any regression or failed run.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
# Simulated outcomes: a change to how fast the simulator runs must leave them as they
# are, to the last bit, for every seed.
EXACT = {"goodput_mbps", "airtime_jain", "transfer_p95_s"}


def load(path):
    groups = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(metric, base, change):
    bound = metric["bound"]
    direction = metric["better"]
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse = (change_median - base_median) / abs(base_median) if base_median else 0.0
    if direction == "higher":
        worse = -worse
    every_run_better = all(better(c, b, direction) for c in change for b in base)
    if every_run_better:
        return "better"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def exact_verdict(name, base_records, change_records):
    """Pairs the runs by seed; any difference on a shared seed is a regression."""
    base = {r["seed"]: r["metrics"][name]["value"] for r in base_records}
    change = {r["seed"]: r["metrics"][name]["value"] for r in change_records}
    shared = sorted(set(base) & set(change))
    if not shared:
        return "unpaired"
    differ = [seed for seed in shared if base[seed] != change[seed]]
    if differ:
        return f"REGRESSION (seed {differ[0]}: {base[differ[0]]!r} -> {change[differ[0]]!r})"
    return f"exact ({len(shared)} seeds)"


def claim(metric, base_records, change_records):
    name = metric["name"]
    pairs = list(zip(base_records, change_records))
    if len(pairs) < MIN_PAIRS:
        return f"- ({len(pairs)} pairs)"
    # Alternating: the side that runs first switches from one pair to the next.
    firsts = [b["started_at"] < c["started_at"] for b, c in pairs]
    if any(x == y for x, y in zip(firsts, firsts[1:])):
        return "- (pairs not alternated)"
    direction = metric["better"]
    wins = losses = 0
    for b, c in pairs:
        bv, cv = b["metrics"][name]["value"], c["metrics"][name]["value"]
        wins += better(cv, bv, direction)
        losses += better(bv, cv, direction)
    base = [b["metrics"][name]["value"] for b, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    _, q1, q3 = summary(base)
    gap = statistics.median(change) - statistics.median(base)
    failed_more = (sum(c["failed"] for c in change_records)
                   > sum(b["failed"] for b in base_records))
    if (wins >= WIN_SHARE * len(pairs) and abs(gap) > q3 - q1
            and better(statistics.median(change), statistics.median(base), direction)
            and not failed_more):
        return f"CLAIM ({wins}/{len(pairs)} wins)"
    return f"- ({wins}/{len(pairs)} wins, {losses} losses)"


def fmt(median, q1, q3, n):
    return f"{median:12.6g} [{q1:.4g}, {q3:.4g}] n={n}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    lengths = {r["provenance"]["seconds"] for side in (base, change)
               for records in side.values() for r in records}
    if len(lengths) > 1:
        print(f"compare.py: the runs measured for different lengths {sorted(lengths)} s; "
              "run length is fixed by the benchmark", file=sys.stderr)
        return 2
    regressions = 0
    failed_runs = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_records, c_records = base[key], change[key]
        failed_runs += sum(1 for r in c_records if not r["correct"])
        if trace == 0:
            print(f"\n{workload}: base {len(b_records)} runs, change {len(c_records)} runs")
            print(f"  {'metric':18} {'bound':>6}  {'base median [q1, q3]':40} "
                  f"{'change median [q1, q3]':40} verdict      claim")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                bv = [r["metrics"][name]["value"] for r in b_records]
                cv = [r["metrics"][name]["value"] for r in c_records]
                if name in EXACT:
                    v, bound, claimed = exact_verdict(name, b_records, c_records), "exact", "-"
                else:
                    v = verdict(metric, bv, cv)
                    bound, claimed = f"{metric['bound']:.2f}", claim(metric, b_records,
                                                                      c_records)
                regressions += v.startswith("REGRESSION")
                print(f"  {name:18} {bound:>6}  {fmt(*summary(bv), len(bv)):40} "
                      f"{fmt(*summary(cv), len(cv)):40} {v:12} {claimed}")
        else:
            print(f"\n{workload} (traced): per-layer medians, base -> change")
            for metric in spec["per_layer"]:
                name = metric["name"]
                bv = statistics.median(r["metrics"][name]["value"] for r in b_records)
                cv = statistics.median(r["metrics"][name]["value"] for r in c_records)
                if not (bv or cv):
                    continue
                note = ""
                if name in EXACT:
                    note = exact_verdict(name, b_records, c_records)
                    regressions += note.startswith("REGRESSION")
                print(f"  {name:30} {bv:14.6g} -> {cv:<14.6g} {metric['unit']:8} {note}")
    print(f"\n{regressions} regression(s), {failed_runs} failed change run(s)")
    return 1 if regressions or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
