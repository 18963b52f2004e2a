#!/usr/bin/env python3
"""Merge two google-benchmark JSON outputs into the repo's BENCH_*.json trajectory format.

Usage:
    ./micro_core --benchmark_out=baseline.json --benchmark_out_format=json  # old build
    ./micro_core --benchmark_out=after.json --benchmark_out_format=json     # new build
    python3 bench/compare_bench.py --baseline baseline.json --after after.json \
        --tag pr1 --out BENCH_pr1.json

With only --after, emits the measurement without speedup fields (trajectory snapshot).
Schema: see bench/README.md ("tbf-bench-v1").

Scenario sections: --scenarios scenarios.json embeds the given JSON document verbatim
under the output's "scenarios" key - the headline numbers of scenario-level benches
(fig6, table1_packet_level, trace_replay) ride along with the micro trajectory, so one
BENCH_*.json carries both views of a PR.

Repeated runs (--benchmark_repetitions=N) record each benchmark's median, the
repetition count, and the _cv aggregate (standard deviation over mean of the
repetitions' real times) as the noise figure of that median.

Gate mode: --gate-against BENCH_prN.json [--max-regression 2.0] additionally compares
this run's times against a committed trajectory file and exits non-zero when any
benchmark regressed by more than the factor, or when a benchmark of the reference is
missing from this run (renamed, filtered out, or lost). When both this run (via --scenarios) and
the reference carry a "scenarios" section, numeric keys ending in _bytes or _kb are
ratio-checked the same way - readout-memory budgets (bench_campus_scale's metrology
numbers) gate alongside times. The tolerance is deliberately loose (2x by default): CI
runners differ from the machines that produced the trajectory, so the gate only catches
perf rot, not noise.
"""
import argparse
import json
import sys


def load_medians(path):
    """Returns {benchmark_name: {...}} using *_median aggregates when present, else the
    plain entry (single-repetition runs). Every entry carries its repetition count; a
    repeated run's entry also carries real_time_cv from the _cv aggregate."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    cvs = {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            if b.get("aggregate_name") == "cv":
                cvs[name] = b["real_time"]  # A ratio, whatever the time unit.
            continue
        entry = {
            "real_time_ns": b["real_time"] * _to_ns(b.get("time_unit", "ns")),
            "cpu_time_ns": b["cpu_time"] * _to_ns(b.get("time_unit", "ns")),
            "repetitions": b.get("repetitions", 1),
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        # Plain entries must not clobber a median aggregate already recorded.
        if b.get("run_type") == "aggregate" or name not in out:
            out[name] = entry
    for name, cv in cvs.items():
        if name in out:
            out[name]["real_time_cv"] = round(cv, 4)
    return out, doc.get("context", {})


def _to_ns(unit):
    return {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]


def _memory_keys(doc, prefix=""):
    """Yields (dotted_path, value) for numeric scenario keys that carry memory
    measurements - keys ending in _bytes or _kb, however deep they sit."""
    if isinstance(doc, dict):
        for key, value in sorted(doc.items()):
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and not isinstance(value, bool) \
                    and (key.endswith("_bytes") or key.endswith("_kb")):
                yield path, value
            else:
                yield from _memory_keys(value, path)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _memory_keys(value, f"{prefix}[{i}]")


def gate(benchmarks, scenarios, gate_path, max_regression):
    """Compares `after` times (and scenario memory keys, when both sides carry a
    scenarios section) against a committed trajectory file; returns one failure
    message per measurement exceeding max_regression and per reference benchmark
    this run lacks."""
    with open(gate_path) as f:
        reference = json.load(f)
    ref_benchmarks = reference.get("benchmarks", {})
    offenders = []
    checked = 0
    # A benchmark the reference measured but this run did not is a failure, not a
    # skip: a rename or a lost registration would otherwise retire its gate silently.
    for name, ref in sorted(ref_benchmarks.items()):
        if "after" in ref and name not in benchmarks:
            print(f"  gate {name}: in the reference, missing from this run <-- MISSING")
            offenders.append(f"{name} is missing from this run")
    for name, row in sorted(benchmarks.items()):
        ref = ref_benchmarks.get(name)
        if ref is None or "after" not in ref:
            continue
        ref_ns = ref["after"].get("real_time_ns", 0)
        cur_ns = row["after"].get("real_time_ns", 0)
        if ref_ns <= 0 or cur_ns <= 0:
            continue
        checked += 1
        ratio = cur_ns / ref_ns
        marker = " <-- REGRESSION" if ratio > max_regression else ""
        print(f"  gate {name}: {cur_ns:.0f} ns vs {ref_ns:.0f} ns "
              f"(x{ratio:.2f}){marker}")
        if ratio > max_regression:
            offenders.append(f"{name} regressed x{ratio:.2f} (> x{max_regression})")
    # Memory keys ride the same tolerance: readout memory is a first-class budget
    # (the streaming StatsEngine exists to bound it), so growth past the factor is a
    # regression exactly like a slowdown.
    ref_memory = dict(_memory_keys(reference.get("scenarios", {})))
    for path, value in _memory_keys(scenarios or {}):
        ref_value = ref_memory.get(path, 0)
        if ref_value <= 0 or value <= 0:
            continue
        checked += 1
        ratio = value / ref_value
        marker = " <-- REGRESSION" if ratio > max_regression else ""
        print(f"  gate scenarios.{path}: {value:.0f} vs {ref_value:.0f} "
              f"(x{ratio:.2f}){marker}")
        if ratio > max_regression:
            offenders.append(f"scenarios.{path} regressed x{ratio:.2f} "
                             f"(> x{max_regression})")
    print(f"gate: {checked} measurements compared against {gate_path} "
          f"(tolerance x{max_regression}), {len(offenders)} failed")
    return offenders


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", help="google-benchmark JSON of the pre-change build")
    ap.add_argument("--after", required=True, help="google-benchmark JSON of this build")
    ap.add_argument("--tag", required=True, help="trajectory tag, e.g. pr1")
    ap.add_argument("--out", required=True, help="output BENCH_*.json path")
    ap.add_argument("--scenarios",
                    help="JSON file embedded verbatim as the output's \"scenarios\" key "
                         "(scenario-bench headline numbers)")
    ap.add_argument("--gate-against",
                    help="committed BENCH_*.json to gate against (fail on regression)")
    ap.add_argument("--max-regression", type=float, default=2.0,
                    help="allowed slowdown factor vs --gate-against (default 2.0)")
    args = ap.parse_args()

    after, context = load_medians(args.after)
    baseline = {}
    if args.baseline:
        baseline, _ = load_medians(args.baseline)

    benchmarks = {}
    for name, entry in sorted(after.items()):
        row = {"after": entry}
        if name in baseline:
            row["baseline"] = baseline[name]
            if entry["real_time_ns"] > 0:
                row["speedup"] = round(
                    baseline[name]["real_time_ns"] / entry["real_time_ns"], 3)
        benchmarks[name] = row

    doc = {
        "schema": "tbf-bench-v1",
        "tag": args.tag,
        "host": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            # tbf's own CMAKE_BUILD_TYPE (micro_core publishes it); the library's field
            # describes the system libbenchmark package, not the code under test.
            "build_type": context.get("tbf_build_type"),
            "benchmark_library_build_type": context.get("library_build_type"),
        },
        "benchmarks": benchmarks,
    }
    scenarios = None
    if args.scenarios:
        with open(args.scenarios) as f:
            scenarios = json.load(f)
        doc["scenarios"] = scenarios
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(benchmarks)} benchmarks, "
          f"{sum(1 for b in benchmarks.values() if 'speedup' in b)} with baselines)")

    if args.gate_against:
        offenders = gate(benchmarks, scenarios, args.gate_against, args.max_regression)
        if offenders:
            for message in offenders:
                print(f"FAIL: {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
