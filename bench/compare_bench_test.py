#!/usr/bin/env python3
"""Self-check of bench/compare_bench.py's trajectory merge and regression gate.

Feeds synthetic google-benchmark outputs through compare_bench.py in a temporary
directory and checks that:
  * a repeated run records each benchmark's repetition count and _cv noise figure;
  * the gate passes a run that measured every benchmark of the reference;
  * the gate fails a run that lacks a benchmark of the reference, naming it;
  * the gate fails a slowdown past the tolerance.

Usage (exits non-zero on any failed check):
    python3 bench/compare_bench_test.py
"""
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "compare_bench.py"


def raw_run(times_ns, repetitions=1):
    """A google-benchmark JSON document with the given real times (ns) per benchmark:
    one iteration entry per repetition plus, when repeated, the median and cv
    aggregates google-benchmark emits."""
    rows = []
    for name, t in times_ns.items():
        reps = [t * (1 + 0.02 * i) for i in range(repetitions)]
        for i, r in enumerate(reps):
            rows.append({"name": name, "run_name": name, "run_type": "iteration",
                         "repetitions": repetitions, "repetition_index": i,
                         "real_time": r, "cpu_time": r, "time_unit": "ns"})
        if repetitions > 1:
            median = statistics.median(reps)
            cv = statistics.stdev(reps) / statistics.mean(reps)
            for agg, value in (("median", median), ("cv", cv)):
                rows.append({"name": f"{name}_{agg}", "run_name": name,
                             "run_type": "aggregate", "aggregate_name": agg,
                             "repetitions": repetitions, "real_time": value,
                             "cpu_time": value, "time_unit": "ns"})
    return {"context": {"num_cpus": 4, "tbf_build_type": "Release"}, "benchmarks": rows}


def compare(tmp, tag, doc, gate_against=None):
    """Runs compare_bench.py on `doc`; returns (process, written trajectory path)."""
    after = tmp / f"{tag}_raw.json"
    after.write_text(json.dumps(doc))
    out = tmp / f"BENCH_{tag}.json"
    cmd = [sys.executable, str(SCRIPT), "--after", str(after), "--tag", tag,
           "--out", str(out)]
    if gate_against is not None:
        cmd += ["--gate-against", str(gate_against)]
    return subprocess.run(cmd, capture_output=True, text=True), out


def main():
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        proc, ref = compare(tmp, "ref", raw_run({"BM_A": 100, "BM_B/8": 200}, repetitions=5))
        check(proc.returncode == 0, "a reference trajectory is written")
        entry = json.loads(ref.read_text())["benchmarks"]["BM_A"]["after"]
        check(entry.get("repetitions") == 5, "the repetition count is recorded")
        check(0 < entry.get("real_time_cv", 0) < 1, "the _cv aggregate is recorded")

        proc, _ = compare(tmp, "complete", raw_run({"BM_A": 110, "BM_B/8": 190}), ref)
        check(proc.returncode == 0, "a run with every reference benchmark passes")

        proc, _ = compare(tmp, "missing", raw_run({"BM_A": 110}), ref)
        check(proc.returncode == 1 and "BM_B/8" in proc.stderr,
              "a run missing a reference benchmark fails and names it")

        proc, _ = compare(tmp, "slow", raw_run({"BM_A": 300, "BM_B/8": 200}), ref)
        check(proc.returncode == 1 and "BM_A" in proc.stderr,
              "a 3x slowdown fails the 2x gate")

    print(f"compare_bench_test: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
