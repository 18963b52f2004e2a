#!/usr/bin/env python3
"""Builds and runs the tbf host-performance benchmark.

    python3 bench/perf/run.py [--workload W] [--seed N] [--trace 0|1] [--out FILE]

Run from the repository root. Builds bench/perf into build-perf/ (Release), then runs
each workload in its own process: untraced for the end-to-end metrics, traced for the
per-layer ones (both unless --trace picks one). Prints one `workload metric value unit`
line per metric, appends one JSON record per run to --out, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics. Exits non-zero
when any correctness check fails. See bench/perf/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
BINARY = BUILD / "tbf_perf"
# A run must finish within 180 s; leave room for the build check and reporting.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once and rebuilds tbf_perf; concurrent runs take turns."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "tbf").is_dir():
        fail(f"{ROOT} holds no tbf source tree to build the benchmark from")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
        steps.append(["cmake", "--build", str(BUILD), "--target", "tbf_perf", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("building tbf_perf failed")


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_program(workload, seed, seconds, trace):
    tag = f"{workload}-{seed}-{'traced' if trace else 'untraced'}-{int(time.time())}"
    spans = BUILD / f"spans-{workload}-{seed}.jsonl"
    args = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0", "--spans", str(spans),
            "--run-tag", tag]
    try:
        done = subprocess.run(args, cwd=BUILD, text=True, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    out = json.loads(lines[-1])
    out["run_tag"] = tag
    return out


def cv(samples):
    if len(samples) < 2 or statistics.fmean(samples) == 0:
        return 0.0
    return statistics.stdev(samples) / statistics.fmean(samples)


def evaluate(spec, pins, raw, seed):
    """Turns one program run into the benchmark's metrics and checks."""
    trace = raw["trace"] == 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = set(raw["reps"]) | set(raw["values"])
    unknown = sorted(extra - names)
    if unknown:
        fail(f"tbf_perf reports metrics BENCHMARK.json does not define: {unknown}")
    checks = list(raw["checks"])
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in raw["reps"]:
            value = statistics.median(raw["reps"][name])
        else:
            # A per-layer metric of a layer this workload does not exercise, or cannot
            # see from outside, reads 0; README.md lists which workload fills which.
            value = raw["values"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": m["unit"]}
        if not trace and not (math.isfinite(value) and value > 0):
            checks.append({"name": f"{name}_positive", "ok": False,
                           "detail": f"{name} = {value}"})
    pinned = pins["digests"].get(str(seed), {}).get(raw["workload"])
    if pinned is not None:
        checks.append({"name": "digest_matches_pin", "ok": raw["digest"] == pinned,
                       "detail": f"digest {raw['digest']}, pinned {pinned}"})
    failed = raw["failed"] + sum(1 for c in checks[len(raw["checks"]):] if not c["ok"])
    return {
        "workload": raw["workload"],
        "seed": seed,
        "trace": raw["trace"],
        "run_tag": raw["run_tag"],
        "correct": all(c["ok"] for c in checks),
        "attempted": raw["attempted"],
        "failed": min(failed, raw["attempted"]),
        "metrics": metrics,
        "samples": raw["reps"],
        "cv": {name: cv(s) for name, s in raw["reps"].items()},
        "checks": checks,
        "digest": raw["digest"],
        "spans": raw["spans"],
    }


def main():
    spec = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "pins.json")
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=pins["default_seed"])
    # Run length is fixed by BENCHMARK.json, so that runs of two commits compare. The
    # flag is accepted because callers of the benchmark command pass it.
    parser.add_argument("--seconds", type=int, choices=[spec["run_seconds"]],
                        help="wall time the timed reps of one run use (run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="only the untraced (0) or the traced (1) run")
    parser.add_argument("--out", type=Path, help="append one JSON record per run")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    build()
    provenance = json.loads(subprocess.run([str(BINARY), "--provenance"], text=True,
                                           stdout=subprocess.PIPE, check=True).stdout)
    provenance.update({"nproc": os.cpu_count(), "git_commit": git_commit()})
    modes = [args.trace] if args.trace is not None else [0, 1]

    records = []
    for workload in [args.workload] if args.workload else workloads:
        for trace in modes:
            started_at = time.time()
            raw = run_program(workload, args.seed, seconds, trace)
            record = evaluate(spec, pins, raw, args.seed)
            record["started_at"] = started_at
            record["provenance"] = dict(provenance, seconds=seconds,
                                        reps=len(raw["reps"].get("run_s", [])))
            records.append(record)
            for name, m in record["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
            for c in record["checks"]:
                if not c["ok"]:
                    print(f"{workload} CHECK FAILED {c['name']} {c['detail']}",
                          file=sys.stderr)
    if args.out:
        with open(args.out, "a") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")

    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(name if single else f"{r['workload']}.{name}"): m
                    for r in records for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
