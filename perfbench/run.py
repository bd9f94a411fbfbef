#!/usr/bin/env python3
"""Paper-scale benchmark of the Spike analysis.

Run from the repository root:

    python3 perfbench/run.py --workload edit-gcc --seed 1 --seconds 10 --trace 0

(--workload takes several names to run them in turn)
builds perfbench/main.exe from source with dune (build directory
.bench_build, no shared cache), runs it and passes its output through.
The last line of stdout is the JSON result; the exit code is non-zero
when the build or any output check fails.  --out FILE additionally
appends a detailed record (counters and raw samples) for compare mode:

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

compares two such files: deterministic counters exactly (same workload,
seed and mode; it fails when no record of NEW has a partner in BASE),
and every timing as medians and quartiles against the baseline's own
spread, one row per workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORK_DIR = ".bench_work"  # store files of the edit workloads
RUN_TIMEOUT_S = 175


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "-j", "2",
        "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_workload(args, workload):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        # A killed run cannot remove its store directory itself.
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def run(args):
    """Runs the named workloads in turn; non-zero if any check failed."""
    if not build():
        return 2
    codes = [run_workload(args, w) for w in args.workload]
    return next((c for c in codes if c != 0), 0)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def counters(record):
    """Deterministic counters of one record: the end-to-end run's counter
    block, or the traced run's counts (GC counts excepted)."""
    if record["trace"] == 0:
        return record.get("counters", {})
    return {name: m["value"] for name, m in record["result"]["metrics"].items()
            if m["unit"] in ("count", "bytes") and not name.startswith("gc.")}


def compare_counters(base, new):
    """Same workload, seed and mode: every deterministic counter must match.
    Returns the number of mismatches and of matched record pairs."""
    def key(r):
        return (r["workload"], r["seed"], r["trace"])
    index = {key(r): r for r in base}
    problems = pairs = 0
    for r in new:
        b = index.get(key(r))
        if b is None:
            print(f"UNMATCHED {r['workload']} seed {r['seed']} trace {r['trace']}: "
                  "no baseline record, counters not compared")
            continue
        pairs += 1
        old_counters = counters(b)
        for name, value in counters(r).items():
            old = old_counters.get(name)
            if isinstance(value, list) and isinstance(old, list):
                # Edit streams are time-bounded: compare the common prefix.
                n = min(len(value), len(old))
                same = value[:n] == old[:n]
            else:
                same = value == old
            if not same:
                problems += 1
                print(f"COUNTER {r['workload']} seed {r['seed']} {name}: "
                      f"{old} -> {value}")
    return problems, pairs


def compare_timings(base, new):
    def by_workload(records):
        out = {}
        for r in records:
            if r["trace"] != 0:
                continue
            for name, m in r["result"]["metrics"].items():
                out.setdefault(r["workload"], {}).setdefault(
                    (name, m["unit"]), []).append(m["value"])
        return out
    b, n = by_workload(base), by_workload(new)
    print(f"{'workload':<15} {'metric':<16} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'delta':>8} {'spread':>7}  verdict")
    for workload in sorted(set(b) & set(n)):
        for (name, unit) in sorted(set(b[workload]) & set(n[workload])):
            bq = quartiles(b[workload][(name, unit)])
            nq = quartiles(n[workload][(name, unit)])
            delta = (nq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            if abs(delta) <= spread:
                verdict = "within spread"
            else:
                verdict = "worse" if delta > 0 else "better"
            fmt = "{:.4f}/{:.4f}/{:.4f}"
            print(f"{workload:<15} {name + ' (' + unit + ')':<16} "
                  f"{fmt.format(*bq):>30} {fmt.format(*nq):>30} "
                  f"{delta:>+8.1%} {spread:>7.1%}  {verdict}")


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    compare_timings(base, new)
    problems, pairs = compare_counters(base, new)
    print(f"deterministic counters: {problems} mismatches in {pairs} "
          f"matched record pairs")
    if pairs == 0:
        print("no record pair shares workload, seed and mode: "
              "run both sets on the same seeds", file=sys.stderr)
        return 1
    return 1 if problems else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            print("usage: run.py compare BASE.jsonl NEW.jsonl", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, nargs="+",
                   choices=["edit-gcc", "opt-vortex"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="append a detailed JSON record to this file")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
