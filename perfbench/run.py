#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the repository root. Builds the benchmark program from source
with dune, then:

- with --trace 0, times set-ups in one process, then runs one pass per
  fresh process for as many passes as fit in S seconds (at least one),
  and reports the median over passes of each end-to-end metric,
  including each pass process's peak RSS (measured here, from outside);
- with --trace 1, makes one traced run and reports the per-layer
  metrics.

The result object is the last line of stdout. Exits non-zero without a
result when the build or a run fails. See NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["campaign", "trees", "kv-cpu", "kv-wire"]
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
# every run must end within 180 s of the build: no pass starts after
# DEADLINE_S, and a process still running at 170 s is killed
DEADLINE_S = 150


def build():
    # the dune cache lives outside the checkout, so it stays off
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run_once(args, timeout_s, *mode):
    """One fresh process; returns (result dict, its peak RSS in MB)."""
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        *mode,
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout_s, child.kill)
    killer.start()
    try:
        out = child.stdout.read()
    finally:
        # wait4 reaps this child alone, so its rusage is the pass's own
        # peak RSS, not the build's or another pass's
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
        child.stdout.close()
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"bench.exe exited with {child.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def remaining(start):
    return start + 170 - time.monotonic()


def measure(args, start):
    """setup_s from a set-up process, then one pass per fresh process
    for as many passes as fit in --seconds (at least one); medians over
    passes."""
    setup, _ = run_once(args, remaining(start), "--setup")
    passes = []
    t0 = time.monotonic()
    while True:
        result, rss = run_once(args, remaining(start))
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        passes.append(result)
        spent = time.monotonic() - t0
        # stop before a pass of the average length would overrun
        if spent * (len(passes) + 1) / len(passes) > args.seconds:
            break
        if time.monotonic() - start > DEADLINE_S:
            break
    metrics = {
        name: {
            "value": statistics.median(r["metrics"][name]["value"] for r in passes),
            "unit": first["unit"],
        }
        for name, first in passes[0]["metrics"].items()
    }
    metrics.update(setup["metrics"])
    return {
        "correct": setup["correct"] and all(r["correct"] for r in passes),
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    args = p.parse_args()
    if not build():
        return 1
    # the 180 s limit leaves out the first build in a fresh checkout
    start = time.monotonic()
    try:
        if args.trace == 0:
            result = measure(args, start)
        else:
            result, _ = run_once(args, remaining(start), "--trace", "1")
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    # compact, so the line stays short with every per-layer metric in it
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
