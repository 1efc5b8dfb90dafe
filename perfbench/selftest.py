#!/usr/bin/env python3
"""Self-test of the benchmark. From the repository root:

    python3 perfbench/selftest.py

Runs every workload at its tiny size (slots-1 campaign, default-size
trees, 10^4 KV transfers) through run.py and checks that

- every run is correct with no failed op, at seed 0 and at held-out
  seed 7;
- the printed metric names are exactly BENCHMARK.json's end_to_end
  names (untraced) or per_layer names (traced), and every end-to-end
  value is positive;
- in the traced run the attributed times plus the remainder equal the
  wall time, and the remainder lies between 0 and the wall time, so the
  sampled costs do not over-attribute;
- the exact per-layer counts are identical across two traced runs of
  the same seed.

Takes under a minute. Exits 1 and lists the failures if any check
fails.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["campaign", "trees", "kv-cpu", "kv-wire"]
# counts the program computes exactly; host times and GC heap sizes vary
EXACT = [
    "verify.states",
    "verify.memo_hits",
    "verify.paths",
    "verify.violations",
    "verify.memo_resident",
    "verify.memo_evictions",
    "verify.snapshots_per_node",
    "verify.bytes_hashed_per_node",
    "gc.minor_words_per_state",
    "gc.minor_words_per_transfer",
    "kv.descriptors_per_doorbell",
    "kv.cpu_util",
    "kv.wire_util",
    "kv.ni_util",
    "kv.wire_bytes_per_value_byte",
    "sim_p50_us",
    "sim_p99_us",
    "sim_p999_us",
    "sim_goodput_gbps",
    "core.initiation_us",
]
ATTRIBUTED = [
    "attr.os_s",
    "attr.machine_s",
    "attr.net_s",
    "attr.verify_memo_s",
    "attr.verify_oracle_s",
    "attr.util_s",
    "attr.obs_s",
    "attr.self_s",
]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = sorted(m["name"] for m in spec["end_to_end"])
    per_layer = sorted(m["name"] for m in spec["per_layer"])
    for w in WORKLOADS:
        for seed in (0, 7):
            r = run(w, seed, 0)
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} seed {seed}: correct, {r['failed']} of {r['attempted']} failed")
            expect(sorted(r["metrics"]) == end_to_end, f"{w} seed {seed}: end-to-end names")
            expect(all(v["value"] > 0 for v in r["metrics"].values()),
                   f"{w} seed {seed}: end-to-end values positive")
        t1, t2 = run(w, 0, 1), run(w, 0, 1)
        m1 = {k: v["value"] for k, v in t1["metrics"].items()}
        m2 = {k: v["value"] for k, v in t2["metrics"].items()}
        expect(t1["correct"] and t1["failed"] == 0, f"{w} traced: correct")
        expect(sorted(m1) == per_layer, f"{w} traced: per-layer names")
        parts = sum(m1[k] for k in ATTRIBUTED)
        expect(math.isclose(parts, m1["attr.wall_s"], rel_tol=1e-9, abs_tol=1e-12),
               f"{w} traced: attributed {parts:.6f} s + remainder = wall {m1['attr.wall_s']:.6f} s")
        expect(0 <= m1["attr.self_s"] <= m1["attr.wall_s"],
               f"{w} traced: 0 <= remainder {m1['attr.self_s']:.6f} s <= wall")
        moved = [k for k in EXACT if m1[k] != m2[k]]
        expect(not moved, f"{w} traced: exact counts repeat ({', '.join(moved) or 'all equal'})")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
