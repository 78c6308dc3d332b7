#!/usr/bin/env python3
"""Checks that the benchmark is deterministic in its seed and matches
BENCHMARK.json.

    python3 rdxbench/check_determinism.py [--workloads kv_ebpf,...] [--seed 7]

For each workload it runs the benchmark with one seed untraced, again
untraced, and traced, then untraced with the next seed, and checks that:
  - the two untraced runs print byte-identical virtual results (every v_*
    metric and every per-layer count),
  - tracing does not change them,
  - the next seed does change them (its inputs differ),
  - each run is correct with no failed operation, and reports exactly the
    metrics BENCHMARK.json lists for its mode.
Exits non-zero on the first violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    out = subprocess.run(
        ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d trace %d exited %d:\n%s" %
                 (workload, seed, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    virtual = next(l for l in lines if l.startswith("virtual "))
    return virtual, json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="kv_ebpf,fleet_deploy,mesh_wasm")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }

    for workload in args.workloads.split(","):
        first, result = run(workload, args.seed, 0)
        again, _ = run(workload, args.seed, 0)
        traced, traced_result = run(workload, args.seed, 1)
        other, _ = run(workload, args.seed + 1, 0)
        for mode, res in ((0, result), (1, traced_result)):
            check(res["correct"] and res["failed"] == 0,
                  "%s trace %d: correct=%s failed=%d" %
                  (workload, mode, res["correct"], res["failed"]))
            check(list(res["metrics"]) == expected[mode],
                  "%s trace %d reports other metrics than BENCHMARK.json" %
                  (workload, mode))
        check(first == again, "%s: same seed, different virtual results" %
              workload)
        check(first == traced, "%s: tracing changed the virtual results" %
              workload)
        check(first != other, "%s: seed %d and %d gave identical results" %
              (workload, args.seed, args.seed + 1))
        print("%s: deterministic in its seed, %d + %d metrics as listed" %
              (workload, len(expected[0]), len(expected[1])))


if __name__ == "__main__":
    main()
