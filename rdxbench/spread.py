#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 rdxbench/spread.py --workload mesh_wasm --seeds 1-10 [--seconds 10]

For every metric of the result it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
gives the metric. A spread above a third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" %
                  (seed, result["correct"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print("%-34s median %-14.6g spread %.4f%s%s" %
              (name, median, spread,
               "" if bound is None else "  bound %.2f" % bound, flag))


if __name__ == "__main__":
    main()
