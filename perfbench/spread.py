#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for every metric, the
median over the runs and the spread: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median. Run it from the repository root:

    python3 perfbench/spread.py --workload live-stream --seeds 1-10 --seconds 30 [--trace 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed:\n{out}")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median {med:14.6g}  spread {spread:7.4f}  values {' '.join(f'{v:.6g}' for v in vs)}")


if __name__ == "__main__":
    main()
