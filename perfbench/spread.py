#!/usr/bin/env python3
"""Runs one workload of the benchmark several times, each with another seed,
and prints each metric's median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. Run it from the repository root:

    python3 perfbench/spread.py --workload sharded_replicated --runs 10 --seconds 50

--first-seed picks the first of the consecutive seeds, so a set of runs
can be repeated.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            sys.exit(f"run with seed {seed} exited {proc.returncode}")
        last = proc.stdout.strip().splitlines()[-1]
        res = json.loads(last)
        if not res["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect output")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    print(f"{'metric':32} {'median':>12} {'unit':>8} {'iqr/median':>11}")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
        else:
            spread = 0.0
        print(f"{name:32} {med:12.6g} {units[name]:>8} {spread:11.4f}")


if __name__ == "__main__":
    main()
