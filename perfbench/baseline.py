#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records the baseline.

Usage (from the root of a checkout):

  python3 perfbench/baseline.py --seeds 101-110 --out perfbench/baseline.json

Every workload of BENCHMARK.json runs once per seed untraced, then once
traced on the first seed. For each end-to-end metric the output holds the
values, their median and quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound; for the traced run,
every per-layer metric and each end-to-end metric's change against the
untraced run of the same seed (the tracing overhead). A run that exits
non-zero or reports correct: false stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"baseline: {workload} seed {seed} failed its checks")
    print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr)
    return json.loads(lines[-2])["stamp"], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="FIRST-LAST")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        steal = []
        for seed in seeds:
            stamp, result = run(workload, seed, seconds, 0)
            steal.append(stamp.get("host_steal_frac"))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            summary[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "bound": m["bound"], "values": v}
        _, traced = run(workload, seeds[0], seconds, 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        # The traced run's own end-to-end numbers against the untraced run
        # of the same seed: the tracing overhead.
        overhead = {}
        for name, m in summary.items():
            untraced = m["values"][0]
            if untraced:
                overhead[name] = layers["traced." + name] / untraced - 1.0
        baseline["workloads"][workload] = {
            "stamp": stamp, "host_steal_frac": steal, "end_to_end": summary,
            "traced_seed": seeds[0], "tracing_overhead": overhead,
            "per_layer": layers}
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
