#!/usr/bin/env python3
"""Wall-clock benchmark of the SGLA serving stack.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload solve_exact|update_stream \
      --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles sgla_core from src/) in Release under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks its
outputs, and prints one JSON object as the last line of stdout:

  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant and reports the per-layer metrics, writes its spans to
<build>/perfbench/traces/, and prints on stderr how far its end-to-end
numbers are from the last untraced run of the same workload and seed (the
tracing overhead). See perfbench/METRICS.md for what every metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_exact", "update_stream")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) if absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def build(build_dir):
    """Configures (once) and builds the benchmark binary; logs go to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             "-DSGLA_SANITIZE="],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "sgla_perfbench", "-j",
         jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "sgla_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    # The benchmark builds the library from the checkout's own sources.
    for needed in ("CMakeLists.txt", "src", spec_path):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    steal_before, total_before = cpu_ticks()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("the benchmark binary printed no result")
    stamp = json.loads(lines[0])["stamp"]
    result = json.loads(lines[-1])
    # Share of CPU time the hypervisor gave to other guests during the run:
    # on a shared machine, timings from runs with a high share are suspect.
    steal_after, total_after = cpu_ticks()
    if total_after > total_before:
        stamp["host_steal_frac"] = round(
            (steal_after - steal_before) / (total_after - total_before), 4)
    if stamp["build_type"] != "Release" or stamp["sanitizer"] != "none":
        fail(f"refusing a {stamp['build_type']}/{stamp['sanitizer']} build")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{args.workload} did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(result["metrics"]) - set(metrics)
    if extra:
        fail(f"{args.workload} reported metrics BENCHMARK.json lacks: "
             f"{sorted(extra)}")

    last_dir = os.path.join(build_dir, "last")
    os.makedirs(last_dir, exist_ok=True)
    last_path = os.path.join(last_dir, f"{args.workload}-seed{args.seed}.json")
    if not args.trace:
        with open(last_path, "w") as f:
            json.dump(metrics, f)
    elif os.path.exists(last_path):
        with open(last_path) as f:
            untraced = json.load(f)
        for name, value in sorted(untraced.items()):
            traced = metrics.get("traced." + name)
            if traced is None or not value["value"]:
                continue
            change = traced["value"] / value["value"] - 1.0
            print(f"tracing overhead {name}: untraced {value['value']:.6g} "
                  f"traced {traced['value']:.6g} ({change:+.1%})",
                  file=sys.stderr)

    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
