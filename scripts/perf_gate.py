#!/usr/bin/env python3
"""Perf regression gate over google-benchmark JSON and loadgen latency JSON.

Usage:
  perf_gate.py BASELINE.json CURRENT.json             # microbench mode
  perf_gate.py --latency BASELINE.json CURRENT.json   # RPC tail-latency mode

Microbench mode — four checks:

1. **Zero-allocation contract (hard fail).** The steady-state engine benches
   (`BM_EngineObjectiveSteadyState`, `BM_EngineAggregateSteadyState`) must
   report `allocs_per_iter == 0` in CURRENT, on every repetition. Full-solve
   and update benches legitimately allocate and are recorded, not gated.

2. **Normalized timing ratio gate.** Each bench is timed by its `median`
   aggregate when the report has one (`scripts/check.sh --bench-smoke` runs
   five repetitions), else by its single run. For every *compute-bound*
   bench present in both files (TIMING_GATED prefixes — the async full-solve
   benches report microsecond main-thread submit/wait cpu_time while the
   work runs on pool threads, which is pure scheduler noise; they are printed
   informationally, and gated on real_time by check 4), compute ratio = current_cpu_ns / baseline_cpu_ns, then
   divide by the **median ratio across the gated benches** — the median
   absorbs machine-speed differences between the baseline machine and the
   runner, so the gate flags benches that regressed *relative to the rest of
   the suite*, not slow hardware. Normalized ratio > FAIL_RATIO (1.5)
   fails, > WARN_RATIO (1.2) warns.

3. **Absolute raw-ratio ceiling.** Median normalization is blind to a
   *uniform* regression: if every gated bench slows down 10x together, every
   normalized ratio is still 1.0. Any gated bench with a raw ratio above
   RAW_FAIL_RATIO (3.0) therefore fails outright. The ceiling is deliberately
   loose — CI runners legitimately differ from the baseline machine by
   2x-ish — so it only trips on regressions far past machine variance; the
   normalized gate remains the sensitive check. Benches reporting
   cpu_time == 0 (timer granularity underflow at tiny budgets) are skipped
   with a warning instead of silently dropped.

4. **Wall-time gate.** The full-solve benches (REALTIME_GATED:
   `BM_EngineSolve*`) and the pool dispatch bench (`BM_ThreadPoolDispatch`)
   are timed by `real_time`, because their work runs on session workers
   and pool threads that the caller's cpu_time never sees. Their ratios are
   normalized by their own median and held to the same FAIL_RATIO /
   RAW_FAIL_RATIO as checks 2 and 3. This sits next to the cpu_time gate,
   it does not replace it: a caller that spins while the pool finishes its
   job counts that wait as cpu_time, so a cpu_time ratio that moves with a
   pool change has to be explained, not loosened.

Latency mode (--latency) — gates tools/loadgen.cc reports:

- `errors` must be 0 (typed RESOURCE_EXHAUSTED rejections are *not* errors).
- p99 ratio current/baseline > P99_FAIL_RATIO (4.0) fails, > P99_WARN_RATIO
  (2.0) warns. Tail latency on shared runners is far noisier than cpu_time,
  hence the wide thresholds; the gate exists to catch serving-path
  regressions measured in multiples, not percents.
- Reports whose `sanitizer` tag is not "none" are rejected on either side:
  sanitizer builds are 10-50x slower and a sanitizer-tagged baseline would
  mask any real regression (the same reason check.sh refuses
  `--asan --bench-smoke`).

Re-baselining: run `scripts/check.sh --bench-smoke` (microbench) or
`scripts/check.sh --rpc-load` (latency) — both refuse sanitizer builds —
or download the BENCH artifact from a trusted CI run, and commit the JSON
as BENCH_baseline.json / BENCH_rpc_baseline.json. Do this whenever benches
are added/renamed or an intentional perf trade-off moves the numbers, on
the parent's binary: a baseline from a change's own binary absorbs that
change's regressions (see DESIGN.md, "Perf regression gate").
"""

import json
import statistics
import sys

FAIL_RATIO = 1.5
WARN_RATIO = 1.2
# Absolute ceiling on raw (un-normalized) ratios: catches uniform
# regressions the median normalization cancels out. Loose on purpose —
# baseline-vs-runner machine variance alone is routinely ~2x.
RAW_FAIL_RATIO = 3.0
P99_FAIL_RATIO = 4.0
P99_WARN_RATIO = 2.0
ALLOC_GATED = ("BM_EngineObjectiveSteadyState", "BM_EngineAggregateSteadyState")
# Compute-bound benches whose cpu_time measures real work on the calling
# thread. BM_EngineSolveCluster* and BM_EngineSolveFastTier are
# deliberately absent: their solves run on session workers, so caller-thread
# cpu_time is submit/wait overhead (scheduler noise on shared runners); they
# are gated on real_time instead (REALTIME_GATED).
TIMING_GATED = (
    "BM_EngineObjectiveSteadyState",
    "BM_EngineAggregateSteadyState",
    "BM_EngineUpdateGraphValueOnly",
    "BM_CoarsenGraph",
)
# Benches gated on real_time (check 4): whole solves and pool dispatch,
# whose work runs off the calling thread.
REALTIME_GATED = (
    "BM_EngineSolve",
    "BM_ThreadPoolDispatch",
)


def load_benches(path):
    """Returns (timed, runs) for a google-benchmark report.

    `runs` maps each bench name to every repetition it reported. `timed` maps
    it to the entry the timing gate reads: the bench's `median` aggregate
    when the report has one (a --benchmark_repetitions run), else its single
    run — one short run alone flips between OK and REGRESSION on a shared
    host, the median of five does not.
    """
    with open(path) as f:
        report = json.load(f)
    runs = {}
    medians = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median" and bench.get("run_name"):
                medians[bench["run_name"]] = bench
            continue
        name = bench.get("name", "")
        if name:
            runs.setdefault(name, []).append(bench)
    timed = {name: reps[-1] for name, reps in runs.items()}
    timed.update(medians)
    return timed, runs


def timing_ratios(baseline, current, field, gated, warnings):
    """Returns ({gated bench: current/baseline}, {other bench: ratio}) for
    the benches present in both reports, timed by `field`."""
    ratios = {}
    informational = {}
    for name, bench in current.items():
        base = baseline.get(name)
        if base is None:
            continue
        base_ns = base.get(field)
        cur_ns = bench.get(field)
        if base_ns is None or cur_ns is None:
            continue
        if base_ns <= 0 or cur_ns <= 0:
            # Timer granularity underflow at tiny --benchmark_min_time
            # budgets: a 0 here is a measurement artifact, but silently
            # dropping the bench would shrink the gate without a trace.
            warnings.append(
                f"{name}: {field} is 0 in "
                f"{'baseline' if base_ns <= 0 else 'current'}; skipped")
            continue
        if name.startswith(gated):
            ratios[name] = cur_ns / base_ns
        else:
            informational[name] = cur_ns / base_ns
    return ratios, informational


def gate_ratios(field, ratios, failures, warnings):
    """Normalizes `ratios` by their median and applies the normalized and
    raw ceilings, appending to `failures` / `warnings`."""
    if not ratios:
        warnings.append(f"no {field}-gated benches shared between baseline "
                        f"and current")
        return
    median = statistics.median(ratios.values())
    print(f"{field}: median raw ratio (machine-speed factor): {median:.3f}")
    for name, ratio in sorted(ratios.items()):
        normalized = ratio / median
        marker = " "
        if normalized > FAIL_RATIO:
            failures.append(f"{name}: {field} normalized ratio "
                            f"{normalized:.2f} > {FAIL_RATIO}")
            marker = "F"
        elif ratio > RAW_FAIL_RATIO:
            # The uniform-regression backstop: normalization can hide a
            # fleet-wide slowdown, the raw ceiling cannot.
            failures.append(
                f"{name}: {field} raw ratio {ratio:.2f} > {RAW_FAIL_RATIO} "
                f"(absolute ceiling; uniform regressions are invisible "
                f"to the normalized gate)")
            marker = "F"
        elif normalized > WARN_RATIO:
            warnings.append(f"{name}: {field} normalized ratio "
                            f"{normalized:.2f} > {WARN_RATIO}")
            marker = "W"
        print(f"  [{marker}] {name}: {field} raw {ratio:.2f} "
              f"normalized {normalized:.2f}")


def microbench_gate(baseline_path, current_path):
    baseline, _ = load_benches(baseline_path)
    current, current_runs = load_benches(current_path)
    failures = []
    warnings = []

    # 1. Allocation contract, on every repetition: a median can hide one
    #    allocating run.
    alloc_checked = 0
    for name, reps in sorted(current_runs.items()):
        if not name.startswith(ALLOC_GATED):
            continue
        alloc_checked += 1
        for rep, bench in enumerate(reps):
            allocs = bench.get("allocs_per_iter")
            if allocs is None or allocs > 0:
                failures.append(f"{name} (repetition {rep}): "
                                f"allocs_per_iter={allocs} (contract: 0)")
    if alloc_checked == 0:
        failures.append("no steady-state engine benches found in current run")

    # 2 + 3. Machine-normalized cpu_time ratios plus the raw ceiling.
    ratios, informational = timing_ratios(baseline, current, "cpu_time",
                                          TIMING_GATED, warnings)
    gate_ratios("cpu_time", ratios, failures, warnings)
    # 4. The same on real_time for work that runs off the calling thread.
    walled = {name: bench for name, bench in current.items()
              if name.startswith(REALTIME_GATED)}
    wall_ratios, _ = timing_ratios(baseline, walled, "real_time",
                                   REALTIME_GATED, warnings)
    gate_ratios("real_time", wall_ratios, failures, warnings)
    for name, ratio in sorted(informational.items()):
        print(f"  [i] {name}: raw {ratio:.2f} (not gated: async/submit "
              f"overhead timing)")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        sys.exit(1)
    print(f"OK: {alloc_checked} alloc-gated benches clean, "
          f"{len(ratios)} cpu_time and {len(wall_ratios)} real_time ratios "
          f"within {FAIL_RATIO}x of baseline")


def load_latency(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("kind") != "sgla_rpc_loadgen":
        sys.exit(f"ERROR: {path} is not a loadgen report "
                 f"(kind={report.get('kind')!r})")
    return report


def latency_gate(baseline_path, current_path):
    baseline = load_latency(baseline_path)
    current = load_latency(current_path)
    failures = []
    warnings = []

    for label, report, path in (("baseline", baseline, baseline_path),
                                ("current", current, current_path)):
        tag = report.get("sanitizer", "unknown")
        if tag != "none":
            sys.exit(f"ERROR: {label} report {path} was produced by a "
                     f"'{tag}'-sanitized build; sanitizer timings are not "
                     f"comparable. Re-run without sanitizers.")

    errors = current.get("errors", -1)
    if errors != 0:
        failures.append(f"loadgen reported {errors} request errors "
                        f"(rejections are counted separately and are fine)")
    if current.get("requests", 0) <= 0:
        failures.append("loadgen report contains no requests")

    base_p99 = baseline.get("latency_ns", {}).get("p99", 0)
    cur_p99 = current.get("latency_ns", {}).get("p99", 0)
    if base_p99 > 0 and cur_p99 > 0:
        ratio = cur_p99 / base_p99
        print(f"p99 latency: baseline {base_p99 / 1e6:.3f} ms, "
              f"current {cur_p99 / 1e6:.3f} ms, ratio {ratio:.2f}")
        if ratio > P99_FAIL_RATIO:
            failures.append(
                f"p99 ratio {ratio:.2f} > {P99_FAIL_RATIO} (tail-latency "
                f"regression)")
        elif ratio > P99_WARN_RATIO:
            warnings.append(f"p99 ratio {ratio:.2f} > {P99_WARN_RATIO}")
    else:
        warnings.append("p99 missing from baseline or current; not gated")
    for p in ("p50", "p95"):
        base_v = baseline.get("latency_ns", {}).get(p, 0)
        cur_v = current.get("latency_ns", {}).get(p, 0)
        if base_v > 0 and cur_v > 0:
            print(f"  [i] {p}: baseline {base_v / 1e6:.3f} ms, "
                  f"current {cur_v / 1e6:.3f} ms, ratio "
                  f"{cur_v / base_v:.2f} (informational)")
    # Fast-tier latencies ride along informationally: the nmi-gap gate owns
    # the fast tier's speedup contract, this gate owns only the exact tail.
    for p in ("p50", "p99"):
        cur_v = current.get("fast_latency_ns", {}).get(p, 0)
        if cur_v > 0:
            print(f"  [i] fast {p}: current {cur_v / 1e6:.3f} ms "
                  f"(informational; gated by the nmi-gap job)")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        sys.exit(1)
    print(f"OK: {current.get('requests')} requests, "
          f"{current.get('ok')} ok, {current.get('rejected')} rejected, "
          f"0 errors; p99 within {P99_FAIL_RATIO}x of baseline")


def main():
    args = sys.argv[1:]
    latency = False
    if args and args[0] == "--latency":
        latency = True
        args = args[1:]
    if len(args) != 2:
        sys.exit(__doc__)
    if latency:
        latency_gate(args[0], args[1])
    else:
        microbench_gate(args[0], args[1])


if __name__ == "__main__":
    main()
