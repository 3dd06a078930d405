#!/usr/bin/env bash
# One-command tier-1 gate: configure, build everything (-j), run ctest.
set -euo pipefail

usage() {
  cat <<'EOF'
Usage: scripts/check.sh [flags] [ctest args...]

Flags (combinable, e.g. `--asan --bench-smoke`):
  --asan         AddressSanitizer build in build-asan/
  --tsan         ThreadSanitizer build in build-tsan/ (pool forced to
                 SGLA_THREADS=4 so kernels actually run threaded)
  --ubsan        UndefinedBehaviorSanitizer build in build-ubsan/
                 (findings abort: -fno-sanitize-recover=undefined)
  --bench-smoke  skip ctest; run the Engine microbenches (and the pool
                 dispatch bench) at a tiny time
                 budget, five randomly interleaved repetitions each, and
                 write BENCH_engine.json (per-kernel ns + allocs_per_iter;
                 the steady-state benches must report 0; perf_gate.py times
                 the medians)
  --rpc-load     skip ctest; run the closed-loop RPC load generator at a
                 small fixed budget and write BENCH_rpc.json (p50/p95/p99
                 latency; gated by scripts/perf_gate.py --latency)
  --recovery     skip ctest; run the crash-recovery harness (sgla_crashgen):
                 SIGKILL a persistent engine at seeded-random points and
                 fail unless recovered solves are bit-identical to an
                 uninterrupted run (combinable with --asan)
  --isa NAME     pin the SIMD dispatch path for everything this invocation
                 runs (exports SGLA_ISA=NAME; scalar|avx2|avx512).
                 Unavailable or unknown names warn and fall back to
                 auto-detection, same as the env var.
  --help, -h     this message

--asan, --tsan and --ubsan are mutually exclusive. Sanitizer builds cannot
be combined with --bench-smoke or --rpc-load: sanitizer timings are 10-50x
off, and a sanitizer-built BENCH_*.json silently committed as a baseline
would mask every real regression behind an enormous headroom.

Anything else is passed through to ctest (e.g. -R sharding_test).
Environment:
  SGLA_CHECK_BUILD_DIR  override the build directory
EOF
}

cd "$(dirname "$0")/.."

sanitizer=""
bench_smoke=0
rpc_load=0
recovery=0
ctest_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --asan|--tsan|--ubsan)
      flag_sanitizer=address
      [[ "$1" == "--tsan" ]] && flag_sanitizer=thread
      [[ "$1" == "--ubsan" ]] && flag_sanitizer=undefined
      if [[ -n "${sanitizer}" && "${sanitizer}" != "${flag_sanitizer}" ]]; then
        echo "check.sh: --asan, --tsan and --ubsan are mutually exclusive" >&2
        exit 2
      fi
      sanitizer="${flag_sanitizer}"
      ;;
    --bench-smoke) bench_smoke=1 ;;
    --rpc-load) rpc_load=1 ;;
    --recovery) recovery=1 ;;
    --isa)
      if [[ $# -lt 2 ]]; then
        echo "check.sh: --isa needs a name (scalar|avx2|avx512)" >&2
        exit 2
      fi
      shift
      export SGLA_ISA="$1"
      ;;
    --help|-h) usage; exit 0 ;;
    *) ctest_args+=("$1") ;;
  esac
  shift
done

if [[ -n "${sanitizer}" && ( "${bench_smoke}" == "1" || "${rpc_load}" == "1" ) ]]; then
  # Refuse instead of warn: a sanitizer-built BENCH_*.json committed as a
  # baseline poisons the perf gate (sanitizer timings are 10-50x off).
  echo "check.sh: --bench-smoke/--rpc-load cannot run in a sanitizer build;" \
       "benchmark and latency baselines must come from plain builds" >&2
  exit 2
fi

if [[ "${recovery}" == "1" && ( "${bench_smoke}" == "1" || "${rpc_load}" == "1" ) ]]; then
  # One skip-ctest mode per invocation: the recovery harness kills and
  # restarts child processes, which would corrupt a concurrent benchmark's
  # timings anyway.
  echo "check.sh: --recovery cannot be combined with --bench-smoke/--rpc-load" >&2
  exit 2
fi

build_dir="${SGLA_CHECK_BUILD_DIR:-build}"
cmake_args=()
if [[ "${sanitizer}" == "address" ]]; then
  build_dir="${SGLA_CHECK_BUILD_DIR:-build-asan}"
  cmake_args+=(-DSGLA_SANITIZE=address)
elif [[ "${sanitizer}" == "thread" ]]; then
  # ThreadSanitizer gate for the deterministic execution layer: force the
  # pool wide even on small CI machines so kernels actually run threaded.
  build_dir="${SGLA_CHECK_BUILD_DIR:-build-tsan}"
  cmake_args+=(-DSGLA_SANITIZE=thread)
  export SGLA_THREADS="${SGLA_THREADS:-4}"
elif [[ "${sanitizer}" == "undefined" ]]; then
  build_dir="${SGLA_CHECK_BUILD_DIR:-build-ubsan}"
  cmake_args+=(-DSGLA_SANITIZE=undefined)
fi

jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "${build_dir}" -S . "${cmake_args[@]}"
cmake --build "${build_dir}" -j "${jobs}"

if [[ "${bench_smoke}" == "1" ]]; then
  # Perf-trajectory smoke: run the engine-layer microbenches at a tiny time
  # budget and archive per-kernel ns + allocation counts (the steady-state
  # objective benches must report allocs_per_iter == 0). Five repetitions:
  # perf_gate.py times each bench by their median, since one 0.05 s run
  # flips between OK and REGRESSION on a shared host. Interleaving spreads
  # each bench's repetitions over the whole run, so one slow phase of the
  # host cannot fill all five. The JSON is machine-readable
  # google-benchmark output; future PRs diff it.
  if [[ -x "${build_dir}/bench_micro_substrates" ]]; then
    "${build_dir}/bench_micro_substrates" \
      --benchmark_filter='Engine|Isa|Coarsen|ThreadPoolDispatch' \
      --benchmark_min_time=0.05 \
      --benchmark_repetitions=5 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_out=BENCH_engine.json \
      --benchmark_out_format=json
    echo "check.sh: wrote BENCH_engine.json"
  else
    echo "check.sh: bench_micro_substrates not built (google-benchmark" \
         "missing); skipping bench smoke"
  fi
  exit 0
fi

if [[ "${rpc_load}" == "1" ]]; then
  # Tail-latency smoke: drive the RPC server closed-loop at a small fixed
  # budget and archive the p50/p95/p99 report. The budget is deliberately
  # tiny — the gate (perf_gate.py --latency) watches for multiples, not
  # percents, so a short run is enough signal.
  "${build_dir}/sgla_loadgen" --clients 6 --requests 25 --nodes 400 \
    --fast-fraction 0.5 --out BENCH_rpc.json
  echo "check.sh: wrote BENCH_rpc.json"
  exit 0
fi

if [[ "${recovery}" == "1" ]]; then
  # Crash-recovery gate: kill -9 a persistent engine at seeded-random points
  # (the seed is logged; SGLA_CRASH_SEED reproduces a red run) and require
  # the recovered solves to be bit-identical to an uninterrupted run, across
  # the same threads x shards matrix the determinism gate uses. The workdir
  # is left behind on failure so CI can upload the WAL + checkpoints.
  workdir="${build_dir}/crashgen"
  rm -rf "${workdir}"
  status=0
  for threads in 1 4; do
    for shards in 1 4; do
      echo "check.sh: crashgen SGLA_THREADS=${threads} shards=${shards}"
      if ! SGLA_THREADS="${threads}" "${build_dir}/sgla_crashgen" \
          --dir "${workdir}/t${threads}s${shards}" --shards "${shards}"; then
        status=1
      fi
    done
  done
  if [[ "${status}" != "0" ]]; then
    echo "check.sh: crash-recovery gate FAILED (state in ${workdir})" >&2
    exit 1
  fi
  rm -rf "${workdir}"
  echo "check.sh: crash-recovery gate green (${build_dir})"
  exit 0
fi

ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
  ${ctest_args+"${ctest_args[@]}"}

echo "check.sh: all green (${build_dir})"
