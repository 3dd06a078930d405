// sgla_perfbench: runs one benchmark workload and prints its result as the
// last line of stdout. perfbench/run.py builds this binary and drives it.
//
//   sgla_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out PATH]
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "la/simd.h"
#include "layers.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

const char* SanitizerTag() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#endif
#endif
  return PERFBENCH_SANITIZE[0] != '\0' ? PERFBENCH_SANITIZE : "none";
}

void Usage() {
  std::cerr << "usage: sgla_perfbench --workload solve_exact|update_stream"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--trace-out PATH]\n";
}

bool ParseArgs(int argc, char** argv, sgla::perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetrics(std::ostream& out,
                  const std::map<std::string, sgla::perfbench::Metric>& metrics) {
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << JsonString(name)
        << ": {\"value\": " << metric.value
        << ", \"unit\": " << JsonString(metric.unit) << "}";
    first = false;
  }
  out << "}";
}

}  // namespace

int main(int argc, char** argv) {
  sgla::perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitizer = SanitizerTag();
  const int threads = sgla::util::ThreadPool::DefaultThreads();
  const char* threads_env = std::getenv("SGLA_THREADS");
  std::ostringstream stamp;
  stamp << "{\"stamp\": {\"workload\": " << JsonString(args.workload)
        << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"pool_threads\": " << threads << ", \"SGLA_THREADS\": "
        << JsonString(threads_env ? threads_env : "")
        << ", \"isa\": " << JsonString(sgla::la::simd::ActiveIsaName())
        << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << JsonString(build_type)
        << ", \"sanitizer\": " << JsonString(sanitizer) << "}}";
  std::cout << stamp.str() << std::endl;
  // Debug and sanitizer timings are not comparable with anything.
  if (build_type != "Release" || sanitizer != "none") {
    std::cerr << "perfbench: refusing a " << build_type << "/" << sanitizer
              << " build; timings need a plain Release build\n";
    return 2;
  }

  sgla::perfbench::Run run;
  run.args = args;
  sgla::perfbench::Tracer tracer;
  if (args.trace) run.tracer = &tracer;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  if (args.workload == "solve_exact") {
    sgla::perfbench::SolveExact(&run);
  } else if (args.workload == "update_stream") {
    sgla::perfbench::UpdateStream(&run);
  } else {
    Usage();
    return 2;
  }
  run.E2e("peak_rss_mb", sgla::perfbench::PeakRssMb(), "MiB");

  if (args.trace) {
    sgla::perfbench::SelfTimes(&run);
    sgla::perfbench::TracedCopies(&run);
    sgla::perfbench::ZeroUnmeasured(&run);
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::cerr << "perfbench: could not write " << args.trace_out << "\n";
    }
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "{\"correct\": " << (run.failures.empty() ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": ";
  PrintMetrics(std::cout, args.trace ? run.layers : run.e2e);
  std::cout << "}" << std::endl;
  return 0;
}
