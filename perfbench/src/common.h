// Shared pieces of the wall-clock benchmark: run arguments, the result
// record every workload fills, sample statistics, fixture generation and
// the output checks' helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/mvag.h"
#include "la/dense.h"
#include "serve/engine.h"

namespace sgla {
namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }
inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (durable data dirs, side WALs).
  std::string work_dir;
  /// Where the traced run writes its spans; empty = do not write.
  std::string trace_out;
};

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces: its end-to-end metrics, the traced run's
/// per-layer metrics, the operation counts and every failed output check.
struct Run {
  Args args;
  Tracer* tracer = nullptr;  ///< non-null in the traced run only
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what);
  /// Counts one operation; a non-OK one is a failure and fails the run.
  void CountOp(bool ok, const std::string& what);
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
};

double Median(std::vector<double> values);
/// "name: v1 v2 ..." on stderr: every sample behind a reported statistic.
void LogSamples(const std::string& name, const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// The highest percentile with at least ten samples beyond it: the value at
/// sorted index n - 11. Runs with fewer than 55 samples keep a fifth of them
/// beyond it instead (at least one), so that one slow sample cannot become
/// the tail of a short run. `percentile` receives the rank used.
double Tail(std::vector<double> values, double* percentile);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Planted-partition multi-view fixture: graph views as SBMs of the given
/// (p_in, p_out) and Gaussian attribute views, all over one set of labels.
struct FixtureSpec {
  int64_t nodes = 0;
  int clusters = 0;
  std::vector<std::pair<double, double>> sbm;  ///< (p_in, p_out) per view
  int attribute_dim = 0;                       ///< 0 = no attribute view
  double separation = 3.0;
  double noise = 1.0;
};
core::MultiViewGraph MakeFixture(const FixtureSpec& spec, uint64_t seed);
/// `count` fixtures for one run, each from its own seed derived from `seed`.
std::vector<core::MultiViewGraph> MakeFixtures(const FixtureSpec& spec,
                                               uint64_t seed, int count);

/// The set-up of the in-memory workloads: registers graphs[i] as "g<i>"
/// and reports setup_s, the median registration time. Returns the entries,
/// or nothing once a registration failed.
std::vector<std::shared_ptr<const serve::GraphEntry>> RegisterAll(
    Run* run, serve::Engine* engine,
    const std::vector<core::MultiViewGraph>& graphs);

double Nmi(const std::vector<int32_t>& labels,
           const std::vector<int32_t>& truth);

/// FNV-1a over the raw bytes: bit-identity checks between repeated solves.
uint64_t HashLabels(const std::vector<int32_t>& labels);
uint64_t HashMatrix(const la::DenseMatrix& m);

bool AllFinite(const la::DenseMatrix& m);

}  // namespace perfbench
}  // namespace sgla

#endif  // PERFBENCH_COMMON_H_
