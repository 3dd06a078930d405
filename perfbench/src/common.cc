#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "util/rng.h"

namespace sgla {
namespace perfbench {

void Run::Check(bool ok, const std::string& what) {
  if (ok) return;
  failures.push_back(what);
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Run::CountOp(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) ++failed;
  Check(ok, what);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void LogSamples(const std::string& name, const std::vector<double>& values) {
  std::cerr << name << ":";
  for (double v : values) std::cerr << " " << v;
  std::cerr << "\n";
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t beyond = std::min<size_t>(10, std::max<size_t>(1, n / 5));
  const size_t index = n > beyond ? n - 1 - beyond : 0;
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

core::MultiViewGraph MakeFixture(const FixtureSpec& spec, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> labels =
      data::BalancedLabels(spec.nodes, spec.clusters, &rng);
  core::MultiViewGraph mvag(spec.nodes, spec.clusters);
  for (const auto& [p_in, p_out] : spec.sbm) {
    mvag.AddGraphView(data::SbmGraph(labels, spec.clusters, p_in, p_out, &rng));
  }
  if (spec.attribute_dim > 0) {
    mvag.AddAttributeView(data::GaussianAttributes(
        labels, spec.clusters, spec.attribute_dim, spec.separation, spec.noise,
        &rng));
  }
  mvag.set_labels(std::move(labels));
  return mvag;
}

std::vector<core::MultiViewGraph> MakeFixtures(const FixtureSpec& spec,
                                               uint64_t seed, int count) {
  std::vector<core::MultiViewGraph> graphs;
  for (int g = 0; g < count; ++g) {
    graphs.push_back(MakeFixture(spec, seed * count + g));
  }
  return graphs;
}

std::vector<std::shared_ptr<const serve::GraphEntry>> RegisterAll(
    Run* run, serve::Engine* engine,
    const std::vector<core::MultiViewGraph>& graphs) {
  std::vector<double> setup_s;
  std::vector<std::shared_ptr<const serve::GraphEntry>> entries;
  for (size_t g = 0; g < graphs.size(); ++g) {
    const auto t0 = Clock::now();
    auto registered =
        engine->RegisterGraph("g" + std::to_string(g), graphs[g]);
    setup_s.push_back(MsSince(t0) / 1e3);
    run->CountOp(registered.ok(), "RegisterGraph failed");
    if (!registered.ok()) return {};
    entries.push_back(*registered);
  }
  LogSamples("setup_s", setup_s);
  run->E2e("setup_s", Median(setup_s), "s");
  return entries;
}

double Nmi(const std::vector<int32_t>& labels,
           const std::vector<int32_t>& truth) {
  if (labels.size() != truth.size() || labels.empty()) return 0.0;
  return eval::EvaluateClustering(labels, truth).nmi;
}

namespace {
uint64_t Fnv(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

uint64_t HashLabels(const std::vector<int32_t>& labels) {
  return Fnv(labels.data(), labels.size() * sizeof(int32_t));
}

uint64_t HashMatrix(const la::DenseMatrix& m) {
  return Fnv(m.data().data(), m.data().size() * sizeof(double)) ^
         static_cast<uint64_t>(m.rows() * 1315423911 + m.cols());
}

bool AllFinite(const la::DenseMatrix& m) {
  return std::all_of(m.data().begin(), m.data().end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace perfbench
}  // namespace sgla
