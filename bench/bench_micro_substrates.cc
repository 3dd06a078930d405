// Micro-benchmarks (google-benchmark) for the numerical substrates: SpMV,
// Laplacian aggregation, Lanczos eigensolves, KNN construction, k-means and
// the COBYLA / Nelder-Mead optimizers on the true SGLA objective. These back
// the DESIGN.md ablation notes (aggregator reuse, eigensolver early exit,
// optimizer choice).
#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <string>

#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "coarse/coarsen.h"
#include "core/aggregator.h"
#include "core/objective.h"
#include "core/sgla.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "graph/knn.h"
#include "graph/laplacian.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "opt/simplex.h"
#include "persist/store.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation counter: operator new in this binary bumps a relaxed atomic, so
// the Engine* benches can report allocations per iteration alongside time.
// The engine layer's contract is that the steady-state objective benches
// report exactly 0 (scripts/check.sh --bench-smoke records the trajectory).
// ---------------------------------------------------------------------------
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// GCC can't see that these replacements pair new<->malloc and delete<->free
// consistently once library code is inlined against them; the runtime
// pairing is correct by definition of global replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

using namespace sgla;

struct Fixture {
  std::vector<int32_t> labels;
  std::vector<la::CsrMatrix> views;
  la::DenseMatrix attributes;

  static const Fixture& Get(int64_t n) {
    static std::map<int64_t, Fixture> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
      Fixture f;
      Rng rng(77);
      f.labels = data::BalancedLabels(n, 4, &rng);
      graph::Graph g1 = data::SbmGraph(f.labels, 4, 0.02, 0.002, &rng);
      graph::Graph g2 = data::SbmGraph(f.labels, 4, 0.01, 0.008, &rng);
      f.views = {graph::NormalizedLaplacian(g1), graph::NormalizedLaplacian(g2)};
      f.attributes = data::GaussianAttributes(f.labels, 4, 32, 1.0, 0.8, &rng);
      it = cache.emplace(n, std::move(f)).first;
    }
    return it->second;
  }
};

void BM_Spmv(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  const la::CsrMatrix& m = f.views[0];
  la::Vector x(static_cast<size_t>(m.cols), 1.0), y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_Spmv)->Arg(2000)->Arg(8000);

void BM_AggregateReuse(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  double w = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregator.Aggregate({w, 1.0 - w}));
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
}
BENCHMARK(BM_AggregateReuse)->Arg(2000)->Arg(8000);

void BM_AggregateFromScratch(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  double w = 0.3;
  for (auto _ : state) {
    la::CsrMatrix sum = la::WeightedSum({&f.views[0], &f.views[1]}, {w, 1.0 - w});
    benchmark::DoNotOptimize(sum.values.data());
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
}
BENCHMARK(BM_AggregateFromScratch)->Arg(2000)->Arg(8000);

void BM_LanczosSmallestEigenvalues(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  for (auto _ : state) {
    auto eig = la::SmallestEigenpairs(f.views[0], 5, 2.0);
    benchmark::DoNotOptimize(eig.ok());
  }
}
BENCHMARK(BM_LanczosSmallestEigenvalues)->Arg(2000)->Arg(8000)->Arg(16000);

void BM_ObjectiveEvaluation(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::SpectralObjective objective(&f.views, 4);
  double w = 0.3;
  for (auto _ : state) {
    auto value = objective.Evaluate({w, 1.0 - w});
    benchmark::DoNotOptimize(value.ok());
    w = w < 0.7 ? w + 0.05 : 0.3;
  }
}
// Every evaluation after the first starts from the previous one's Ritz
// vectors, as inside a weight search. Wall time: the eigensolve runs across
// the pool.
BENCHMARK(BM_ObjectiveEvaluation)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(16000)
    ->UseRealTime();

void BM_KnnExact(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  graph::KnnOptions options;
  options.k = 10;
  options.exact_threshold = 1 << 30;
  for (auto _ : state) {
    graph::Graph g = graph::KnnGraph(f.attributes, options);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_KnnExact)->Arg(2000);

void BM_KnnRpForest(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  graph::KnnOptions options;
  options.k = static_cast<int>(state.range(1));
  options.exact_threshold = 1;  // force the approximate path
  for (auto _ : state) {
    graph::Graph g = graph::KnnGraph(f.attributes, options);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
// Args: nodes, k. The trees run across the pool: wall time, not the calling
// thread's cpu_time. k = 1000 exceeds what the forest offers a node
// (trees x (leaf_size - 1)), so every node keeps every distinct candidate.
BENCHMARK(BM_KnnRpForest)
    ->Args({2000, 10})
    ->Args({8000, 10})
    ->Args({16000, 10})
    ->Args({8000, 1000})
    ->UseRealTime();

// A multi-view graph shaped like perfbench's: two SBM views and a 16-dim
// Gaussian attribute view with separation 3 and noise 3 (update_stream's
// SBM densities at 8000 nodes, solve_exact's at 16000).
const core::MultiViewGraph& PerfbenchShapedMvag(int64_t n) {
  static std::map<int64_t, core::MultiViewGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    const bool large = n >= 16000;
    const int clusters = large ? 5 : 4;
    Rng rng(41);
    const std::vector<int32_t> labels = data::BalancedLabels(n, clusters, &rng);
    core::MultiViewGraph mvag(n, clusters);
    mvag.AddGraphView(data::SbmGraph(labels, clusters, large ? 0.005 : 0.008,
                                     large ? 0.0008 : 0.0012, &rng));
    mvag.AddGraphView(data::SbmGraph(labels, clusters, large ? 0.0035 : 0.005,
                                     large ? 0.001 : 0.0015, &rng));
    mvag.AddAttributeView(
        data::GaussianAttributes(labels, clusters, 16, 3.0, 3.0, &rng));
    it = cache.emplace(n, std::move(mvag)).first;
  }
  return it->second;
}

// Registration's (and recovery's) Laplacian step: every view's normalized
// Laplacian, the attribute view's through its RP-forest KNN. Wall time: each
// kernel runs across the pool.
void BM_ComputeViewLaplacians(benchmark::State& state) {
  const core::MultiViewGraph& mvag = PerfbenchShapedMvag(state.range(0));
  for (auto _ : state) {
    auto views = core::ComputeViewLaplacians(mvag);
    benchmark::DoNotOptimize(views.ok());
  }
}
BENCHMARK(BM_ComputeViewLaplacians)
    ->Arg(8000)
    ->Arg(16000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// One SGLA weight search shaped like perfbench solve_exact's: k = 5 and 10
// objective evaluations (epsilon 0, so the search runs to its budget) on an
// aggregator and workspace that persist across searches, as a registered
// entry's do. Wall time: the eigensolves run across the pool.
void BM_SglaWeightSearch(benchmark::State& state) {
  const core::MultiViewGraph& mvag = PerfbenchShapedMvag(state.range(0));
  auto views = core::ComputeViewLaplacians(mvag);
  if (!views.ok()) {
    state.SkipWithError(views.status().ToString().c_str());
    return;
  }
  const core::LaplacianAggregator aggregator(&*views);
  core::EvalWorkspace workspace;
  core::SglaOptions options;
  options.epsilon = 0.0;
  options.max_evaluations = 10;
  int64_t lanczos_vectors = 0;
  for (auto _ : state) {
    auto result = core::SglaOnAggregator(aggregator, 5, options, &workspace);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    lanczos_vectors = result->lanczos_iterations;
  }
  state.counters["lanczos_vectors"] = static_cast<double>(lanczos_vectors);
}
BENCHMARK(BM_SglaWeightSearch)
    ->Arg(16000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  cluster::KMeansOptions options;
  options.num_init = 1;
  for (auto _ : state) {
    auto result = cluster::KMeans(f.attributes, 4, options);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeans)->Arg(2000)->Arg(8000);

// ---------------------------------------------------------------------------
// Threaded-vs-serial sweeps: Args are {n, threads}. The deterministic
// execution layer promises bit-identical outputs at every thread count, so
// these measure pure scheduling overhead / speedup. Run with e.g.
//   bench_micro_substrates --benchmark_filter='Threads'
// ---------------------------------------------------------------------------

/// Pins the global pool for one benchmark run, restoring SGLA_THREADS /
/// hardware default afterwards so unsuffixed benches keep their config.
class PoolOverride {
 public:
  explicit PoolOverride(int threads) {
    util::ThreadPool::SetGlobalThreads(threads);
  }
  ~PoolOverride() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

void BM_SpmvThreads(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  PoolOverride pool(static_cast<int>(state.range(1)));
  const la::CsrMatrix& m = f.views[0];
  la::Vector x(static_cast<size_t>(m.cols), 1.0), y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SpmvThreads)
    ->Args({20000, 1})->Args({20000, 2})->Args({20000, 4})->Args({20000, 8});

void BM_AggregateThreads(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  PoolOverride pool(static_cast<int>(state.range(1)));
  core::LaplacianAggregator aggregator(&f.views);
  double w = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregator.Aggregate({w, 1.0 - w}));
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
}
BENCHMARK(BM_AggregateThreads)
    ->Args({20000, 1})->Args({20000, 2})->Args({20000, 4})->Args({20000, 8});

void BM_KMeansThreads(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  PoolOverride pool(static_cast<int>(state.range(1)));
  cluster::KMeansOptions options;
  options.num_init = 1;
  for (auto _ : state) {
    auto result = cluster::KMeans(f.attributes, 4, options);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeansThreads)
    ->Args({20000, 1})->Args({20000, 2})->Args({20000, 4})->Args({20000, 8});

// Pool dispatch cost: one ParallelFor over 16k doubles split into Arg
// chunks, about the size of one Krylov-vector update of an n = 16k
// eigensolve, so the work per chunk is a few microseconds and the time is
// mostly publish, claim and wait. Wall time: the workers' share of the job
// is invisible to the caller's cpu_time.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  const int64_t n = 16384;
  const int64_t grain = n / state.range(0);
  la::Vector x(static_cast<size_t>(n), 1.0), y(static_cast<size_t>(n), 0.5);
  util::ThreadPool& pool = util::ThreadPool::Global();
  for (auto _ : state) {
    pool.ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        y[static_cast<size_t>(i)] += 0.25 * x[static_cast<size_t>(i)];
      }
    });
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(std::to_string(pool.num_threads()) + " threads");
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(2)->Arg(8)->UseRealTime();

// ---------------------------------------------------------------------------
// Per-ISA sweeps: one single-threaded run of each hot kernel per ISA path
// the host can execute, registered at runtime in main() (the available set
// is a host property). These back the DESIGN.md SIMD-dispatch speedup table;
// compare e.g. BM_SpmvIsa/avx2 against BM_SpmvIsa/scalar. Run with
//   bench_micro_substrates --benchmark_filter='Isa'
// ---------------------------------------------------------------------------

/// Sparser fixture for the per-ISA sweeps: ~7 nnz/row at n = 20000 (the
/// degree regime of kNN attribute views) keeps values + col_idx around 2 MB
/// — cache-resident — so these benches compare kernel codegen. The dense
/// Fixture at this size streams > 40 MB of CSR arrays per SpMV, which pins
/// every ISA at the same memory-bandwidth ceiling and hides codegen wins.
/// Short rows are also exactly where the SELL layout earns its keep: the
/// per-row CSR vector loop barely engages at width 7, while SELL runs 8
/// sorted rows per register.
struct IsaFixture {
  std::vector<int32_t> labels;
  std::vector<la::CsrMatrix> views;
  la::DenseMatrix attributes;

  static const IsaFixture& Get() {
    static const IsaFixture* f = [] {
      IsaFixture* fixture = new IsaFixture();
      Rng rng(78);
      fixture->labels = data::BalancedLabels(20000, 4, &rng);
      graph::Graph g1 = data::SbmGraph(fixture->labels, 4, 0.001, 0.0001, &rng);
      graph::Graph g2 = data::SbmGraph(fixture->labels, 4, 0.0005, 0.0004, &rng);
      fixture->views = {graph::NormalizedLaplacian(g1),
                        graph::NormalizedLaplacian(g2)};
      fixture->attributes =
          data::GaussianAttributes(fixture->labels, 4, 32, 1.0, 0.8, &rng);
      return fixture;
    }();
    return *f;
  }
};

/// Pins the SIMD dispatch path for one benchmark run, restoring the previous
/// path afterwards so unsuffixed benches keep auto-detection.
class IsaOverride {
 public:
  explicit IsaOverride(la::simd::Isa isa) : previous_(la::simd::ActiveIsa()) {
    la::simd::SetActiveForTesting(isa);
  }
  ~IsaOverride() { la::simd::SetActiveForTesting(previous_); }

 private:
  la::simd::Isa previous_;
};

void BM_SpmvIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  const la::CsrMatrix& m = f.views[0];
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}

void BM_SellSpmvIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  const la::CsrMatrix& m = f.views[0];
  la::SellMatrix sell;
  la::BuildSellPattern(m, &sell);
  la::FillSellValues(m.values, &sell);
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::SellSpmv(sell, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}

/// The other row-length regime: the union Laplacian of two dense SBM views,
/// ~65 nnz/row at n = 8000 (the benchmark workloads' union Laplacians carry
/// ~66). Long rows are where the vector CSR row kernels win over scalar;
/// on the ~7 nnz/row IsaFixture they lose. Not gated.
void BM_SpmvIsaLongRows(benchmark::State& state, la::simd::Isa isa) {
  static const la::CsrMatrix* union_laplacian = [] {
    Rng rng(79);
    const std::vector<int32_t> labels = data::BalancedLabels(8000, 4, &rng);
    const la::CsrMatrix a = graph::NormalizedLaplacian(
        data::SbmGraph(labels, 4, 0.013, 0.0012, &rng));
    const la::CsrMatrix b = graph::NormalizedLaplacian(
        data::SbmGraph(labels, 4, 0.013, 0.0012, &rng));
    return new la::CsrMatrix(la::WeightedSum({&a, &b}, {0.5, 0.5}));
  }();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  const la::CsrMatrix& m = *union_laplacian;
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  state.counters["nnz_per_row"] =
      static_cast<double>(m.nnz()) / static_cast<double>(m.rows);
}

void BM_AggregateIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix out;
  aggregator.BindPattern(&out);
  std::vector<double> weights = {0.3, 0.7};
  for (auto _ : state) {
    aggregator.AggregateValuesInto(weights, &out);
    benchmark::DoNotOptimize(out.values.data());
    weights[0] = weights[0] < 0.7 ? weights[0] + 0.01 : 0.3;
    weights[1] = 1.0 - weights[0];
  }
}

void BM_KMeansIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  cluster::KMeansOptions options;
  options.num_init = 1;
  for (auto _ : state) {
    auto result = cluster::KMeans(f.attributes, 4, options);
    benchmark::DoNotOptimize(result.inertia);
  }
}

// ---------------------------------------------------------------------------
// Engine-layer benches (scripts/check.sh --bench-smoke runs the 'Engine'
// filter at a tiny size and archives the JSON as BENCH_engine.json). Each
// reports allocs_per_iter from the global counting hook; the steady-state
// objective benches must report 0.
// ---------------------------------------------------------------------------

void BM_EngineObjectiveSteadyState(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  core::EvalWorkspace workspace;
  core::SpectralObjective objective(&aggregator, 4, core::ObjectiveOptions(),
                                    &workspace);
  const std::vector<double> w1 = {0.55, 0.45};
  const std::vector<double> w2 = {0.30, 0.70};
  // Warm-up sizes every workspace buffer before timing starts.
  benchmark::DoNotOptimize(objective.Evaluate(w1).ok());
  benchmark::DoNotOptimize(objective.Evaluate(w2).ok());
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  bool flip = false;
  for (auto _ : state) {
    auto value = objective.Evaluate(flip ? w1 : w2);
    benchmark::DoNotOptimize(value.ok());
    flip = !flip;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  // The dispatch path changes the timings (not the semantics), so archived
  // BENCH_engine.json runs record which ISA produced them.
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineObjectiveSteadyState)->Arg(512)->Arg(2000);

void BM_EngineAggregateSteadyState(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix out;
  double w = 0.3;
  std::vector<double> weights = {w, 1.0 - w};
  aggregator.BindPattern(&out);  // warm-up binding
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    weights[0] = w;
    weights[1] = 1.0 - w;
    aggregator.AggregateValuesInto(weights, &out);
    benchmark::DoNotOptimize(out.values.data());
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineAggregateSteadyState)->Arg(512)->Arg(2000);

void BM_EngineSolveCluster(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  auto registered = registry.RegisterViews("bench", f.views, 4);
  if (!registered.ok()) {
    state.SkipWithError("RegisterViews failed");
    return;
  }
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSglaPlus;
  benchmark::DoNotOptimize(engine.Solve(request).ok());  // warm the session
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto response = engine.Solve(request);
    benchmark::DoNotOptimize(response.ok());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineSolveCluster)->Arg(512)->Arg(2000);

void BM_EngineSolveClusterSharded(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  serve::RegisterOptions options;
  options.shards = static_cast<int>(state.range(1));
  auto registered = registry.RegisterViews("bench", f.views, 4, options);
  if (!registered.ok()) {
    state.SkipWithError("RegisterViews failed");
    return;
  }
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  serve::Engine engine(&registry, engine_options);
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSglaPlus;
  benchmark::DoNotOptimize(engine.Solve(request).ok());  // warm the session
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto response = engine.Solve(request);
    benchmark::DoNotOptimize(response.ok());
  }
  // Recorded for the trajectory, not gated: a full solve allocates its
  // response.
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineSolveClusterSharded)->Args({2000, 2})->Args({2000, 4});

// Fast-tier serving: the whole SGLA+ pipeline on the coarse companion with
// prolongation back to fine rows. Compare ns against BM_EngineSolveCluster
// at the same Arg for the tiered-serving speedup the NMI-gap gate holds to.
void BM_EngineSolveFastTier(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  auto registered = registry.RegisterViews("bench", f.views, 4);
  if (!registered.ok()) {
    state.SkipWithError("RegisterViews failed");
    return;
  }
  if ((*registered)->coarse == nullptr) {
    state.SkipWithError("no coarse companion");
    return;
  }
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSglaPlus;
  request.quality = serve::Quality::kFast;
  benchmark::DoNotOptimize(engine.Solve(request).ok());  // warm the session
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto response = engine.Solve(request);
    benchmark::DoNotOptimize(response.ok());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineSolveFastTier)->Arg(512)->Arg(2000);

// What the first fast request of a graph pays now that registration leaves
// the coarse companion unbuilt: registration, then one fast solve that
// builds the companion first. Wall time (the solve runs on a session
// worker); compare against BM_EngineSolveFastTier, which reuses a built
// companion, for the cost the lazy build moved onto this request.
void BM_EngineFirstFastSolve(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSglaPlus;
  request.quality = serve::Quality::kFast;
  for (auto _ : state) {
    auto registered = registry.RegisterViews("bench", f.views, 4);
    auto response = engine.Solve(request);
    if (!registered.ok() || !response.ok() ||
        response->stats.tier_served != serve::Quality::kFast) {
      state.SkipWithError("first fast solve failed or fell back to exact");
      return;
    }
    state.PauseTiming();
    engine.EvictGraph("bench");
    state.ResumeTiming();
  }
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineFirstFastSolve)
    ->Arg(2000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Build cost of the coarse companion, paid by the first fast request of an
// epoch: the multilevel heavy-edge matching over the union pattern
// plus the Galerkin contraction of one view. UpdateGraph pays it again when
// a built companion's summed churn passes the limit.
void BM_CoarsenGraph(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  for (auto _ : state) {
    coarse::CoarsePlan plan =
        coarse::BuildCoarsePlan(aggregator.pattern(), f.views);
    la::CsrMatrix contracted = coarse::ContractView(f.views[0], plan);
    benchmark::DoNotOptimize(contracted.values.data());
  }
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_CoarsenGraph)->Arg(2000)->Arg(8000);

// BuildCoarsePlan alone at a constant expected degree (SBM probabilities
// scaled by 1/n, ~60 union entries per row): with the degree fixed,
// time per union nnz (the inverse of items_per_second) shows how far the
// plan is from linear cost in the graph size. Wall time, since the matching
// kernels run on the pool. Informational: not in the perf gate's baseline.
void BM_CoarsenGraphConstantDegree(benchmark::State& state) {
  const int64_t n = state.range(0);
  const double scale = 1.0 / static_cast<double>(n);
  Rng rng(79);
  const std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
  const std::vector<la::CsrMatrix> views = {
      graph::NormalizedLaplacian(
          data::SbmGraph(labels, 4, 80.0 * scale, 8.0 * scale, &rng)),
      graph::NormalizedLaplacian(
          data::SbmGraph(labels, 4, 40.0 * scale, 32.0 * scale, &rng))};
  core::LaplacianAggregator aggregator(&views);
  for (auto _ : state) {
    coarse::CoarsePlan plan =
        coarse::BuildCoarsePlan(aggregator.pattern(), views);
    benchmark::DoNotOptimize(plan.fine_to_coarse.data());
  }
  state.SetItemsProcessed(state.iterations() * aggregator.pattern().nnz());
  state.counters["union_nnz"] =
      static_cast<double>(aggregator.pattern().nnz());
}
BENCHMARK(BM_CoarsenGraphConstantDegree)
    ->Arg(4000)
    ->Arg(16000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The graph views of the wall-clock benchmark's fixtures (perfbench/):
// update_stream's SBM densities at n=8000 (4 clusters), solve_exact's at
// n=16000 (5 clusters).
std::vector<graph::Graph> WorkloadSbmViews(int64_t n) {
  const bool update_stream = n <= 8000;
  const int clusters = update_stream ? 4 : 5;
  const std::vector<std::pair<double, double>> densities =
      update_stream
          ? std::vector<std::pair<double, double>>{{0.008, 0.0012},
                                                   {0.005, 0.0015}}
          : std::vector<std::pair<double, double>>{{0.005, 0.0008},
                                                   {0.0035, 0.001}};
  Rng rng(83);
  const std::vector<int32_t> labels = data::BalancedLabels(n, clusters, &rng);
  std::vector<graph::Graph> views;
  for (const auto& [p_in, p_out] : densities) {
    views.push_back(data::SbmGraph(labels, clusters, p_in, p_out, &rng));
  }
  return views;
}

// Direct-CSR build of every SBM view's normalized Laplacian: what
// registration, recovery and each affected view of an update pay per graph
// view. Wall time (the row passes run on the pool). Informational: not in
// the perf gate's baseline.
void BM_NormalizedLaplacian(benchmark::State& state) {
  const std::vector<graph::Graph> graphs = WorkloadSbmViews(state.range(0));
  for (auto _ : state) {
    for (const graph::Graph& g : graphs) {
      la::CsrMatrix l = graph::NormalizedLaplacian(g);
      benchmark::DoNotOptimize(l.values.data());
    }
  }
}
BENCHMARK(BM_NormalizedLaplacian)
    ->Arg(8000)
    ->Arg(16000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Union pattern + scatter maps + SELL form over the same views: what every
// registration, recovery and pattern-changing update pays. Wall time.
// Informational: not in the perf gate's baseline.
void BM_AggregatorBuild(benchmark::State& state) {
  std::vector<la::CsrMatrix> views;
  for (const graph::Graph& g : WorkloadSbmViews(state.range(0))) {
    views.push_back(graph::NormalizedLaplacian(g));
  }
  for (auto _ : state) {
    core::LaplacianAggregator aggregator(&views);
    benchmark::DoNotOptimize(aggregator.pattern().col_idx.data());
  }
}
BENCHMARK(BM_AggregatorBuild)
    ->Arg(8000)
    ->Arg(16000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A 16-edge pattern delta — 8 removals and 8 insertions in the second view,
// so at most 32 rows change — patched into the aggregator built over the
// views before it: what a pattern-changing update pays for its union
// pattern, next to BM_AggregatorBuild's full build over the same views.
// Wall time. Informational: not in the perf gate's baseline.
void BM_AggregatorPatch(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<graph::Graph> graphs = WorkloadSbmViews(n);
  std::vector<la::CsrMatrix> before;
  for (const graph::Graph& g : graphs) {
    before.push_back(graph::NormalizedLaplacian(g));
  }
  Rng rng(4243);
  std::vector<graph::Edge> edges = graphs[1].edges();
  for (int e = 0; e < 8; ++e) {
    edges.erase(edges.begin() +
                rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1));
  }
  for (int e = 0; e < 8; ++e) {
    const int64_t u = rng.UniformInt(0, n - 1);
    edges.push_back({u, (u + rng.UniformInt(1, n - 1)) % n, 1.0});
  }
  std::vector<la::CsrMatrix> after = before;
  after[1] = graph::NormalizedLaplacian(
      graph::Graph::FromEdges(n, std::move(edges)));
  const core::LaplacianAggregator previous(&before);
  int64_t changed = 0;
  for (auto _ : state) {
    core::LaplacianAggregator patched(&after, {}, &previous);
    changed = static_cast<int64_t>(patched.changed_rows().size());
    benchmark::DoNotOptimize(patched.pattern().col_idx.data());
  }
  state.counters["changed_rows"] = static_cast<double>(changed);
}
BENCHMARK(BM_AggregatorPatch)
    ->Arg(8000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Steady-state incremental updates: a value-only delta (weight nudges on
// existing edges) absorbed by UpdateGraph's copy-on-write epoch swap. The
// epoch build allocates by design (new entry + aggregator); recorded
// for the perf trajectory, not alloc-gated. `build_companion` builds the
// coarse companion before the loop, so every update also maintains it (the
// cost a graph serving fast requests pays); otherwise it is never built.
void RunUpdateGraphValueOnly(benchmark::State& state, bool build_companion) {
  const int64_t n = state.range(0);
  Rng rng(177);
  std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
  core::MultiViewGraph mvag(n, 4);
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.02, 0.002, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.01, 0.008, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  auto registered = registry.Register("bench", mvag);
  if (!registered.ok()) {
    state.SkipWithError("Register failed");
    return;
  }
  if (build_companion && (*registered)->coarse == nullptr) {
    state.SkipWithError("no coarse companion");
    return;
  }
  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  for (size_t i = 0; i < edges.size() && i < 16; ++i) {
    view_delta.upserts.push_back({edges[i].u, edges[i].v, 1.5});
  }
  delta.graph_views.push_back(std::move(view_delta));

  double weight = 1.5;
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (serve::EdgeUpsert& upsert : delta.graph_views[0].upserts) {
      upsert.weight = weight;
    }
    auto updated = registry.UpdateGraph("bench", delta);
    benchmark::DoNotOptimize(updated.ok());
    weight = weight < 2.0 ? weight + 0.05 : 1.5;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}

void BM_EngineUpdateGraphValueOnly(benchmark::State& state) {
  RunUpdateGraphValueOnly(state, /*build_companion=*/true);
}
BENCHMARK(BM_EngineUpdateGraphValueOnly)->Arg(2000);

// The same updates on a graph that never served a fast request: the
// companion stays unbuilt, so an update pays for the fine tier only.
void BM_EngineUpdateGraphValueOnlyLazy(benchmark::State& state) {
  RunUpdateGraphValueOnly(state, /*build_companion=*/false);
}
BENCHMARK(BM_EngineUpdateGraphValueOnlyLazy)->Arg(2000);

// Pattern-changing updates on the update_stream-shaped graph (n, 4
// clusters, two SBM views and a 16-column attribute view, 4 shards): each
// iteration is one UpdateGraph of 8 removals and 8 insertions in graph view
// 1, alternately applying a fixed edit and undoing it, so every update
// changes the pattern and the graph never drifts. The coarse companion
// stays unbuilt, as on update_stream. Wall time; the epoch build allocates
// by design. Informational: not in the perf gate's baseline.
void BM_EngineUpdateGraphPattern(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8191);
  const std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
  core::MultiViewGraph mvag(n, 4);
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.008, 0.0012, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.005, 0.0015, &rng));
  mvag.AddAttributeView(
      data::GaussianAttributes(labels, 4, 16, 3.0, 3.0, &rng));
  serve::GraphRegistry registry;
  serve::RegisterOptions options;
  options.shards = 4;
  if (!registry.Register("bench", mvag, options).ok()) {
    state.SkipWithError("Register failed");
    return;
  }
  // Forward: drop 8 existing edges, add 8 new pairs. Back: the reverse.
  serve::GraphDelta forward;
  serve::GraphDelta back;
  serve::GraphViewDelta apply{1, {}, {}};
  serve::GraphViewDelta undo{1, {}, {}};
  const std::vector<graph::Edge>& edges = mvag.graph_views()[1].edges();
  for (int e = 0; e < 8; ++e) {
    const graph::Edge& edge = edges[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
    apply.removals.push_back({edge.u, edge.v});
    undo.upserts.push_back({edge.u, edge.v, edge.weight});
    const int64_t u = rng.UniformInt(0, n - 1);
    const int64_t v = (u + rng.UniformInt(1, n - 1)) % n;
    apply.upserts.push_back({u, v, 1.0});
    undo.removals.push_back({u, v});
  }
  forward.graph_views.push_back(std::move(apply));
  back.graph_views.push_back(std::move(undo));
  bool applied = false;
  for (auto _ : state) {
    auto updated = registry.UpdateGraph("bench", applied ? back : forward);
    if (!updated.ok()) {
      state.SkipWithError("UpdateGraph failed");
      return;
    }
    applied = !applied;
  }
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineUpdateGraphPattern)
    ->Arg(8000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A store directory holding the update_stream-shaped graph (n, 4 clusters,
// two SBM views and a 16-column attribute view, 4 shards) checkpointed at
// registration, then `suffix` logged deltas in update_stream's mix: per ten,
// two value-only re-weights, five pattern edits and three attribute rows.
// Built once per suffix length; removed at exit.
class RecoverStoreFixture {
 public:
  static const RecoverStoreFixture& Get(int64_t n, int64_t suffix) {
    static std::map<std::pair<int64_t, int64_t>,
                    std::unique_ptr<RecoverStoreFixture>>
        cache;
    auto& slot = cache[{n, suffix}];
    if (slot == nullptr) slot.reset(new RecoverStoreFixture(n, suffix));
    return *slot;
  }
  ~RecoverStoreFixture() {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  RecoverStoreFixture(const RecoverStoreFixture&) = delete;
  RecoverStoreFixture& operator=(const RecoverStoreFixture&) = delete;

  const std::string& dir() const { return dir_; }
  bool ok() const { return ok_; }

 private:
  RecoverStoreFixture(int64_t n, int64_t suffix) {
    std::string path =
        (std::filesystem::temp_directory_path() / "sgla_recover_XXXXXX")
            .string();
    if (::mkdtemp(&path[0]) == nullptr) return;
    dir_ = path;
    Rng rng(8191);
    const std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
    core::MultiViewGraph mvag(n, 4);
    mvag.AddGraphView(data::SbmGraph(labels, 4, 0.008, 0.0012, &rng));
    mvag.AddGraphView(data::SbmGraph(labels, 4, 0.005, 0.0015, &rng));
    mvag.AddAttributeView(
        data::GaussianAttributes(labels, 4, 16, 3.0, 3.0, &rng));

    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir_;
    options.fsync = false;
    options.checkpoint_interval = 0;  // every delta stays in the WAL suffix
    auto store = persist::Store::Open(options, &registry);
    if (!store.ok()) return;
    serve::RegisterOptions register_options;
    register_options.shards = 4;
    if (!(*store)->Register("g", mvag, register_options).ok()) return;
    const std::vector<graph::Edge> edges0 = mvag.graph_views()[0].edges();
    const std::vector<graph::Edge> edges1 = mvag.graph_views()[1].edges();
    for (int64_t d = 0; d < suffix; ++d) {
      serve::GraphDelta delta;
      const int64_t slot = d % 10;
      if (slot < 2) {
        serve::GraphViewDelta view{0, {}, {}};
        for (int e = 0; e < 16; ++e) {
          const graph::Edge& edge = edges0[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(edges0.size()) - 1))];
          view.upserts.push_back({edge.u, edge.v, 0.5 + rng.Uniform()});
        }
        delta.graph_views.push_back(std::move(view));
      } else if (slot < 7) {
        serve::GraphViewDelta view{1, {}, {}};
        for (int e = 0; e < 8; ++e) {
          const graph::Edge& edge = edges1[static_cast<size_t>(d * 8 + e)];
          view.removals.push_back({edge.u, edge.v});
          const int64_t u = rng.UniformInt(0, n - 1);
          view.upserts.push_back({u, (u + rng.UniformInt(1, n - 1)) % n, 1.0});
        }
        delta.graph_views.push_back(std::move(view));
      } else {
        serve::AttributeRowUpdate row;
        row.row = rng.UniformInt(0, n - 1);
        for (int64_t c = 0; c < 16; ++c) row.values.push_back(rng.Gaussian());
        delta.attribute_rows.push_back(std::move(row));
      }
      if (!(*store)->Update("g", delta).ok()) return;
    }
    ok_ = true;
  }

  std::string dir_;
  bool ok_ = false;
};

// Reopening a store: checkpoint load, WAL replay and the serving-state
// build of the one graph, at a 4- and a 64-record suffix. Wall time. The
// counters split it into RecoveryStats' phases. Informational: not in the
// perf gate's baseline.
void BM_StoreRecover(benchmark::State& state) {
  const RecoverStoreFixture& fixture =
      RecoverStoreFixture::Get(8000, state.range(0));
  if (!fixture.ok()) {
    state.SkipWithError("building the store fixture failed");
    return;
  }
  persist::StoreOptions options;
  options.dir = fixture.dir();
  options.fsync = false;
  persist::RecoveryStats stats;
  for (auto _ : state) {
    serve::GraphRegistry registry;
    auto store = persist::Store::Open(options, &registry);
    if (!store.ok()) {
      state.SkipWithError("recovery failed");
      return;
    }
    benchmark::DoNotOptimize(registry.Find("g").get());
    stats = (*store)->recovery();
  }
  state.counters["load_ms"] = stats.load_ms;
  state.counters["replay_ms"] = stats.replay_ms;
  state.counters["build_ms"] = stats.build_ms;
}
BENCHMARK(BM_StoreRecover)
    ->Arg(4)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SglaCobyla(benchmark::State& state) {
  const Fixture& f = Fixture::Get(2000);
  core::SglaOptions options;
  options.optimizer = core::WeightOptimizer::kCobyla;
  for (auto _ : state) {
    auto result = core::Sgla(f.views, 4, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SglaCobyla);

void BM_SglaNelderMead(benchmark::State& state) {
  const Fixture& f = Fixture::Get(2000);
  core::SglaOptions options;
  options.optimizer = core::WeightOptimizer::kNelderMead;
  for (auto _ : state) {
    auto result = core::Sgla(f.views, 4, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SglaNelderMead);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the per-ISA sweeps register one
// instance per ISA the host can actually run — a host property the static
// BENCHMARK() registry cannot express.
int main(int argc, char** argv) {
  for (sgla::la::simd::Isa isa : sgla::la::simd::AvailableIsas()) {
    const std::string suffix = sgla::la::simd::IsaName(isa);
    benchmark::RegisterBenchmark(("BM_SpmvIsa/" + suffix).c_str(),
                                 BM_SpmvIsa, isa);
    benchmark::RegisterBenchmark(("BM_SellSpmvIsa/" + suffix).c_str(),
                                 BM_SellSpmvIsa, isa);
    benchmark::RegisterBenchmark(("BM_SpmvIsaLongRows/" + suffix).c_str(),
                                 BM_SpmvIsaLongRows, isa);
    benchmark::RegisterBenchmark(("BM_AggregateIsa/" + suffix).c_str(),
                                 BM_AggregateIsa, isa);
    benchmark::RegisterBenchmark(("BM_KMeansIsa/" + suffix).c_str(),
                                 BM_KMeansIsa, isa);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
