// Determinism and correctness tests for the threaded execution layer: the
// ThreadPool itself (concurrent jobs, slot overflow, throwing chunks),
// aggregator-vs-WeightedSum equivalence on adversarial
// patterns, bit-identical kernel results across SGLA_THREADS=1,2,8, the
// k-means exit-path consistency fix, and the unbiased bounded RNG draw.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "core/aggregator.h"
#include "core/objective.h"
#include "data/generator.h"
#include "graph/knn.h"
#include "graph/laplacian.h"
#include "la/dense.h"
#include "la/simd.h"
#include "la/sparse.h"
#include "serve/shard_plan.h"
#include "util/rng.h"
#include "util/task_queue.h"
#include "util/thread_pool.h"

namespace sgla {
namespace {

la::CsrMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                           Rng* rng) {
  std::vector<la::Triplet> entries;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng->Uniform() < density) {
        entries.push_back({i, j, rng->Gaussian()});
      }
    }
  }
  return la::FromTriplets(rows, cols, std::move(entries));
}

/// Restores the default global pool when a test that swept thread counts
/// finishes, so test order doesn't matter.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    util::ThreadPool& pool = util::ThreadPool::Global();
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<int> hits(1000, 0);
    pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ChunkPartitionIsThreadCountInvariant) {
  // NumChunks and the chunk boundaries depend only on (begin, end, grain).
  EXPECT_EQ(util::ThreadPool::NumChunks(0, 10, 3), 4);
  EXPECT_EQ(util::ThreadPool::NumChunks(0, 0, 3), 0);
  EXPECT_EQ(util::ThreadPool::NumChunks(5, 4, 3), 0);

  ThreadCountGuard guard;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> seen;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    std::vector<std::pair<int64_t, int64_t>> bounds(
        static_cast<size_t>(util::ThreadPool::NumChunks(0, 1000, 7)));
    util::ThreadPool::Global().ParallelForChunks(
        0, 1000, 7, [&](int64_t chunk, int64_t lo, int64_t hi) {
          bounds[static_cast<size_t>(chunk)] = {lo, hi};
        });
    seen.push_back(std::move(bounds));
  }
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(4);
  util::ThreadPool& pool = util::ThreadPool::Global();
  std::vector<int> hits(256, 0);
  pool.ParallelFor(0, 4, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t task = lo; task < hi; ++task) {
      EXPECT_TRUE(util::ThreadPool::InParallelRegion());
      // A kernel invoked from inside a worker must not deadlock.
      pool.ParallelFor(task * 64, (task + 1) * 64, 8,
                       [&](int64_t lo2, int64_t hi2) {
                         for (int64_t i = lo2; i < hi2; ++i) {
                           ++hits[static_cast<size_t>(i)];
                         }
                       });
    }
  });
  EXPECT_FALSE(util::ThreadPool::InParallelRegion());
  for (int h : hits) EXPECT_EQ(h, 1);
}

/// Polls `ready` until it holds or `seconds` have passed; returns ready().
/// Tests wait on other threads' progress with this instead of sleeping, so a
/// pool that serializes jobs fails the test instead of hanging it.
template <typename Ready>
bool WaitUntil(const Ready& ready, double seconds = 20.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Two jobs from two threads are in flight together: the first chunk of
// each job holds until the other job has finished a chunk. A pool that runs
// one job at a time lets neither wait end, and the bounded waits fail.
TEST(ThreadPoolTest, ConcurrentJobsBothProgress) {
  ThreadCountGuard guard;
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::SetGlobalThreads(threads);
    util::ThreadPool& pool = util::ThreadPool::Global();
    std::atomic<int> done[2] = {{0}, {0}};
    std::atomic<bool> timed_out[2] = {{false}, {false}};
    const auto job = [&](int self) {
      pool.ParallelFor(0, 32, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          if (c == 0 && !WaitUntil([&] { return done[1 - self].load() > 0; })) {
            timed_out[self] = true;
          }
          ++done[self];
        }
      });
    };
    std::thread other(job, 1);
    job(0);
    other.join();
    EXPECT_FALSE(timed_out[0].load());
    EXPECT_FALSE(timed_out[1].load());
    EXPECT_EQ(done[0].load(), 32);
    EXPECT_EQ(done[1].load(), 32);
  }
}

// Many tiny jobs back to back from more callers than there are slots, so
// claims race across slots and some jobs overflow to the inline path:
// every chunk of every job runs exactly once.
TEST(ThreadPoolTest, TinyJobsFromManyCallersRunEveryChunkOnce) {
  ThreadCountGuard guard;
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::SetGlobalThreads(threads);
    util::ThreadPool& pool = util::ThreadPool::Global();
    const int callers = util::ThreadPool::kSlots + 4;
    std::atomic<int64_t> bad_jobs{0};
    std::vector<std::thread> threads_running;
    for (int t = 0; t < callers; ++t) {
      threads_running.emplace_back([&pool, &bad_jobs, t] {
        std::vector<int> hits(64, 0);
        for (int j = 0; j < 1000; ++j) {
          const int64_t n = 2 + (j + t) % 60;
          pool.ParallelFor(0, n, 1 + (j % 3), [&hits](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
          });
          for (int64_t i = 0; i < 64; ++i) {
            if (hits[static_cast<size_t>(i)] != (i < n ? 1 : 0)) {
              ++bad_jobs;
              break;
            }
          }
          std::fill(hits.begin(), hits.end(), 0);
        }
      });
    }
    for (std::thread& t : threads_running) t.join();
    EXPECT_EQ(bad_jobs.load(), 0);
  }
}

// With every slot held by a blocked job, a further job runs inline on its
// caller in chunk order, and its per-chunk partials equal a pooled run's.
TEST(ThreadPoolTest, SlotOverflowRunsInlineWithPooledPartials) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(4);
  util::ThreadPool& pool = util::ThreadPool::Global();
  std::vector<double> x(10000);
  Rng rng(3);
  for (double& v : x) v = rng.Gaussian();
  const int64_t chunks = util::ThreadPool::NumChunks(0, 10000, 512);
  const auto partial_sums = [&](std::vector<double>* partials,
                                std::vector<int>* on_caller) {
    const std::thread::id caller = std::this_thread::get_id();
    partials->assign(static_cast<size_t>(chunks), 0.0);
    on_caller->assign(static_cast<size_t>(chunks), 0);
    pool.ParallelForChunks(0, 10000, 512,
                           [&](int64_t chunk, int64_t lo, int64_t hi) {
      double sum = 0.0;
      for (int64_t i = lo; i < hi; ++i) sum += x[static_cast<size_t>(i)];
      (*partials)[static_cast<size_t>(chunk)] = sum;
      (*on_caller)[static_cast<size_t>(chunk)] =
          std::this_thread::get_id() == caller &&
          !util::ThreadPool::InParallelRegion();
    });
  };
  std::vector<double> pooled;
  std::vector<int> pooled_inline;
  partial_sums(&pooled, &pooled_inline);

  // Each blocker takes a slot and holds it until the gate opens.
  std::atomic<bool> gate{false};
  std::vector<std::atomic<bool>> started(util::ThreadPool::kSlots);
  for (std::atomic<bool>& s : started) s = false;
  std::vector<std::thread> blockers;
  for (int b = 0; b < util::ThreadPool::kSlots; ++b) {
    blockers.emplace_back([&, b] {
      pool.ParallelFor(0, 2, 1, [&](int64_t, int64_t) {
        started[static_cast<size_t>(b)] = true;
        WaitUntil([&] { return gate.load(); });
      });
    });
  }
  // Every blocker has a chunk running, so every slot is taken.
  ASSERT_TRUE(WaitUntil([&] {
    return std::all_of(started.begin(), started.end(),
                       [](const std::atomic<bool>& s) { return s.load(); });
  }));
  std::vector<double> overflow;
  std::vector<int> overflow_inline;
  partial_sums(&overflow, &overflow_inline);
  gate = true;
  for (std::thread& t : blockers) t.join();

  EXPECT_EQ(overflow, pooled);
  // All of the overflowed job ran on its caller, outside any pool job.
  EXPECT_EQ(overflow_inline, std::vector<int>(static_cast<size_t>(chunks), 1));
}

// A chunk that throws on a worker: the job drains (no chunk still runs when
// ParallelFor returns), the first exception is rethrown on the caller, and
// the pool keeps working. The same holds for a chunk that throws on the
// caller while workers still run the job's other chunks.
TEST(ThreadPoolTest, ThrowingChunkIsRethrownOnTheCaller) {
  ThreadCountGuard guard;
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::SetGlobalThreads(threads);
    util::ThreadPool& pool = util::ThreadPool::Global();
    for (bool throw_on_worker : {true, false}) {
      SCOPED_TRACE(throw_on_worker ? "worker throws" : "caller throws");
      const std::thread::id caller = std::this_thread::get_id();
      std::atomic<int> running{0};
      std::atomic<int> caller_chunks{0};
      std::atomic<int> worker_chunks{0};
      bool threw = false;
      try {
        pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
          ++running;
          const bool on_caller = std::this_thread::get_id() == caller;
          ++(on_caller ? caller_chunks : worker_chunks);
          // Each side's chunks wait until the other side has claimed one, so
          // both a caller-claimed and a worker-claimed index exist whatever
          // the schedule (blocked workers hold fewer than 64 chunks).
          std::atomic<int>& other = on_caller ? worker_chunks : caller_chunks;
          WaitUntil([&] { return other.load() > 0; });
          if (on_caller != throw_on_worker) {
            --running;
            throw std::runtime_error("chunk failed");
          }
          --running;
        });
      } catch (const std::runtime_error& e) {
        threw = true;
        EXPECT_STREQ(e.what(), "chunk failed");
        EXPECT_EQ(running.load(), 0);
      }
      EXPECT_TRUE(threw);
      EXPECT_GT(caller_chunks.load(), 0);
      EXPECT_GT(worker_chunks.load(), 0);

      std::vector<int> hits(1000, 0);
      pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
      });
      EXPECT_EQ(hits, std::vector<int>(1000, 1));
    }
  }
}

/// Temporarily sets (or clears) SGLA_THREADS, restoring the previous value
/// on destruction.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("SGLA_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      unsetenv("SGLA_THREADS");
    } else {
      setenv("SGLA_THREADS", value, 1);
    }
  }
  ~ScopedThreadsEnv() {
    if (had_old_) {
      setenv("SGLA_THREADS", old_.c_str(), 1);
    } else {
      unsetenv("SGLA_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

/// Satellite hardening: valid SGLA_THREADS overrides are honored (and
/// capped); malformed values fall back to hardware_concurrency() instead of
/// silently misbehaving.
TEST(ThreadPoolTest, DefaultThreadsEnvParsing) {
  int fallback = 0;
  {
    ScopedThreadsEnv unset(nullptr);
    fallback = util::ThreadPool::DefaultThreads();
    EXPECT_GE(fallback, 1);
  }
  {
    ScopedThreadsEnv env("3");
    EXPECT_EQ(util::ThreadPool::DefaultThreads(), 3);
  }
  {
    ScopedThreadsEnv env("99999");  // absurd but numeric: capped, not refused
    EXPECT_EQ(util::ThreadPool::DefaultThreads(), 1024);
  }
  for (const char* bad : {"0", "-2", "abc", "4abc", "", "1.5"}) {
    ScopedThreadsEnv env(bad);
    EXPECT_EQ(util::ThreadPool::DefaultThreads(), fallback)
        << "SGLA_THREADS='" << bad << "' must fall back";
  }
}

/// Satellite hardening: SGLA_ISA follows the same contract as SGLA_THREADS —
/// strict token parse, a [SGLA WARNING] plus auto-detect fallback on junk or
/// host-unsupported names, silent auto-detect when unset. ResolveIsaSpec is
/// the pure function first-use resolution runs on getenv("SGLA_ISA").
TEST(SimdDispatchTest, SglaIsaEnvParsing) {
  const std::vector<la::simd::Isa> available = la::simd::AvailableIsas();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), la::simd::Isa::kScalar);
  const la::simd::Isa best = available.back();

  // Unset / empty: auto-detect picks the best available ISA, no warning.
  for (const char* spec : {static_cast<const char*>(nullptr), ""}) {
    std::string warning;
    EXPECT_EQ(la::simd::ResolveIsaSpec(spec, &warning), best);
    EXPECT_TRUE(warning.empty()) << warning;
  }

  // Every known token resolves to itself when the host can run it, and
  // falls back (with a warning) when it cannot — which token does which
  // depends on the build host, so exercise all three.
  for (la::simd::Isa isa : {la::simd::Isa::kScalar, la::simd::Isa::kAvx2,
                            la::simd::Isa::kAvx512}) {
    std::string warning;
    const la::simd::Isa resolved =
        la::simd::ResolveIsaSpec(la::simd::IsaName(isa), &warning);
    if (la::simd::IsaAvailable(isa)) {
      EXPECT_EQ(resolved, isa);
      EXPECT_TRUE(warning.empty()) << warning;
      EXPECT_TRUE(la::simd::SetActiveForTesting(isa));
      EXPECT_EQ(la::simd::ActiveIsa(), isa);
    } else {
      EXPECT_EQ(resolved, best);
      EXPECT_NE(warning.find("[SGLA WARNING]"), std::string::npos)
          << "unavailable ISA must warn, got: '" << warning << "'";
      EXPECT_FALSE(la::simd::SetActiveForTesting(isa));
    }
  }
  la::simd::SetActiveForTesting(best);

  // Junk tokens: warn and auto-detect. Tokens are exact — no case folding,
  // no whitespace trimming, no prefixes. "neon" names no ISA this library
  // knows (there is no NEON kernel table), so it is junk too.
  for (const char* junk : {"garbage", "AVX2", " avx2", "avx2 ", "avx", "sse",
                           "scalar,avx2", "neon"}) {
    std::string warning;
    EXPECT_EQ(la::simd::ResolveIsaSpec(junk, &warning), best)
        << "SGLA_ISA='" << junk << "'";
    EXPECT_NE(warning.find("[SGLA WARNING]"), std::string::npos)
        << "SGLA_ISA='" << junk << "' must warn";
  }
}

/// Satellite: the RP-forest KNN path runs one task per tree with split-off
/// per-tree RNG streams — edge lists must be bit-identical at any thread
/// count (exact path is covered by KernelsBitIdenticalAcrossThreadCounts).
TEST(DeterminismTest, RpForestKnnBitIdenticalAcrossThreadCounts) {
  Rng rng(17);
  const std::vector<int32_t> labels = data::BalancedLabels(500, 3, &rng);
  const la::DenseMatrix points =
      data::GaussianAttributes(labels, 3, 12, 3.0, 1.0, &rng);

  graph::KnnOptions knn;
  knn.k = 6;
  knn.exact_threshold = 1;  // force the approximate RP-forest path
  knn.trees = 6;
  knn.leaf_size = 32;

  ThreadCountGuard guard;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> runs;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    const graph::Graph g = graph::KnnGraph(points, knn);
    std::vector<std::pair<int64_t, int64_t>> edges;
    for (const graph::Edge& e : g.edges()) edges.push_back({e.u, e.v});
    runs.push_back(std::move(edges));
  }
  EXPECT_FALSE(runs[0].empty());
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(AggregatorTest, MatchesWeightedSumOnRandomPatterns) {
  Rng rng(321);
  // Overlapping random supports, plus empty rows (density keeps some rows
  // empty at these sizes).
  std::vector<la::CsrMatrix> views;
  views.push_back(RandomSparse(60, 60, 0.08, &rng));
  views.push_back(RandomSparse(60, 60, 0.02, &rng));
  views.push_back(RandomSparse(60, 60, 0.15, &rng));
  core::LaplacianAggregator aggregator(&views);
  const std::vector<std::vector<double>> weight_sets = {
      {0.2, 0.5, 0.3},
      {0.0, 1.0, 0.0},   // zero weights must be skipped, not scaled
      {1.0, 0.0, 0.0},
      {0.0, 0.0, 0.0},   // all-zero: aggregate is the zero matrix
  };
  for (const std::vector<double>& w : weight_sets) {
    const la::CsrMatrix& got = aggregator.Aggregate(w);
    const la::CsrMatrix want =
        la::WeightedSum({&views[0], &views[1], &views[2]}, w);
    const la::DenseMatrix dg = la::ToDense(got), dw = la::ToDense(want);
    ASSERT_EQ(dg.rows(), dw.rows());
    for (int64_t i = 0; i < dg.rows(); ++i) {
      for (int64_t j = 0; j < dg.cols(); ++j) {
        EXPECT_NEAR(dg(i, j), dw(i, j), 1e-13)
            << "mismatch at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(AggregatorTest, MatchesWeightedSumOnDisjointSupports) {
  // Views living on disjoint row blocks: the union pattern is their
  // concatenation and every slot has exactly one contributor.
  std::vector<la::Triplet> a, b;
  for (int64_t i = 0; i < 10; ++i) a.push_back({i, i, 1.0 + i});
  for (int64_t i = 10; i < 20; ++i) b.push_back({i, 19 - i, 2.0 * i});
  std::vector<la::CsrMatrix> views;
  views.push_back(la::FromTriplets(20, 20, std::move(a)));
  views.push_back(la::FromTriplets(20, 20, std::move(b)));
  core::LaplacianAggregator aggregator(&views);
  const la::CsrMatrix& got = aggregator.Aggregate({0.7, 0.3});
  const la::CsrMatrix want = la::WeightedSum({&views[0], &views[1]}, {0.7, 0.3});
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_EQ(got.col_idx, want.col_idx);
  for (int64_t p = 0; p < got.nnz(); ++p) {
    EXPECT_DOUBLE_EQ(got.values[static_cast<size_t>(p)],
                     want.values[static_cast<size_t>(p)]);
  }
}

/// Random n x n pattern: ~10% empty rows, a few long rows, the rest 1-12
/// entries; values are 1-based entry indices so a weight-1 aggregate shows
/// exactly where each entry landed.
la::CsrMatrix RandomPatternView(int64_t n, Rng* rng) {
  std::vector<la::Triplet> entries;
  for (int64_t r = 0; r < n; ++r) {
    const double roll = rng->Uniform();
    if (roll < 0.1) continue;
    const int64_t len = roll < 0.13 ? rng->UniformInt(40, 90)
                                    : rng->UniformInt(1, 12);
    for (int64_t j = 0; j < len; ++j) {
      entries.push_back({r, rng->UniformInt(0, n - 1), 0.0});
    }
  }
  la::CsrMatrix m = la::FromTriplets(n, n, std::move(entries));
  for (size_t p = 0; p < m.values.size(); ++p) {
    m.values[p] = static_cast<double>(p + 1);
  }
  return m;
}

/// Copy of the union merge the aggregator used to run: row by row,
/// a k-way merge of the views' sorted columns, appending each union slot
/// and recording every view entry's destination slot.
void SerialUnionMerge(const std::vector<la::CsrMatrix>& views,
                      la::CsrMatrix* pattern,
                      std::vector<std::vector<int64_t>>* scatter) {
  const int64_t rows = views[0].rows;
  pattern->rows = rows;
  pattern->cols = views[0].cols;
  pattern->row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  pattern->col_idx.clear();
  scatter->assign(views.size(), {});
  for (size_t v = 0; v < views.size(); ++v) {
    (*scatter)[v].resize(views[v].col_idx.size());
  }
  std::vector<int64_t> cursor(views.size());
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t v = 0; v < views.size(); ++v) cursor[v] = views[v].row_ptr[r];
    while (true) {
      int64_t next_col = INT64_MAX;
      for (size_t v = 0; v < views.size(); ++v) {
        if (cursor[v] < views[v].row_ptr[r + 1]) {
          next_col = std::min(next_col, views[v].col_idx[cursor[v]]);
        }
      }
      if (next_col == INT64_MAX) break;
      const int64_t slot = static_cast<int64_t>(pattern->col_idx.size());
      for (size_t v = 0; v < views.size(); ++v) {
        if (cursor[v] < views[v].row_ptr[r + 1] &&
            views[v].col_idx[cursor[v]] == next_col) {
          (*scatter)[v][cursor[v]++] = slot;
        }
      }
      pattern->col_idx.push_back(next_col);
    }
    pattern->row_ptr[r + 1] = static_cast<int64_t>(pattern->col_idx.size());
  }
  pattern->values.assign(pattern->col_idx.size(), 0.0);
}

/// Copy of the serial SELL-C-σ pattern build: rows sorted by descending
/// nnz (ascending index among equals) within each σ window, slices padded
/// to their longest row, lane-minor storage.
la::SellMatrix SerialSellPattern(const la::CsrMatrix& m) {
  la::SellMatrix out;
  out.rows = m.rows;
  out.cols = m.cols;
  const int64_t slices = (m.rows + la::kSellLanes - 1) / la::kSellLanes;
  const int64_t slots = slices * la::kSellLanes;
  const auto nnz_of = [&m](int64_t r) { return m.row_ptr[r + 1] - m.row_ptr[r]; };
  out.perm.assign(static_cast<size_t>(slots), -1);
  for (int64_t r = 0; r < m.rows; ++r) out.perm[r] = r;
  for (int64_t lo = 0; lo < m.rows; lo += la::kSellSortWindow) {
    const int64_t hi = std::min(m.rows, lo + la::kSellSortWindow);
    std::stable_sort(out.perm.begin() + lo, out.perm.begin() + hi,
                     [&nnz_of](int64_t a, int64_t b) {
                       return nnz_of(a) > nnz_of(b);
                     });
  }
  out.row_len.assign(static_cast<size_t>(slots), 0);
  out.slice_ptr.assign(static_cast<size_t>(slices) + 1, 0);
  for (int64_t s = 0; s < slices; ++s) {
    int64_t width = 0;
    for (int64_t l = 0; l < la::kSellLanes; ++l) {
      const int64_t row = out.perm[s * la::kSellLanes + l];
      if (row < 0) continue;
      out.row_len[s * la::kSellLanes + l] = nnz_of(row);
      width = std::max(width, nnz_of(row));
    }
    out.slice_ptr[s + 1] = out.slice_ptr[s] + width;
  }
  const size_t padded = static_cast<size_t>(out.slice_ptr[slices]) *
                        static_cast<size_t>(la::kSellLanes);
  out.col_idx.assign(padded, 0);
  out.values.assign(padded, 0.0);
  out.value_slot.assign(m.col_idx.size(), 0);
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t l = 0; l < la::kSellLanes; ++l) {
      const int64_t slot = s * la::kSellLanes + l;
      const int64_t row = out.perm[slot];
      if (row < 0) continue;
      for (int64_t j = 0; j < out.row_len[slot]; ++j) {
        const int64_t at = (out.slice_ptr[s] + j) * la::kSellLanes + l;
        const int64_t p = m.row_ptr[row] + j;
        out.col_idx[at] = static_cast<int32_t>(m.col_idx[p]);
        out.values[at] = m.values[p];
        out.value_slot[p] = static_cast<int32_t>(at);
      }
    }
  }
  return out;
}

TEST(AggregatorTest, UnionPatternMatchesSerialMerge) {
  // The aggregator's union build (a k-way merge over cached cursor heads)
  // and its SELL build must reproduce the reference merge slot for slot at
  // every thread and shard count: union row_ptr / col_idx, every view's
  // scatter map (read back through a weight-1 aggregate of index-valued
  // views) and the whole SELL pattern.
  ThreadCountGuard guard;
  uint64_t seed = 4400;
  for (int64_t n : {1, 9, 511, 513, 1537, 2570}) {
    Rng rng(seed++);
    const int num_views = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<la::CsrMatrix> views;
    for (int v = 0; v < num_views; ++v) {
      views.push_back(RandomPatternView(n, &rng));
    }
    la::CsrMatrix want;
    std::vector<std::vector<int64_t>> want_scatter;
    SerialUnionMerge(views, &want, &want_scatter);
    const la::SellMatrix want_sell = SerialSellPattern(want);
    for (int threads : {1, 4}) {
      util::ThreadPool::SetGlobalThreads(threads);
      for (int shards : {1, 3, 4}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " views=" +
                     std::to_string(num_views) + " threads=" +
                     std::to_string(threads) + " shards=" +
                     std::to_string(shards));
        core::LaplacianAggregator aggregator(
            &views, serve::MakeShardPlan(n, shards).boundaries);
        const la::CsrMatrix& got = aggregator.pattern();
        ASSERT_EQ(got.row_ptr, want.row_ptr);
        ASSERT_EQ(got.col_idx, want.col_idx);
        la::CsrMatrix out;
        aggregator.BindPattern(&out);
        for (int v = 0; v < num_views; ++v) {
          std::vector<double> weights(static_cast<size_t>(num_views), 0.0);
          weights[static_cast<size_t>(v)] = 1.0;
          aggregator.AggregateValuesInto(weights, &out);
          std::vector<double> expected(want.col_idx.size(), 0.0);
          for (size_t p = 0; p < want_scatter[v].size(); ++p) {
            expected[static_cast<size_t>(want_scatter[v][p])] =
                views[v].values[p];
          }
          ASSERT_EQ(out.values, expected) << "scatter map of view " << v;
        }
        la::SellMatrix sell;
        aggregator.BindSellPattern(&sell);
        EXPECT_EQ(sell.slice_ptr, want_sell.slice_ptr);
        EXPECT_EQ(sell.col_idx, want_sell.col_idx);
        EXPECT_EQ(sell.values, want_sell.values);
        EXPECT_EQ(sell.row_len, want_sell.row_len);
        EXPECT_EQ(sell.perm, want_sell.perm);
        EXPECT_EQ(sell.value_slot, want_sell.value_slot);
      }
    }
  }
}

/// The tentpole guarantee: objective values (and the kernels under them —
/// Aggregate, SpMV, Lanczos, KNN, k-means) are bit-identical at
/// SGLA_THREADS=1, 2, and 8.
TEST(DeterminismTest, ObjectiveBitIdenticalAcrossThreadCounts) {
  Rng rng(99);
  const std::vector<int32_t> labels = data::BalancedLabels(400, 4, &rng);
  const graph::Graph g1 = data::SbmGraph(labels, 4, 0.10, 0.01, &rng);
  const graph::Graph g2 = data::SbmGraph(labels, 4, 0.05, 0.02, &rng);
  std::vector<la::CsrMatrix> views = {graph::NormalizedLaplacian(g1),
                                      graph::NormalizedLaplacian(g2)};

  ThreadCountGuard guard;
  std::vector<double> h_values, lambda2_values, eigengap_values;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    core::SpectralObjective objective(&views, 4);
    const auto value = objective.Evaluate({0.55, 0.45});
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    h_values.push_back(value->h);
    lambda2_values.push_back(value->lambda2);
    eigengap_values.push_back(value->eigengap);
  }
  // Exact equality on purpose: the execution layer promises identical bits.
  EXPECT_EQ(h_values[0], h_values[1]);
  EXPECT_EQ(h_values[0], h_values[2]);
  EXPECT_EQ(lambda2_values[0], lambda2_values[1]);
  EXPECT_EQ(lambda2_values[0], lambda2_values[2]);
  EXPECT_EQ(eigengap_values[0], eigengap_values[1]);
  EXPECT_EQ(eigengap_values[0], eigengap_values[2]);
}

TEST(DeterminismTest, KernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const la::CsrMatrix m = RandomSparse(700, 700, 0.02, &rng);
  la::Vector x(700);
  for (double& v : x) v = rng.Gaussian();
  const std::vector<int32_t> labels = data::BalancedLabels(600, 3, &rng);
  const la::DenseMatrix points =
      data::GaussianAttributes(labels, 3, 16, 4.0, 0.8, &rng);

  Rng rng2(8);
  const la::CsrMatrix m2 = RandomSparse(700, 700, 0.03, &rng2);

  ThreadCountGuard guard;
  std::vector<la::Vector> spmv_runs;
  std::vector<std::vector<double>> wsum_runs;
  std::vector<std::vector<int32_t>> kmeans_labels;
  std::vector<double> kmeans_inertia;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> knn_edges;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    la::Vector y(700);
    la::Spmv(m, x.data(), y.data());
    spmv_runs.push_back(std::move(y));

    wsum_runs.push_back(la::WeightedSum({&m, &m2}, {0.31, 0.69}).values);

    cluster::KMeansOptions kopts;
    kopts.num_init = 2;
    const cluster::KMeansResult km = cluster::KMeans(points, 3, kopts);
    kmeans_labels.push_back(km.labels);
    kmeans_inertia.push_back(km.inertia);

    graph::KnnOptions knn;
    knn.k = 8;
    knn.exact_threshold = 1 << 20;
    const graph::Graph g = graph::KnnGraph(points, knn);
    // Full edge lists, not counts: a reordered heap could swap one neighbor
    // for another without changing num_edges().
    std::vector<std::pair<int64_t, int64_t>> edges;
    for (const graph::Edge& e : g.edges()) edges.push_back({e.u, e.v});
    knn_edges.push_back(std::move(edges));
  }
  EXPECT_EQ(spmv_runs[0], spmv_runs[1]);
  EXPECT_EQ(spmv_runs[0], spmv_runs[2]);
  EXPECT_EQ(wsum_runs[0], wsum_runs[1]);
  EXPECT_EQ(wsum_runs[0], wsum_runs[2]);
  EXPECT_EQ(kmeans_labels[0], kmeans_labels[1]);
  EXPECT_EQ(kmeans_labels[0], kmeans_labels[2]);
  EXPECT_EQ(kmeans_inertia[0], kmeans_inertia[1]);
  EXPECT_EQ(kmeans_inertia[0], kmeans_inertia[2]);
  EXPECT_EQ(knn_edges[0], knn_edges[1]);
  EXPECT_EQ(knn_edges[0], knn_edges[2]);
}

/// Satellite bugfix regression: labels, inertia, and centers must describe
/// the same configuration on *every* exit path, including max_iterations.
TEST(KMeansConsistencyTest, OutputsConsistentOnMaxIterationsExit) {
  Rng rng(42);
  const std::vector<int32_t> labels = data::BalancedLabels(200, 4, &rng);
  const la::DenseMatrix points =
      data::GaussianAttributes(labels, 4, 6, 2.0, 1.2, &rng);
  for (int max_iterations : {1, 2, 3, 100}) {
    cluster::KMeansOptions options;
    options.num_init = 1;
    options.max_iterations = max_iterations;
    const cluster::KMeansResult result = cluster::KMeans(points, 4, options);
    const int64_t d = points.cols();
    double inertia = 0.0;
    for (int64_t i = 0; i < points.rows(); ++i) {
      double best = la::SquaredDistance(points.Row(i), result.centers.Row(0), d);
      int32_t best_c = 0;
      for (int c = 1; c < 4; ++c) {
        const double d2 =
            la::SquaredDistance(points.Row(i), result.centers.Row(c), d);
        if (d2 < best) {
          best = d2;
          best_c = static_cast<int32_t>(c);
        }
      }
      EXPECT_EQ(result.labels[static_cast<size_t>(i)], best_c)
          << "label " << i << " stale at max_iterations=" << max_iterations;
      inertia += la::SquaredDistance(
          points.Row(i),
          result.centers.Row(result.labels[static_cast<size_t>(i)]), d);
    }
    EXPECT_NEAR(result.inertia, inertia, 1e-9 * (1.0 + inertia))
        << "inertia stale at max_iterations=" << max_iterations;
  }
}

/// Satellite bugfix regression: the bounded draw must be unbiased. A span of
/// (2^64/3)*2 + 1 makes the old `Next() % span` land in [0, 2^64 mod span)
/// twice as often; Lemire rejection must not. Checked with a chi-squared
/// statistic over equal-probability buckets.
TEST(RngTest, UniformIntChiSquaredUnbiased) {
  Rng rng(1234);
  constexpr int kBuckets = 12;
  constexpr int64_t kDraws = 120000;
  std::vector<int64_t> counts(kBuckets, 0);
  const int64_t span = 9000000000000000000ll;  // ~0.49 * 2^64: worst-case bias
  for (int64_t t = 0; t < kDraws; ++t) {
    const int64_t v = rng.UniformInt(0, span - 1);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, span);
    const int bucket = static_cast<int>(
        static_cast<unsigned __int128>(v) * kBuckets /
        static_cast<uint64_t>(span));
    ++counts[static_cast<size_t>(bucket)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int64_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  // 11 degrees of freedom: P(chi2 > 35) < 3e-4. The modulo-biased draw puts
  // a 1.5x excess on the lowest ~2.4% of the span, which lands this
  // statistic in the high hundreds at these draw counts.
  EXPECT_LT(chi2, 35.0);
}

TEST(TaskQueueTest, WorkerSurvivesThrowingTask) {
  util::TaskQueue queue(1);
  // The throwing task and the follow-up land on the same (sole) worker: if
  // the throw killed it, the second future would never resolve.
  queue.Submit([](int) { throw std::runtime_error("boom"); });
  std::promise<int> alive;
  auto future = alive.get_future();
  queue.Submit([&alive](int worker) { alive.set_value(worker); });
  EXPECT_EQ(future.get(), 0);
}

TEST(TaskQueueTest, PendingCountsQueuedAndRunningTasks) {
  util::TaskQueue queue(1);
  EXPECT_EQ(queue.pending(), 0u);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  queue.Submit([&started, gate](int) {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();  // first task is now *running*
  queue.Submit([gate](int) { gate.wait(); });
  queue.Submit([gate](int) { gate.wait(); });
  EXPECT_EQ(queue.pending(), 3u);  // 1 running + 2 queued

  release.set_value();
  // pending() is a snapshot: poll it down to the drained state.
  while (queue.pending() != 0) std::this_thread::yield();
}

TEST(RngTest, UniformIntSmallSpanExactBounds) {
  Rng rng(9);
  std::vector<int64_t> counts(3, 0);
  for (int t = 0; t < 30000; ++t) {
    const int64_t v = rng.UniformInt(-1, 1);
    ASSERT_GE(v, -1);
    ASSERT_LE(v, 1);
    ++counts[static_cast<size_t>(v + 1)];
  }
  for (int64_t c : counts) {
    EXPECT_GT(c, 9500);
    EXPECT_LT(c, 10500);
  }
}

}  // namespace
}  // namespace sgla
