// Incremental-update tests: GraphDelta application, copy-on-write epochs,
// value-only vs pattern-changing delta handling (pattern_id stamp reuse,
// per-shard selective rebuild), the zero-allocation hot path of a
// value-only update + re-solve, UpdateGraph racing evict/re-register
// (TSAN-clean), and the seeded-random updated == fresh oracle over mixed
// delta streams.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregator.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "serve/shard_plan.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook (same scheme as engine_test.cc): operator new
// bumps a counter so tests can assert the value-only update + re-solve hot
// path allocates nothing.
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

namespace sgla {
namespace {

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

/// Two-SBM-view fixture sized so MakeShardPlan(n, 4) really yields 4 shards
/// (4 fixed 512-row chunks, ragged tail) without dragging test time up.
struct UpdateFixture {
  core::MultiViewGraph mvag;

  static UpdateFixture Make(int64_t n, int k, uint64_t seed) {
    UpdateFixture f;
    Rng rng(seed);
    std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
    f.mvag = core::MultiViewGraph(n, k);
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.04, 0.004, &rng));
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.02, 0.008, &rng));
    f.mvag.set_labels(std::move(labels));
    return f;
  }
};

/// A value-only delta: re-weights `count` existing edges of graph view 0.
/// No insertion, no removal, all weights positive — every view keeps its
/// sparsity pattern.
serve::GraphDelta WeightDelta(const core::MultiViewGraph& mvag, size_t count,
                              double weight) {
  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  const size_t stride = std::max<size_t>(1, edges.size() / count);
  for (size_t i = 0; i < edges.size() && view_delta.upserts.size() < count;
       i += stride) {
    view_delta.upserts.push_back({edges[i].u, edges[i].v, weight});
  }
  delta.graph_views.push_back(std::move(view_delta));
  return delta;
}

/// A pattern-changing delta: removes `count` existing edges of view 0.
serve::GraphDelta RemovalDelta(const core::MultiViewGraph& mvag,
                               size_t count) {
  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  for (size_t i = 0; i < edges.size() && i < count; ++i) {
    view_delta.removals.push_back({edges[i].u, edges[i].v});
  }
  delta.graph_views.push_back(std::move(view_delta));
  return delta;
}

core::SglaPlusOptions FastOptions() {
  core::SglaPlusOptions options;
  options.base.max_evaluations = 16;  // keep full-solve tests quick
  return options;
}

void ExpectSameIntegration(const core::IntegrationResult& a,
                           const core::IntegrationResult& b) {
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.laplacian.row_ptr, b.laplacian.row_ptr);
  EXPECT_EQ(a.laplacian.col_idx, b.laplacian.col_idx);
  EXPECT_EQ(a.laplacian.values, b.laplacian.values);
  EXPECT_EQ(a.objective_history, b.objective_history);
}

/// Solves `id` on `engine` and returns the response.
serve::SolveResponse Solve(serve::Engine* engine, const std::string& id) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.options = FastOptions();
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

// ---------------------------------------------------------------------------
// Delta semantics + copy-on-write epochs
// ---------------------------------------------------------------------------

TEST(GraphDeltaTest, ValidateThenApplyLeavesGraphUntouchedOnError) {
  UpdateFixture f = UpdateFixture::Make(240, 2, 7);
  const int64_t edges_before = f.mvag.graph_views()[0].num_edges();

  serve::GraphDelta bad;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  view_delta.upserts.push_back({0, 5, 2.0});
  view_delta.upserts.push_back({0, 99999, 1.0});  // out of range
  bad.graph_views.push_back(std::move(view_delta));

  std::vector<bool> affected;
  EXPECT_FALSE(serve::ApplyDelta(&f.mvag, bad, &affected).ok());
  EXPECT_EQ(f.mvag.graph_views()[0].num_edges(), edges_before);
}

TEST(GraphDeltaTest, UpsertReplacesInPlaceAndRemovalDropsBothOrientations) {
  core::MultiViewGraph mvag(6, 2);
  graph::Graph g(6);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 0, 2.0);  // parallel duplicate, reversed orientation
  g.AddEdge(2, 3, 1.0);
  mvag.AddGraphView(std::move(g));

  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  view_delta.upserts.push_back({1, 0, 5.0});  // replaces + coalesces (0,1)
  view_delta.upserts.push_back({4, 5, 3.0});  // inserts
  view_delta.removals.push_back({3, 2});      // removes (2,3)
  delta.graph_views.push_back(std::move(view_delta));

  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&mvag, delta, &affected).ok());
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_TRUE(affected[0]);
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0);
  EXPECT_EQ(edges[0].v, 1);
  EXPECT_EQ(edges[0].weight, 5.0);
  EXPECT_EQ(edges[1].u, 4);
  EXPECT_EQ(edges[1].v, 5);
  EXPECT_EQ(edges[1].weight, 3.0);
}

TEST(UpdateGraphTest, EmptyDeltaIsANoOp) {
  UpdateFixture f = UpdateFixture::Make(240, 2, 11);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", f.mvag);
  ASSERT_TRUE(registered.ok());

  auto updated = registry.UpdateGraph("g", serve::GraphDelta());
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->get(), registered->get());  // same snapshot, same epoch
  EXPECT_EQ((*updated)->epoch, 0);
}

TEST(UpdateGraphTest, UnknownIdAndViewOnlyEntriesFail) {
  UpdateFixture f = UpdateFixture::Make(240, 2, 13);
  serve::GraphRegistry registry;
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  ASSERT_TRUE(registry.RegisterViews("views-only", *views, 2).ok());

  auto missing = registry.UpdateGraph("nope", WeightDelta(f.mvag, 4, 2.0));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto sourceless =
      registry.UpdateGraph("views-only", WeightDelta(f.mvag, 4, 2.0));
  EXPECT_EQ(sourceless.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Value-only vs pattern-changing deltas, at SGLA_THREADS=1,4 x shards=1,4.
// The updated entry's cold solve must be bit-identical to registering the
// post-delta graph from scratch — the copy-on-write epoch is just a faster
// way to the same state.
// ---------------------------------------------------------------------------

class UpdateSolveTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UpdateSolveTest, ValueOnlyDeltaReusesPatternAndMatchesScratch) {
  const int threads = std::get<0>(GetParam());
  const int shards = std::get<1>(GetParam());
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(threads);

  UpdateFixture f = UpdateFixture::Make(1800, 3, 17);
  serve::RegisterOptions options;
  options.shards = shards;

  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag, options);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t pattern_before = (*before)->aggregator->pattern_id();

  const serve::GraphDelta delta = WeightDelta(f.mvag, 12, 1.75);
  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->epoch, 1);
  EXPECT_NE(after->get(), before->get());

  // The pattern_id stamp is the value-only contract: bound workspaces must
  // not rebind, so the donor aggregators keep the previous epoch's id.
  EXPECT_EQ((*after)->aggregator->pattern_id(), pattern_before);
  EXPECT_EQ((*after)->aggregator->boundaries(),
            (*before)->aggregator->boundaries());
  EXPECT_EQ((*after)->aggregator->num_shards(), shards);
  // Views: affected view re-valued on the same pattern, the other carried.
  EXPECT_EQ((*after)->views[0].col_idx, (*before)->views[0].col_idx);
  EXPECT_NE((*after)->views[0].values, (*before)->views[0].values);
  EXPECT_EQ((*after)->views[1].values, (*before)->views[1].values);

  // Bit-identity with a from-scratch registration of the mutated graph.
  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  serve::GraphRegistry scratch_registry;
  ASSERT_TRUE(scratch_registry.Register("g", scratch_mvag, options).ok());

  serve::Engine updated_engine(&registry);
  serve::Engine scratch_engine(&scratch_registry);
  const serve::SolveResponse updated = Solve(&updated_engine, "g");
  const serve::SolveResponse scratch = Solve(&scratch_engine, "g");
  ExpectSameIntegration(updated.integration, scratch.integration);
  EXPECT_EQ(updated.labels, scratch.labels);
  EXPECT_EQ(updated.stats.graph_epoch, 1);
}

TEST_P(UpdateSolveTest, PatternChangingDeltaRebuildsAndMatchesScratch) {
  const int threads = std::get<0>(GetParam());
  const int shards = std::get<1>(GetParam());
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(threads);

  UpdateFixture f = UpdateFixture::Make(1800, 3, 19);
  serve::RegisterOptions options;
  options.shards = shards;

  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag, options);
  ASSERT_TRUE(before.ok());
  const uint64_t pattern_before = (*before)->aggregator->pattern_id();

  const serve::GraphDelta delta = RemovalDelta(f.mvag, 10);
  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->epoch, 1);
  // Removals change view 0's sparsity: the union pattern is rebuilt under a
  // fresh id so every bound workspace rebinds.
  EXPECT_NE((*after)->aggregator->pattern_id(), pattern_before);

  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  serve::GraphRegistry scratch_registry;
  ASSERT_TRUE(scratch_registry.Register("g", scratch_mvag, options).ok());

  serve::Engine updated_engine(&registry);
  serve::Engine scratch_engine(&scratch_registry);
  const serve::SolveResponse updated = Solve(&updated_engine, "g");
  const serve::SolveResponse scratch = Solve(&scratch_engine, "g");
  ExpectSameIntegration(updated.integration, scratch.integration);
  EXPECT_EQ(updated.labels, scratch.labels);
}

INSTANTIATE_TEST_SUITE_P(ThreadsByShards, UpdateSolveTest,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 4)));

TEST(UpdateGraphTest, DeletingAViewsLastEdgeInAShardMatchesScratch) {
  // A third view whose few edges all live in shard 0 of a 4-shard plan
  // (rows < 512): deleting them empties that view, a pattern change
  // confined to shard 0's rows.
  UpdateFixture f = UpdateFixture::Make(1800, 3, 23);
  graph::Graph sparse_view(1800);
  for (int64_t i = 0; i < 6; ++i) sparse_view.AddEdge(i, i + 1, 1.0);
  f.mvag.AddGraphView(std::move(sparse_view));

  serve::RegisterOptions options;
  options.shards = 4;
  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag, options);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ((*before)->aggregator->num_shards(), 4);

  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 2;  // the sparse extra view
  for (int64_t i = 0; i < 6; ++i) view_delta.removals.push_back({i, i + 1});
  delta.graph_views.push_back(std::move(view_delta));

  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->views[2].nnz(), 0);  // the view is now empty
  // Shard 0's pattern changed, so the aggregator takes a fresh id on the
  // same row partition.
  EXPECT_NE((*after)->aggregator->pattern_id(),
            (*before)->aggregator->pattern_id());
  EXPECT_EQ((*after)->aggregator->boundaries(),
            (*before)->aggregator->boundaries());

  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  serve::GraphRegistry scratch_registry;
  ASSERT_TRUE(scratch_registry.Register("g", scratch_mvag, options).ok());
  serve::Engine updated_engine(&registry);
  serve::Engine scratch_engine(&scratch_registry);
  const serve::SolveResponse updated = Solve(&updated_engine, "g");
  const serve::SolveResponse scratch = Solve(&scratch_engine, "g");
  ExpectSameIntegration(updated.integration, scratch.integration);
  EXPECT_EQ(updated.labels, scratch.labels);
}

TEST(UpdateGraphTest, AttributeRowUpdateRecomputesOnlyThatView) {
  UpdateFixture f = UpdateFixture::Make(300, 2, 29);
  Rng rng(31);
  f.mvag.AddAttributeView(data::GaussianAttributes(
      data::BalancedLabels(300, 2, &rng), 2, 6, 3.0, 0.9, &rng));

  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag);
  ASSERT_TRUE(before.ok());

  serve::GraphDelta delta;
  serve::AttributeRowUpdate row_update;
  row_update.view = 0;
  row_update.row = 5;
  row_update.values.assign(6, 0.25);
  delta.attribute_rows.push_back(std::move(row_update));

  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  // Graph views carried over bitwise; the attribute view (global index 2)
  // re-ran its KNN.
  EXPECT_EQ((*after)->views[0].values, (*before)->views[0].values);
  EXPECT_EQ((*after)->views[1].values, (*before)->views[1].values);

  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  ASSERT_TRUE(affected[2]);
  auto scratch_views = core::ComputeViewLaplacians(scratch_mvag);
  ASSERT_TRUE(scratch_views.ok());
  EXPECT_EQ((*after)->views[2].row_ptr, (*scratch_views)[2].row_ptr);
  EXPECT_EQ((*after)->views[2].col_idx, (*scratch_views)[2].col_idx);
  EXPECT_EQ((*after)->views[2].values, (*scratch_views)[2].values);
}

// ---------------------------------------------------------------------------
// Zero-allocation hot path: steady-state value-only update + re-solve. The
// epoch swap itself builds a new entry (control path, allocates); the HOT
// path — re-scattering values through the donor pattern and the eigensolve
// in a bound workspace — must not touch the heap.
// ---------------------------------------------------------------------------

TEST(UpdateAllocationTest, ValueOnlyUpdateResolveHotPathAllocatesNothing) {
  UpdateFixture f = UpdateFixture::Make(1200, 3, 41);
  auto views_before = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views_before.ok());
  const serve::GraphDelta delta = WeightDelta(f.mvag, 10, 1.3);
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&f.mvag, delta, &affected).ok());
  auto views_after = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views_after.ok());

  core::LaplacianAggregator before_aggregator(&*views_before);
  // The value-only donor copy: same pattern, same pattern_id.
  core::LaplacianAggregator after_aggregator(&*views_after,
                                             before_aggregator);
  ASSERT_EQ(after_aggregator.pattern_id(), before_aggregator.pattern_id());

  const std::vector<double> w1 = {0.55, 0.45};
  const std::vector<double> w2 = {0.30, 0.70};
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    // The workspace is bound to the pre-update pattern; the shared
    // pattern_id lets the post-update objective reuse that binding.
    core::EvalWorkspace ws;
    core::SpectralObjective before_objective(&before_aggregator, 3,
                                             core::ObjectiveOptions(), &ws);
    ASSERT_TRUE(before_objective.Evaluate(w1).ok());
    ASSERT_TRUE(before_objective.Evaluate(w2).ok());

    core::SpectralObjective objective(&after_aggregator, 3,
                                      core::ObjectiveOptions(), &ws);
    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      auto value = objective.Evaluate(i % 2 == 0 ? w1 : w2);
      ASSERT_TRUE(value.ok());
      ASSERT_TRUE(value->lanczos_iterations > 0);
    }
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "value-only re-solve hot path allocated at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// UpdateGraph racing evict / re-register (extends the PR-4 snapshot-lookup
// hammer): one updater stream, one evict+re-register stream, two snapshot
// readers. TSAN (scripts/check.sh --tsan) verifies the locking; the
// assertions verify updates never resurrect an evicted id, every outcome is
// one of {applied, NotFound}, and readers never observe torn entries.
// ---------------------------------------------------------------------------

TEST(UpdateHammerTest, UpdateRacingEvictReregisterIsClean) {
  UpdateFixture f = UpdateFixture::Make(260, 2, 59);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  const serve::GraphDelta delta = WeightDelta(f.mvag, 6, 1.5);

  constexpr int kIterations = 120;
  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;

  threads.emplace_back([&] {  // updater
    for (int i = 0; i < kIterations; ++i) {
      auto updated = registry.UpdateGraph("g", delta);
      if (!updated.ok() &&
          updated.status().code() != StatusCode::kNotFound) {
        ++unexpected;  // FailedPrecondition would mean a sourceless entry
      }
      if (updated.ok() && (*updated)->aggregator->pattern_id() == 0) {
        ++unexpected;
      }
    }
  });
  threads.emplace_back([&] {  // evict + re-register under the same id
    for (int i = 0; i < kIterations; ++i) {
      registry.Evict("g");
      (void)registry.Register("g", f.mvag);
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {  // snapshot readers
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = registry.Find("g");
        if (snapshot == nullptr) continue;
        if (snapshot->num_nodes != 260 || snapshot->views.size() != 2u ||
            snapshot->epoch < 0 ||
            snapshot->aggregator->pattern_id() == 0) {
          ++unexpected;
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(unexpected.load(), 0);

  // The registry still works after the storm.
  ASSERT_NE(registry.Find("g"), nullptr);
  auto updated = registry.UpdateGraph("g", delta);
  EXPECT_TRUE(updated.ok()) << updated.status().ToString();
}

// ---------------------------------------------------------------------------
// Seeded updated == fresh oracle. Each seed draws a graph (two SBM views and
// one attribute view) and a stream of mixed deltas: value-only re-weights,
// pattern edits, one delta that removes a node's last edge in a view (its
// row turns isolated), attribute rows, a mixed delta, and one mask ... edit
// ... unmask. After every epoch the updated entry must equal a fresh
// registration of the post-delta graph bit for bit: every resident view
// Laplacian, the union pattern of the serving views, and an exact SGLA
// solve's weights and labels — at threads {1, 4} x shards {1, 4}.
// SGLA_UPDATE_ORACLE_SEED replays the one seed a red run printed.
// ---------------------------------------------------------------------------

enum class OracleStep { kValue, kPattern, kIsolate, kAttribute, kMixed,
                        kMask, kUnmask };

/// A random existing edge of graph view `view`.
const graph::Edge& RandomEdge(const core::MultiViewGraph& mvag, int view,
                              Rng* rng) {
  const std::vector<graph::Edge>& edges =
      mvag.graph_views()[static_cast<size_t>(view)].edges();
  return edges[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
}

/// Re-weights 1-8 existing edges of `view` (no pattern change) and, when
/// `structural`, also removes 1-6 edges and inserts 1-6 new pairs.
serve::GraphViewDelta RandomEdgeEdits(const core::MultiViewGraph& mvag,
                                      int view, bool structural, Rng* rng) {
  serve::GraphViewDelta d;
  d.view = view;
  const int64_t n = mvag.num_nodes();
  for (int64_t i = rng->UniformInt(1, 8); i > 0; --i) {
    const graph::Edge& e = RandomEdge(mvag, view, rng);
    d.upserts.push_back({e.u, e.v, 0.2 + 1.5 * rng->Uniform()});
  }
  if (!structural) return d;
  for (int64_t i = rng->UniformInt(1, 6); i > 0; --i) {
    const graph::Edge& e = RandomEdge(mvag, view, rng);
    d.removals.push_back({e.u, e.v});
  }
  for (int64_t i = rng->UniformInt(1, 6); i > 0; --i) {
    const int64_t u = rng->UniformInt(0, n - 1);
    const int64_t v = (u + rng->UniformInt(1, n - 1)) % n;  // never u
    d.upserts.push_back({u, v, 0.2 + 1.5 * rng->Uniform()});
  }
  return d;
}

/// Removes every edge of one node in `view`: its Laplacian row empties.
serve::GraphViewDelta IsolateNode(const core::MultiViewGraph& mvag, int view,
                                  Rng* rng) {
  serve::GraphViewDelta d;
  d.view = view;
  const int64_t node = RandomEdge(mvag, view, rng).u;
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const graph::Edge& e :
       mvag.graph_views()[static_cast<size_t>(view)].edges()) {
    if (e.u == node || e.v == node) pairs.insert({e.u, e.v});
  }
  for (const auto& [u, v] : pairs) d.removals.push_back({u, v});
  return d;
}

serve::AttributeRowUpdate RandomAttributeRow(const core::MultiViewGraph& mvag,
                                             Rng* rng) {
  serve::AttributeRowUpdate row;
  row.view = 0;
  row.row = rng->UniformInt(0, mvag.num_nodes() - 1);
  row.values.resize(static_cast<size_t>(mvag.attribute_views()[0].cols()));
  for (double& x : row.values) x = 3.0 * rng->Gaussian();
  return row;
}

/// The active views of `mvag` as a graph of their own, global order kept.
core::MultiViewGraph ActiveSubset(const core::MultiViewGraph& mvag,
                                  const std::vector<bool>& active) {
  core::MultiViewGraph subset(mvag.num_nodes(), mvag.num_clusters());
  const size_t num_graphs = mvag.graph_views().size();
  for (size_t v = 0; v < active.size(); ++v) {
    if (!active[v]) continue;
    if (v < num_graphs) {
      subset.AddGraphView(mvag.graph_views()[v]);
    } else {
      subset.AddAttributeView(mvag.attribute_views()[v - num_graphs]);
    }
  }
  return subset;
}

serve::SolveResponse ExactSgla(serve::Engine* engine) {
  serve::SolveRequest request;
  request.graph_id = "g";
  request.algorithm = serve::Algorithm::kSgla;
  request.options.base.max_evaluations = 2;  // the oracle compares, not tunes
  request.kmeans.num_init = 1;
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? std::move(*response) : serve::SolveResponse();
}

void ExpectSameCsr(const la::CsrMatrix& got, const la::CsrMatrix& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
  EXPECT_EQ(got.values, want.values);
}

/// One epoch of an oracle stream: the delta, and what a fresh registration
/// of the post-delta graph serves.
struct OracleEpoch {
  serve::GraphDelta delta;
  std::vector<bool> active;              ///< post-delta activity mask
  std::vector<la::CsrMatrix> views;      ///< fresh Laplacian of every view
  la::CsrMatrix pattern;                 ///< fresh union of the active views
  serve::SolveResponse solve;            ///< fresh exact SGLA solve
};

/// The graph and delta stream of one seed, with a fresh registration's
/// state after every epoch. The fresh side runs once, at the default thread
/// count on one shard: sharded == unsharded and thread-count invariance are
/// contracts of their own, so every (threads, shards) run of the stream
/// must match it.
struct OracleStream {
  core::MultiViewGraph initial;
  std::vector<OracleEpoch> epochs;
  serve::RegisterOptions options;  ///< KNN options both sides use
};

OracleStream MakeOracleStream(uint64_t seed) {
  // Sizes cycle with the seed: one to four 512-row shard chunks, ragged.
  const int64_t sizes[] = {257, 613, 1030, 1537};
  const int64_t n = sizes[seed % 4];
  const int k = 3;
  Rng rng(seed);
  const std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  OracleStream stream;
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.02, 0.004, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.012, 0.005, &rng));
  mvag.AddAttributeView(data::GaussianAttributes(labels, k, 6, 3.0, 0.9, &rng));
  stream.initial = mvag;
  // A small RP forest (the KNN path served graphs above 2048 nodes take):
  // every registration and attribute delta re-runs it, on both sides.
  stream.options.knn.exact_threshold = 128;
  stream.options.knn.k = 6;
  stream.options.knn.trees = 2;
  stream.options.knn.leaf_size = 32;

  // Five edit kinds in a seeded order, with a mask before one of the first
  // three and its unmask two steps later (one edit in between runs while
  // the view is masked).
  std::vector<OracleStep> steps = {OracleStep::kValue, OracleStep::kPattern,
                                   OracleStep::kIsolate,
                                   OracleStep::kAttribute, OracleStep::kMixed};
  rng.Shuffle(&steps);
  const int64_t mask_at = rng.UniformInt(0, 2);
  steps.insert(steps.begin() + mask_at, OracleStep::kMask);
  steps.insert(steps.begin() + mask_at + 2, OracleStep::kUnmask);
  const int masked_view = static_cast<int>(rng.UniformInt(0, 2));

  std::vector<bool> active(3, true);
  for (OracleStep step : steps) {
    OracleEpoch epoch;
    const int view = static_cast<int>(rng.UniformInt(0, 1));
    switch (step) {
      case OracleStep::kValue:
        epoch.delta.graph_views.push_back(
            RandomEdgeEdits(mvag, view, false, &rng));
        break;
      case OracleStep::kPattern:
        epoch.delta.graph_views.push_back(
            RandomEdgeEdits(mvag, view, true, &rng));
        break;
      case OracleStep::kIsolate:
        epoch.delta.graph_views.push_back(IsolateNode(mvag, view, &rng));
        break;
      case OracleStep::kAttribute:
        epoch.delta.attribute_rows.push_back(RandomAttributeRow(mvag, &rng));
        break;
      case OracleStep::kMixed:
        epoch.delta.graph_views.push_back(
            RandomEdgeEdits(mvag, view, true, &rng));
        epoch.delta.attribute_rows.push_back(RandomAttributeRow(mvag, &rng));
        break;
      case OracleStep::kMask:
        epoch.delta.mask_views = {masked_view};
        break;
      case OracleStep::kUnmask:
        epoch.delta.unmask_views = {masked_view};
        break;
    }
    serve::DeltaEffects effects;
    EXPECT_TRUE(serve::ApplyDelta(&mvag, epoch.delta, active, &effects).ok());
    active = effects.active;
    epoch.active = active;
    auto views = core::ComputeViewLaplacians(mvag, stream.options.knn);
    EXPECT_TRUE(views.ok());
    if (views.ok()) epoch.views = std::move(*views);
    serve::GraphRegistry fresh_registry;
    auto fresh = fresh_registry.Register("g", ActiveSubset(mvag, active),
                                         stream.options);
    EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
    if (fresh.ok()) epoch.pattern = (*fresh)->aggregator->pattern();
    serve::Engine fresh_engine(&fresh_registry);
    epoch.solve = ExactSgla(&fresh_engine);
    stream.epochs.push_back(std::move(epoch));
  }
  return stream;
}

void RunUpdateOracle(uint64_t seed, const OracleStream& stream, int threads,
                     int shards) {
  const int64_t n = stream.initial.num_nodes();
  const std::string fixture =
      "SGLA_UPDATE_ORACLE_SEED=" + std::to_string(seed) + " n=" +
      std::to_string(n) + " threads=" + std::to_string(threads) +
      " shards=" + std::to_string(shards);
  std::printf("update oracle %s\n", fixture.c_str());
  SCOPED_TRACE(fixture);
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(threads);

  serve::RegisterOptions options = stream.options;
  options.shards = shards;
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", stream.initial, options).ok());
  serve::Engine engine(&registry);
  for (size_t e = 0; e < stream.epochs.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e + 1));
    const OracleEpoch& want = stream.epochs[e];
    auto updated = registry.UpdateGraph("g", want.delta);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    const serve::GraphEntry& entry = **updated;
    EXPECT_EQ(entry.active, want.active);
    // Every resident view, masked ones included, and the union pattern of
    // the serving views, on the shard plan a fresh registration would use.
    ASSERT_EQ(entry.views.size(), want.views.size());
    for (size_t v = 0; v < want.views.size(); ++v) {
      SCOPED_TRACE("view " + std::to_string(v));
      ExpectSameCsr(entry.views[v], want.views[v]);
    }
    EXPECT_EQ(entry.aggregator->pattern().row_ptr, want.pattern.row_ptr);
    EXPECT_EQ(entry.aggregator->pattern().col_idx, want.pattern.col_idx);
    EXPECT_EQ(entry.aggregator->boundaries(),
              serve::MakeShardPlan(n, shards).boundaries);
    const serve::SolveResponse got = ExactSgla(&engine);
    EXPECT_EQ(got.integration.weights, want.solve.integration.weights);
    EXPECT_EQ(got.labels, want.solve.labels);
    EXPECT_EQ(got.stats.graph_epoch, static_cast<int64_t>(e) + 1);
  }
}

TEST(UpdateTest, SeededRandomUpdatedEqualsFresh) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("SGLA_UPDATE_ORACLE_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t i = 0; i < 8; ++i) seeds.push_back(20261018 + i);
  }
  for (uint64_t seed : seeds) {
    const OracleStream stream = MakeOracleStream(seed);
    for (int threads : {1, 4}) {
      for (int shards : {1, 4}) RunUpdateOracle(seed, stream, threads, shards);
    }
  }
}

}  // namespace
}  // namespace sgla
