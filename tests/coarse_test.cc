// Tiered-serving tests: coarse plan construction (valid canonical partition,
// pure function of the sparsity patterns, golden plan fingerprints pinned
// across commits), bit-identity of the plan and of fast-tier solves across
// SGLA_THREADS x shard counts, the affinity kernel and the restricted plan
// repair against reference implementations on seeded-random inputs, the
// fast tier's NMI gap against exact on an SBM fixture, delta maintenance of
// the coarse companion (value-only and above-churn pattern deltas must match
// a fresh re-registration bit for bit; small pattern deltas repair in place
// until their summed churn passes the limit), the lazy companion (only a
// first use builds it, a late build reads its own epoch, concurrent first
// uses build once), and the zero-allocation steady state of the coarse
// serving kernels.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/spectral_clustering.h"
#include "coarse/affinity.h"
#include "coarse/coarsen.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "graph/laplacian.h"
#include "la/dense.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook (same scheme as engine_test.cc / update_test.cc).
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

/// Two-SBM-view fixture (no attribute views, so delta tests compare the
/// update path against re-registration without KNN in the picture).
struct CoarseFixture {
  core::MultiViewGraph mvag;

  static CoarseFixture Make(int64_t n, int k, uint64_t seed) {
    CoarseFixture f;
    Rng rng(seed);
    std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
    f.mvag = core::MultiViewGraph(n, k);
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.04, 0.004, &rng));
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.02, 0.008, &rng));
    f.mvag.set_labels(std::move(labels));
    return f;
  }
};

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
  options.base.max_evaluations = 16;
  return options;
}

serve::SolveResponse SolveTier(serve::Engine* engine, const std::string& id,
                               serve::Quality quality) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.quality = quality;
  request.options = FastOptions();
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

void ExpectValidCanonicalPlan(const coarse::CoarsePlan& plan) {
  ASSERT_EQ(plan.fine_to_coarse.size(),
            static_cast<size_t>(plan.fine_rows));
  ASSERT_EQ(plan.cluster_size.size(), static_cast<size_t>(plan.coarse_rows));
  std::vector<int64_t> counted(static_cast<size_t>(plan.coarse_rows), 0);
  // Canonical numbering: coarse ids appear for the first time in ascending
  // order as fine rows are scanned — id I's first member precedes id I+1's.
  int64_t next_fresh = 0;
  for (int64_t i = 0; i < plan.fine_rows; ++i) {
    const int64_t c = plan.fine_to_coarse[static_cast<size_t>(i)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, plan.coarse_rows);
    if (counted[static_cast<size_t>(c)] == 0) {
      EXPECT_EQ(c, next_fresh) << "non-canonical id order at fine row " << i;
      ++next_fresh;
    }
    ++counted[static_cast<size_t>(c)];
  }
  EXPECT_EQ(next_fresh, plan.coarse_rows);
  for (int64_t c = 0; c < plan.coarse_rows; ++c) {
    EXPECT_EQ(counted[static_cast<size_t>(c)],
              plan.cluster_size[static_cast<size_t>(c)]);
    EXPECT_GE(plan.cluster_size[static_cast<size_t>(c)], 1);
  }
}

void ExpectSamePlan(const coarse::CoarsePlan& a, const coarse::CoarsePlan& b) {
  EXPECT_EQ(a.fine_rows, b.fine_rows);
  EXPECT_EQ(a.coarse_rows, b.coarse_rows);
  EXPECT_EQ(a.fine_to_coarse, b.fine_to_coarse);
  EXPECT_EQ(a.cluster_size, b.cluster_size);
}

void ExpectSameViews(const std::vector<la::CsrMatrix>& a,
                     const std::vector<la::CsrMatrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v].row_ptr, b[v].row_ptr) << "view " << v;
    EXPECT_EQ(a[v].col_idx, b[v].col_idx) << "view " << v;
    EXPECT_EQ(a[v].values, b[v].values) << "view " << v;
  }
}

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

TEST(CoarsePlanTest, BuildsValidCanonicalPartitionAtTargetSize) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 31);
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  core::LaplacianAggregator aggregator(&*views);

  coarse::CoarsePlan plan =
      coarse::BuildCoarsePlan(aggregator.pattern(), *views);
  EXPECT_EQ(plan.fine_rows, 600);
  ExpectValidCanonicalPlan(plan);
  // ratio 0.1 on a connected SBM: real multilevel reduction, floored well
  // above degeneracy.
  EXPECT_GE(plan.coarse_rows, 32);
  EXPECT_LE(plan.coarse_rows, 150);
}

TEST(CoarsePlanTest, PlanIsAPureFunctionOfThePatterns) {
  // Scaling every stored value leaves the plan untouched: matching weights
  // are integer pattern multiplicities, never floats — the invariant the
  // registry's value-only delta fast path relies on.
  const CoarseFixture f = CoarseFixture::Make(400, 2, 41);
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  core::LaplacianAggregator aggregator(&*views);
  const coarse::CoarsePlan plan =
      coarse::BuildCoarsePlan(aggregator.pattern(), *views);

  std::vector<la::CsrMatrix> scaled = *views;
  for (la::CsrMatrix& view : scaled) {
    for (double& value : view.values) value *= 3.25;
  }
  core::LaplacianAggregator scaled_aggregator(&scaled);
  const coarse::CoarsePlan replay =
      coarse::BuildCoarsePlan(scaled_aggregator.pattern(), scaled);
  ExpectSamePlan(plan, replay);
}

TEST(CoarsePlanTest, PlanAndFastSolveBitIdenticalAcrossThreadsAndShards) {
  // n large enough that a 4-shard registration is real (>= 4 fixed 512-row
  // chunks). The reference is threads=1/shards=1; every other combination
  // must reproduce the plan, the contracted views, and the fast-tier solve
  // bit for bit.
  const CoarseFixture f = CoarseFixture::Make(2570, 3, 51);

  coarse::CoarsePlan reference_plan;
  std::vector<la::CsrMatrix> reference_views;
  la::Vector reference_weights;
  std::vector<int32_t> reference_labels;

  ThreadCountGuard guard;
  bool first = true;
  for (int threads : {1, 4}) {
    for (int shards : {1, 4}) {
      util::ThreadPool::SetGlobalThreads(threads);
      serve::GraphRegistry registry;
      serve::RegisterOptions options;
      options.shards = shards;
      auto entry = registry.Register("g", f.mvag, options);
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      ASSERT_NE((*entry)->coarse, nullptr);
      const serve::CoarseGraphEntry& coarse = *(*entry)->coarse;

      serve::Engine engine(&registry);
      const serve::SolveResponse fast =
          SolveTier(&engine, "g", serve::Quality::kFast);
      EXPECT_EQ(fast.stats.tier_served, serve::Quality::kFast);
      ASSERT_EQ(fast.labels.size(), static_cast<size_t>(2570));

      if (first) {
        first = false;
        ExpectValidCanonicalPlan(coarse.plan);
        reference_plan = coarse.plan;
        reference_views = coarse.views;
        reference_weights = fast.integration.weights;
        reference_labels = fast.labels;
        continue;
      }
      ExpectSamePlan(reference_plan, coarse.plan);
      ExpectSameViews(reference_views, coarse.views);
      EXPECT_EQ(reference_weights, fast.integration.weights)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(reference_labels, fast.labels)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

/// FNV-1a over the raw bytes of fine_to_coarse — the same fingerprint
/// `sgla_bitdump --quality fast` prints as `map=`.
uint64_t PlanFingerprint(const coarse::CoarsePlan& plan) {
  uint64_t hash = 1469598103934665603ull;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(plan.fine_to_coarse.data());
  for (size_t i = 0; i < plan.fine_to_coarse.size() * sizeof(int64_t); ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(CoarsePlanTest, GoldenPlanFingerprints) {
  // Pinned plans: any change to the matching, the affinity scores or the
  // contraction shows up here as a different fingerprint, across commits
  // and not only across thread/shard counts. The repair pins dissolve the
  // clusters of every 97th row of each fixture's plan.
  struct Golden {
    int64_t n;
    int k;
    uint64_t seed;
    int64_t coarse_rows;
    uint64_t fingerprint;
    int64_t repaired_rows;
    uint64_t repaired_fingerprint;
  };
  const Golden goldens[] = {
      {2000, 4, 1301, 200, 0x9ff9244400adcad7ull, 296, 0x6c23e33a6ed61c98ull},
      {4096, 5, 1302, 410, 0xc0c572a93f6ee054ull, 618, 0x2f1f28c8982ca6ceull},
  };
  for (const Golden& golden : goldens) {
    const CoarseFixture f = CoarseFixture::Make(golden.n, golden.k,
                                                golden.seed);
    auto views = core::ComputeViewLaplacians(f.mvag);
    ASSERT_TRUE(views.ok());
    core::LaplacianAggregator aggregator(&*views);
    coarse::CoarsePlan plan =
        coarse::BuildCoarsePlan(aggregator.pattern(), *views);
    ExpectValidCanonicalPlan(plan);
    EXPECT_EQ(plan.coarse_rows, golden.coarse_rows) << "n=" << golden.n;
    EXPECT_EQ(PlanFingerprint(plan), golden.fingerprint)
        << "n=" << golden.n << " fingerprint=0x" << std::hex
        << PlanFingerprint(plan);

    std::vector<bool> changed(static_cast<size_t>(golden.n), false);
    for (int64_t i = 0; i < golden.n; i += 97) changed[i] = true;
    coarse::RepairCoarsePlan(aggregator.pattern(), *views, changed, &plan);
    ExpectValidCanonicalPlan(plan);
    EXPECT_EQ(plan.coarse_rows, golden.repaired_rows) << "n=" << golden.n;
    EXPECT_EQ(PlanFingerprint(plan), golden.repaired_fingerprint)
        << "n=" << golden.n << " repaired fingerprint=0x" << std::hex
        << PlanFingerprint(plan);
  }
}

// ---------------------------------------------------------------------------
// Affinity kernel and restricted repair against reference implementations
// ---------------------------------------------------------------------------

/// Reference affinity: a plain two-pointer merge of the sorted rows of u and
/// v per edge slot, the oracle for EdgeAffinity's dense-scatter kernel.
std::vector<int64_t> ReferenceAffinity(const coarse::LevelGraph& g) {
  std::vector<int64_t> score(g.col.size(), 0);
  for (int64_t u = 0; u < g.rows; ++u) {
    for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
      const int64_t v = g.col[p];
      if (v == u) continue;
      int64_t s = g.weight[p];
      int64_t a = g.row_ptr[u];
      int64_t b = g.row_ptr[v];
      while (a < g.row_ptr[u + 1] && b < g.row_ptr[v + 1]) {
        if (g.col[a] < g.col[b]) {
          ++a;
        } else if (g.col[b] < g.col[a]) {
          ++b;
        } else {
          if (g.col[a] != u && g.col[a] != v) {
            s += std::min(g.weight[a], g.weight[b]);
          }
          ++a;
          ++b;
        }
      }
      score[p] = s;
    }
  }
  return score;
}

/// Reference repair: one greedy level among the dissolved rows, scored on
/// the whole union graph with ReferenceAffinity — the oracle for
/// RepairCoarsePlan, which scores the dissolved rows only.
void ReferenceRepair(const la::CsrMatrix& union_pattern,
                     const std::vector<la::CsrMatrix>& views,
                     const std::vector<bool>& changed_rows,
                     coarse::CoarsePlan* plan) {
  const int64_t n = plan->fine_rows;
  std::vector<bool> dirty(static_cast<size_t>(plan->coarse_rows), false);
  bool any = false;
  for (int64_t i = 0; i < n; ++i) {
    if (changed_rows[i]) {
      dirty[plan->fine_to_coarse[i]] = true;
      any = true;
    }
  }
  if (!any) return;
  std::vector<bool> candidate(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    candidate[i] = dirty[plan->fine_to_coarse[i]];
  }
  coarse::LevelGraph level;
  level.rows = n;
  level.row_ptr = union_pattern.row_ptr;
  level.col = union_pattern.col_idx;
  level.weight = coarse::PatternMultiplicity(union_pattern, views);
  const std::vector<int64_t> score = ReferenceAffinity(level);
  std::vector<int64_t> match(static_cast<size_t>(n), -1);
  for (int64_t u = 0; u < n; ++u) {
    if (!candidate[u] || match[u] >= 0) continue;
    int64_t best = -1;
    int64_t best_w = 0;
    for (int64_t p = level.row_ptr[u]; p < level.row_ptr[u + 1]; ++p) {
      const int64_t v = level.col[p];
      if (v == u || !candidate[v] || match[v] >= 0) continue;
      if (score[p] > best_w) {
        best = v;
        best_w = score[p];
      }
    }
    match[u] = best >= 0 ? best : u;
    if (best >= 0) match[best] = u;
  }
  std::vector<int64_t> clean_id(static_cast<size_t>(plan->coarse_rows), -1);
  std::vector<int64_t> pair_id(static_cast<size_t>(n), -1);
  std::vector<int64_t> fresh(static_cast<size_t>(n));
  int64_t next = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t& id = candidate[i] ? pair_id[std::min(i, match[i])]
                               : clean_id[plan->fine_to_coarse[i]];
    if (id < 0) id = next++;
    fresh[i] = id;
  }
  plan->fine_to_coarse = std::move(fresh);
  plan->coarse_rows = next;
  plan->cluster_size.assign(static_cast<size_t>(next), 0);
  for (int64_t c : plan->fine_to_coarse) ++plan->cluster_size[c];
}

/// Seeded-random level graph with ragged rows: a few dense hub rows, ~10%
/// isolated rows (empty, or holding only the diagonal), an optional
/// diagonal, weights in [0, max_weight], and — unless `symmetric` — edges
/// whose mirror is missing or carries a different weight.
coarse::LevelGraph RandomLevelGraph(Rng* rng, int64_t rows, bool symmetric,
                                    bool diagonal, int64_t max_weight) {
  std::vector<double> density(static_cast<size_t>(rows));
  for (double& d : density) {
    const double draw = rng->Uniform();
    d = draw < 0.1 ? 0.0 : draw < 0.15 ? 0.8 : 0.05 + 0.2 * rng->Uniform();
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> adj(
      static_cast<size_t>(rows));
  for (int64_t u = 0; u < rows; ++u) {
    if (diagonal && rng->Uniform() < 0.8) {
      adj[u].push_back({u, rng->UniformInt(0, max_weight)});
    }
    for (int64_t v = u + 1; v < rows; ++v) {
      if (rng->Uniform() >= std::min(density[u], density[v])) continue;
      const int64_t w = rng->UniformInt(0, max_weight);
      adj[u].push_back({v, w});
      if (symmetric) {
        adj[v].push_back({u, w});
      } else if (rng->Uniform() < 0.7) {
        adj[v].push_back({u, rng->UniformInt(0, max_weight)});
      }
    }
  }
  coarse::LevelGraph g;
  g.rows = rows;
  g.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (int64_t u = 0; u < rows; ++u) {
    std::sort(adj[u].begin(), adj[u].end());
    for (const auto& [v, w] : adj[u]) {
      g.col.push_back(v);
      g.weight.push_back(w);
    }
    g.row_ptr[u + 1] = static_cast<int64_t>(g.col.size());
  }
  return g;
}

TEST(CoarseAffinityTest, DenseScatterKernelMatchesReferenceSlotForSlot) {
  const uint64_t seed = 20261017;
  std::printf("CoarseAffinityTest seed=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  ThreadCountGuard guard;
  const int64_t fixed_rows[] = {0, 1, 2, 3, 17, 64};
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    for (int trial = 0; trial < 40; ++trial) {
      const int64_t rows = trial < 6 ? fixed_rows[trial]
                                     : rng.UniformInt(20, 400);
      const bool symmetric = trial % 3 != 2;
      const bool diagonal = trial % 2 == 0;
      const int64_t max_weight = trial % 4 == 0 ? 1 : trial % 4 == 1 ? 3 : 40;
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " threads=" << threads
                   << " trial=" << trial << " rows=" << rows
                   << " symmetric=" << symmetric << " diagonal=" << diagonal
                   << " max_weight=" << max_weight);
      const coarse::LevelGraph g =
          RandomLevelGraph(&rng, rows, symmetric, diagonal, max_weight);
      const std::vector<int64_t> reference = ReferenceAffinity(g);
      ASSERT_EQ(coarse::EdgeAffinity(g), reference);

      // Restricted scoring: slots with both ends in the mask match the
      // reference, every other slot stays 0.
      const double keep = 0.25 * static_cast<double>(trial % 5);
      std::vector<bool> mask(static_cast<size_t>(rows));
      for (int64_t u = 0; u < rows; ++u) mask[u] = rng.Uniform() < keep;
      const std::vector<int64_t> restricted = coarse::EdgeAffinity(g, &mask);
      ASSERT_EQ(restricted.size(), reference.size());
      for (int64_t u = 0; u < rows; ++u) {
        for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
          const bool scored = mask[u] && mask[g.col[p]];
          ASSERT_EQ(restricted[p], scored ? reference[p] : 0)
              << "slot (" << u << ", " << g.col[p] << ") keep=" << keep;
        }
      }
    }
  }
}

/// Structurally-changed rows between two view sets, as the registry
/// computes them: a row changed if its pattern differs in some view.
std::vector<bool> ChangedRows(const std::vector<la::CsrMatrix>& was,
                              const std::vector<la::CsrMatrix>& now) {
  std::vector<bool> changed(static_cast<size_t>(now[0].rows), false);
  for (size_t v = 0; v < now.size(); ++v) {
    for (int64_t i = 0; i < now[v].rows; ++i) {
      changed[i] =
          changed[i] ||
          !std::equal(now[v].col_idx.begin() + now[v].row_ptr[i],
                      now[v].col_idx.begin() + now[v].row_ptr[i + 1],
                      was[v].col_idx.begin() + was[v].row_ptr[i],
                      was[v].col_idx.begin() + was[v].row_ptr[i + 1]);
    }
  }
  return changed;
}

TEST(CoarseAffinityTest, RestrictedRepairMatchesFullGraphRepair) {
  const uint64_t seed = 7717;
  std::printf("RestrictedRepairMatchesFullGraphRepair seed=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  const CoarseFixture f = CoarseFixture::Make(1500, 3, 131);
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  core::LaplacianAggregator aggregator(&*views);
  const coarse::CoarsePlan plan =
      coarse::BuildCoarsePlan(aggregator.pattern(), *views);
  const std::vector<graph::Edge>& edges = f.mvag.graph_views()[0].edges();

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " threads="
                                        << threads << " trial=" << trial);
      // A small pattern delta: a few removed edges and a few new ones.
      serve::GraphViewDelta view_delta;
      view_delta.view = 0;
      for (int64_t r = rng.UniformInt(0, 4); r >= 0; --r) {
        const graph::Edge& e =
            edges[rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1)];
        view_delta.removals.push_back({e.u, e.v});
      }
      for (int64_t a = rng.UniformInt(0, 4); a > 0; --a) {
        const int64_t u = rng.UniformInt(0, f.mvag.num_nodes() - 1);
        const int64_t v = rng.UniformInt(0, f.mvag.num_nodes() - 1);
        if (u != v) view_delta.upserts.push_back({u, v, 1.0});
      }
      serve::GraphDelta delta;
      delta.graph_views.push_back(std::move(view_delta));
      core::MultiViewGraph post = f.mvag;
      std::vector<bool> affected;
      ASSERT_TRUE(serve::ApplyDelta(&post, delta, &affected).ok());
      auto post_views = core::ComputeViewLaplacians(post);
      ASSERT_TRUE(post_views.ok());
      core::LaplacianAggregator post_aggregator(&*post_views);
      const std::vector<bool> changed = ChangedRows(*views, *post_views);
      ASSERT_NE(std::count(changed.begin(), changed.end(), true), 0);

      coarse::CoarsePlan repaired = plan;
      coarse::RepairCoarsePlan(post_aggregator.pattern(), *post_views,
                               changed, &repaired);
      coarse::CoarsePlan reference = plan;
      ReferenceRepair(post_aggregator.pattern(), *post_views, changed,
                      &reference);
      ExpectValidCanonicalPlan(repaired);
      ExpectSamePlan(repaired, reference);
    }
  }
}

TEST(CoarseAffinityTest, RestrictedMultiplicityCountsOnlyMaskedRows) {
  const CoarseFixture f = CoarseFixture::Make(900, 3, 141);
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  core::LaplacianAggregator aggregator(&*views);
  const la::CsrMatrix& pattern = aggregator.pattern();
  const std::vector<int64_t> full =
      coarse::PatternMultiplicity(pattern, *views);
  std::vector<bool> mask(static_cast<size_t>(pattern.rows));
  for (int64_t i = 0; i < pattern.rows; ++i) mask[i] = i % 7 == 3;
  const std::vector<int64_t> restricted =
      coarse::PatternMultiplicity(pattern, *views, &mask);
  ASSERT_EQ(restricted.size(), full.size());
  for (int64_t i = 0; i < pattern.rows; ++i) {
    for (int64_t p = pattern.row_ptr[i]; p < pattern.row_ptr[i + 1]; ++p) {
      ASSERT_EQ(restricted[p], mask[i] ? full[p] : 0) << "row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Prolongation / contraction kernels
// ---------------------------------------------------------------------------

TEST(CoarseKernelTest, ProlongateRowsGathersRows) {
  la::DenseMatrix src(3, 2);
  for (int64_t r = 0; r < 3; ++r) {
    src(r, 0) = 10.0 * static_cast<double>(r);
    src(r, 1) = 10.0 * static_cast<double>(r) + 1.0;
  }
  const std::vector<int64_t> map = {2, 0, 1, 0, 2};
  la::DenseMatrix out;
  la::ProlongateRows(src, map, &out);
  ASSERT_EQ(out.rows(), 5);
  ASSERT_EQ(out.cols(), 2);
  for (size_t i = 0; i < map.size(); ++i) {
    EXPECT_EQ(out(static_cast<int64_t>(i), 0), src(map[i], 0));
    EXPECT_EQ(out(static_cast<int64_t>(i), 1), src(map[i], 1));
  }
}

TEST(CoarseKernelTest, AverageRowsMeansClusterMembers) {
  coarse::CoarsePlan plan;
  plan.fine_rows = 4;
  plan.coarse_rows = 2;
  plan.fine_to_coarse = {0, 1, 0, 1};
  plan.cluster_size = {2, 2};

  la::DenseMatrix fine(4, 2);
  fine(0, 0) = 1.0;
  fine(0, 1) = 2.0;
  fine(1, 0) = 10.0;
  fine(1, 1) = 20.0;
  fine(2, 0) = 3.0;
  fine(2, 1) = 4.0;
  fine(3, 0) = 30.0;
  fine(3, 1) = 40.0;

  const la::DenseMatrix avg = coarse::AverageRows(fine, plan);
  ASSERT_EQ(avg.rows(), 2);
  ASSERT_EQ(avg.cols(), 2);
  EXPECT_DOUBLE_EQ(avg(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(avg(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(avg(1, 0), 20.0);
  EXPECT_DOUBLE_EQ(avg(1, 1), 30.0);
}

TEST(CoarseKernelTest, ProlongateLabelsCopiesThroughTheMap) {
  coarse::CoarsePlan plan;
  plan.fine_rows = 5;
  plan.coarse_rows = 2;
  plan.fine_to_coarse = {0, 1, 1, 0, 1};
  plan.cluster_size = {2, 3};
  const std::vector<int32_t> coarse_labels = {7, 9};
  std::vector<int32_t> fine;
  coarse::ProlongateLabels(plan, coarse_labels, &fine);
  EXPECT_EQ(fine, (std::vector<int32_t>{7, 9, 9, 7, 9}));
}

// ---------------------------------------------------------------------------
// Fast tier end to end
// ---------------------------------------------------------------------------

TEST(FastTierTest, NmiGapAgainstExactWithinBound) {
  // CI-gate scale (SGLA_BENCH_SCALE=0.1): the coarse companion must clear
  // the dense-eigensolver fallback threshold, i.e. behave like production.
  const int64_t n = 2000;
  const int k = 3;
  Rng rng(61);
  std::vector<int32_t> truth = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(truth, k, 0.10, 0.01, &rng));
  mvag.AddAttributeView(data::GaussianAttributes(truth, k, 8, 3.0, 0.9, &rng));

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", mvag).ok());
  serve::Engine engine(&registry);

  const serve::SolveResponse exact =
      SolveTier(&engine, "g", serve::Quality::kExact);
  const serve::SolveResponse fast =
      SolveTier(&engine, "g", serve::Quality::kFast);
  EXPECT_EQ(exact.stats.tier_served, serve::Quality::kExact);
  EXPECT_EQ(fast.stats.tier_served, serve::Quality::kFast);
  ASSERT_EQ(fast.labels.size(), static_cast<size_t>(n));
  // The fast response's integration ran on the coarse graph.
  EXPECT_LT(fast.integration.laplacian.rows, n / 2);

  const double exact_nmi = eval::EvaluateClustering(exact.labels, truth).nmi;
  const double fast_nmi = eval::EvaluateClustering(fast.labels, truth).nmi;
  EXPECT_LE(exact_nmi - fast_nmi, 0.05)
      << "exact nmi " << exact_nmi << " fast nmi " << fast_nmi;
}

TEST(FastTierTest, FallsBackToExactWithoutCompanion) {
  const CoarseFixture f = CoarseFixture::Make(400, 2, 71);
  serve::GraphRegistry registry;
  serve::RegisterOptions options;
  options.coarsen_ratio = 0.0;  // decline the companion
  auto entry = registry.Register("g", f.mvag, options);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->coarse, nullptr);

  serve::Engine engine(&registry);
  const serve::SolveResponse fast =
      SolveTier(&engine, "g", serve::Quality::kFast);
  EXPECT_EQ(fast.stats.tier_served, serve::Quality::kExact);
  EXPECT_EQ(fast.integration.laplacian.rows, 400);
}

// ---------------------------------------------------------------------------
// Delta maintenance of the companion
// ---------------------------------------------------------------------------

TEST(CoarseUpdateTest, ValueOnlyDeltaMatchesReregistration) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 81);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", f.mvag);
  ASSERT_TRUE(registered.ok());
  // Build the companion first, so the update maintains it.
  ASSERT_NE((*registered)->coarse.get(), nullptr);

  const serve::GraphDelta delta = WeightDelta(f.mvag, 40, 2.5);
  auto updated = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_NE((*updated)->coarse, nullptr);

  core::MultiViewGraph post = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&post, delta, &affected).ok());
  auto fresh = registry.Register("h", post);
  ASSERT_TRUE(fresh.ok());
  ASSERT_NE((*fresh)->coarse, nullptr);

  ExpectSamePlan((*fresh)->coarse->plan, (*updated)->coarse->plan);
  ExpectSameViews((*fresh)->coarse->views, (*updated)->coarse->views);

  serve::Engine engine(&registry);
  const serve::SolveResponse via_update =
      SolveTier(&engine, "g", serve::Quality::kFast);
  const serve::SolveResponse via_fresh =
      SolveTier(&engine, "h", serve::Quality::kFast);
  EXPECT_EQ(via_update.stats.tier_served, serve::Quality::kFast);
  EXPECT_EQ(via_update.integration.weights, via_fresh.integration.weights);
  EXPECT_EQ(via_update.labels, via_fresh.labels);
}

TEST(CoarseUpdateTest, LargePatternDeltaMatchesReregistration) {
  // 120 removed edges touch far more rows than the 5% churn threshold, so
  // the registry re-coarsens from scratch — which must be indistinguishable
  // from registering the post-delta graph fresh.
  const CoarseFixture f = CoarseFixture::Make(600, 3, 91);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", f.mvag);
  ASSERT_TRUE(registered.ok());
  // Build the companion first, so the update maintains it.
  ASSERT_NE((*registered)->coarse.get(), nullptr);

  const serve::GraphDelta delta = RemovalDelta(f.mvag, 120);
  auto updated = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_NE((*updated)->coarse, nullptr);

  core::MultiViewGraph post = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&post, delta, &affected).ok());
  auto fresh = registry.Register("h", post);
  ASSERT_TRUE(fresh.ok());
  ASSERT_NE((*fresh)->coarse, nullptr);

  ExpectSamePlan((*fresh)->coarse->plan, (*updated)->coarse->plan);
  ExpectSameViews((*fresh)->coarse->views, (*updated)->coarse->views);

  serve::Engine engine(&registry);
  const serve::SolveResponse via_update =
      SolveTier(&engine, "g", serve::Quality::kFast);
  const serve::SolveResponse via_fresh =
      SolveTier(&engine, "h", serve::Quality::kFast);
  EXPECT_EQ(via_update.integration.weights, via_fresh.integration.weights);
  EXPECT_EQ(via_update.labels, via_fresh.labels);
}

TEST(CoarseUpdateTest, SmallPatternDeltaRepairsCompanionInPlace) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 101);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", f.mvag);
  ASSERT_TRUE(registered.ok());
  const coarse::CoarsePlan before = (*registered)->coarse->plan;

  auto updated = registry.UpdateGraph("g", RemovalDelta(f.mvag, 2));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_NE((*updated)->coarse, nullptr);
  EXPECT_EQ((*updated)->epoch, 1);

  // The repaired plan is still a valid canonical partition of all 600 rows
  // (it need not equal a from-scratch coarsening — see DESIGN.md).
  ExpectValidCanonicalPlan((*updated)->coarse->plan);
  EXPECT_EQ((*updated)->coarse->plan.fine_rows, before.fine_rows);

  serve::Engine engine(&registry);
  const serve::SolveResponse fast =
      SolveTier(&engine, "g", serve::Quality::kFast);
  EXPECT_EQ(fast.stats.tier_served, serve::Quality::kFast);
  EXPECT_EQ(fast.labels.size(), static_cast<size_t>(600));
}

TEST(CoarseUpdateTest, SummedChurnRecoarsensFromScratchAtTheLimit) {
  // Each delta removes two view-0 edges with four endpoints no earlier delta
  // touched, so it structurally changes exactly four rows: far below the
  // 5% limit (30 of 600 rows) on its own. Summed since the last
  // from-scratch build, the churn passes the limit at the eighth delta
  // (32 rows), which must re-coarsen exactly like a fresh registration;
  // before that, every delta repairs the plan in place.
  const int64_t n = 600;
  const CoarseFixture f = CoarseFixture::Make(n, 3, 131);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", f.mvag);
  ASSERT_TRUE(registered.ok());
  ASSERT_NE((*registered)->coarse.get(), nullptr);
  EXPECT_EQ((*registered)->coarse->churn, 0);

  const std::vector<graph::Edge>& edges = f.mvag.graph_views()[0].edges();
  std::set<int64_t> used;
  size_t next_edge = 0;
  core::MultiViewGraph post = f.mvag;
  for (int epoch = 1; epoch <= 9; ++epoch) {
    serve::GraphDelta delta;
    serve::GraphViewDelta removals;
    removals.view = 0;
    while (removals.removals.size() < 2 && next_edge < edges.size()) {
      const graph::Edge& e = edges[next_edge++];
      if (e.u == e.v || used.count(e.u) != 0 || used.count(e.v) != 0) {
        continue;
      }
      used.insert(e.u);
      used.insert(e.v);
      removals.removals.push_back({e.u, e.v});
    }
    ASSERT_EQ(removals.removals.size(), 2u);
    delta.graph_views.push_back(std::move(removals));
    std::vector<bool> affected;
    ASSERT_TRUE(serve::ApplyDelta(&post, delta, &affected).ok());

    auto updated = registry.UpdateGraph("g", delta);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    ASSERT_TRUE((*updated)->coarse.built()) << "epoch " << epoch;
    const serve::CoarseGraphEntry& companion = *(*updated)->coarse;
    ExpectValidCanonicalPlan(companion.plan);
    if (epoch != 8) {
      // Repaired in place: the churn keeps summing (and restarts after the
      // rebuild at epoch 8).
      EXPECT_EQ(companion.churn, 4 * ((epoch - 1) % 8 + 1))
          << "epoch " << epoch;
      continue;
    }
    EXPECT_EQ(companion.churn, 0) << "the limit crossing must re-coarsen";
    auto fresh = registry.Register("fresh", post);
    ASSERT_TRUE(fresh.ok());
    ASSERT_NE((*fresh)->coarse, nullptr);
    ExpectSamePlan((*fresh)->coarse->plan, companion.plan);
    ExpectSameViews((*fresh)->coarse->views, companion.views);
  }
}

// ---------------------------------------------------------------------------
// Lazy companion
// ---------------------------------------------------------------------------

/// Two SBM views plus one Gaussian attribute view, so companion builds
/// exercise the attribute path (coarse KNN on averaged rows).
core::MultiViewGraph AttributedFixture(int64_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.04, 0.004, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.02, 0.008, &rng));
  mvag.AddAttributeView(
      data::GaussianAttributes(labels, k, 6, 3.0, 0.9, &rng));
  mvag.set_labels(std::move(labels));
  return mvag;
}

/// Rewrites `count` rows of attribute view 0: each takes the values of the
/// row n/2 positions away.
serve::GraphDelta AttributeRowsDelta(const core::MultiViewGraph& mvag,
                                     int64_t count) {
  const la::DenseMatrix& x = mvag.attribute_views()[0];
  serve::GraphDelta delta;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t row = i * 7 % x.rows();
    const int64_t donor = (row + x.rows() / 2) % x.rows();
    serve::AttributeRowUpdate update;
    update.view = 0;
    update.row = row;
    update.values.resize(static_cast<size_t>(x.cols()));
    for (int64_t c = 0; c < x.cols(); ++c) {
      update.values[static_cast<size_t>(c)] = x(donor, c);
    }
    delta.attribute_rows.push_back(std::move(update));
  }
  return delta;
}

/// The fast tier's labels computed straight from a companion: SGLA+ on the
/// coarse aggregator, spectral clustering, prolongation to fine rows.
std::vector<int32_t> CompanionLabels(const serve::CoarseGraphEntry& coarse,
                                     int k) {
  core::EvalWorkspace workspace;
  auto integration = core::SglaPlusOnAggregator(*coarse.aggregator, k,
                                                FastOptions(), &workspace);
  EXPECT_TRUE(integration.ok()) << integration.status().ToString();
  if (!integration.ok()) return {};
  auto labels = cluster::SpectralClustering(integration->laplacian, k);
  EXPECT_TRUE(labels.ok()) << labels.status().ToString();
  if (!labels.ok()) return {};
  std::vector<int32_t> fine;
  coarse::ProlongateLabels(coarse.plan, *labels, &fine);
  return fine;
}

TEST(LazyCompanionTest, RegisterRestoreAndUpdatesNeverBuildIt) {
  const core::MultiViewGraph mvag = AttributedFixture(600, 3, 141);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", mvag);
  ASSERT_TRUE(registered.ok());
  EXPECT_FALSE((*registered)->coarse.built());

  // Exact solves never need the companion.
  serve::Engine engine(&registry);
  SolveTier(&engine, "g", serve::Quality::kExact);
  EXPECT_FALSE((*registered)->coarse.built());

  serve::GraphDelta add_view;
  add_view.add_views.resize(1);
  add_view.add_views[0].graph = mvag.graph_views()[1];
  serve::GraphDelta mask;
  mask.mask_views = {1};
  serve::GraphDelta unmask;
  unmask.unmask_views = {1};
  serve::GraphDelta remove;
  remove.remove_views = {2};  // the added graph view
  const std::vector<serve::GraphDelta> deltas = {
      WeightDelta(mvag, 20, 2.0),    // value-only
      RemovalDelta(mvag, 2),         // small pattern
      RemovalDelta(mvag, 120),       // pattern above the churn limit
      AttributeRowsDelta(mvag, 10),  // attribute rows
      mask,                          // lifecycle
      WeightDelta(mvag, 20, 1.5),    // edit while masked
      unmask,
      add_view,
      remove,
  };
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto updated = registry.UpdateGraph("g", deltas[i]);
    ASSERT_TRUE(updated.ok())
        << "delta " << i << ": " << updated.status().ToString();
    EXPECT_EQ((*updated)->epoch, static_cast<int64_t>(i) + 1);
    EXPECT_FALSE((*updated)->coarse.built()) << "delta " << i;
  }

  serve::RestoreState state;
  state.epoch = 7;
  state.active = {true, false, true};
  auto restored =
      registry.Restore("r", mvag, serve::RegisterOptions(), state);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE((*restored)->coarse.built());

  // The first fast request builds it.
  const serve::SolveResponse fast =
      SolveTier(&engine, "g", serve::Quality::kFast);
  EXPECT_EQ(fast.stats.tier_served, serve::Quality::kFast);
  EXPECT_TRUE(registry.Find("g")->coarse.built());
}

TEST(LazyCompanionTest, LateBuildReadsItsOwnEpoch) {
  // Epoch 1's companion is first built after epoch 2 — an attribute-row
  // update — was published. It must contract epoch 1's attribute rows, not
  // the source graph's current ones, and so equal a fresh registration of
  // epoch 1's graph.
  const int k = 3;
  const core::MultiViewGraph mvag = AttributedFixture(600, k, 151);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", mvag).ok());
  const serve::GraphDelta first = RemovalDelta(mvag, 2);
  auto epoch1 = registry.UpdateGraph("g", first);
  ASSERT_TRUE(epoch1.ok()) << epoch1.status().ToString();
  const serve::GraphDelta second = AttributeRowsDelta(mvag, 40);
  auto epoch2 = registry.UpdateGraph("g", second);
  ASSERT_TRUE(epoch2.ok()) << epoch2.status().ToString();
  ASSERT_FALSE((*epoch1)->coarse.built());

  core::MultiViewGraph graph1 = mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&graph1, first, &affected).ok());
  core::MultiViewGraph graph2 = graph1;
  ASSERT_TRUE(serve::ApplyDelta(&graph2, second, &affected).ok());
  auto fresh1 = registry.Register("fresh1", graph1);
  auto fresh2 = registry.Register("fresh2", graph2);
  ASSERT_TRUE(fresh1.ok() && fresh2.ok());

  const serve::CoarseGraphEntry* late = (*epoch1)->coarse.get();
  const serve::CoarseGraphEntry* reference = (*fresh1)->coarse.get();
  ASSERT_NE(late, nullptr);
  ASSERT_NE(reference, nullptr);
  ExpectSamePlan(reference->plan, late->plan);
  ExpectSameViews(reference->views, late->views);
  EXPECT_EQ(CompanionLabels(*reference, k), CompanionLabels(*late, k));

  // The attribute edit must matter, or the comparison above proves nothing:
  // contracting epoch 2's rows over epoch 1's plan gives another coarse
  // attribute view.
  ASSERT_EQ(late->views.size(), 3u);
  core::MultiViewGraph moved(late->plan.coarse_rows, 0);
  moved.AddAttributeView(
      coarse::AverageRows(graph2.attribute_views()[0], late->plan));
  auto moved_view = core::ComputeViewLaplacian(moved, 0, graph::KnnOptions());
  ASSERT_TRUE(moved_view.ok());
  EXPECT_NE(moved_view->values, late->views[2].values);

  // And the newer epoch builds from its own rows too.
  ASSERT_NE((*epoch2)->coarse, nullptr);
  ASSERT_NE((*fresh2)->coarse, nullptr);
  ExpectSamePlan((*fresh2)->coarse->plan, (*epoch2)->coarse->plan);
  ExpectSameViews((*fresh2)->coarse->views, (*epoch2)->coarse->views);
}

/// Calls `touch` from `threads` threads released together; returns what each
/// one got.
std::vector<const serve::CoarseGraphEntry*> TouchConcurrently(
    int threads, const std::function<const serve::CoarseGraphEntry*()>& touch) {
  std::atomic<bool> go{false};
  std::vector<const serve::CoarseGraphEntry*> seen(
      static_cast<size_t>(threads), nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      seen[static_cast<size_t>(t)] = touch();
    });
  }
  go.store(true);
  for (std::thread& worker : workers) worker.join();
  return seen;
}

TEST(LazyCompanionTest, ConcurrentFirstUsesBuildOnce) {
  constexpr int kThreads = 8;
  // The slot on its own, with a counting builder that holds the build open
  // long enough for every thread to arrive.
  serve::CoarseCompanion slot;
  std::atomic<int> builds{0};
  slot.Defer([&builds] {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::unique_ptr<const serve::CoarseGraphEntry>(
        new serve::CoarseGraphEntry);
  });
  const std::vector<const serve::CoarseGraphEntry*> from_slot =
      TouchConcurrently(kThreads, [&slot] { return slot.get(); });
  EXPECT_EQ(builds.load(), 1);
  EXPECT_TRUE(slot.built());
  ASSERT_NE(from_slot[0], nullptr);
  for (const serve::CoarseGraphEntry* p : from_slot) {
    EXPECT_EQ(p, from_slot[0]);
  }

  // A registered entry, touched through its handle.
  const CoarseFixture f = CoarseFixture::Make(600, 3, 161);
  serve::GraphRegistry registry;
  auto entry = registry.Register("g", f.mvag);
  ASSERT_TRUE(entry.ok());
  ASSERT_FALSE((*entry)->coarse.built());
  const std::vector<const serve::CoarseGraphEntry*> from_entry =
      TouchConcurrently(kThreads, [&entry] { return (*entry)->coarse.get(); });
  ASSERT_NE(from_entry[0], nullptr);
  for (const serve::CoarseGraphEntry* p : from_entry) {
    EXPECT_EQ(p, from_entry[0]);
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation behavior of the coarse serving kernels
// ---------------------------------------------------------------------------

TEST(CoarseAllocationTest, SteadyStateCoarseKernelsAllocateNothing) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 121);
  serve::GraphRegistry registry;
  auto entry = registry.Register("g", f.mvag);
  ASSERT_TRUE(entry.ok());
  ASSERT_NE((*entry)->coarse, nullptr);
  const serve::CoarseGraphEntry& coarse = *(*entry)->coarse;

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);

    // Fast-tier objective evaluations on the coarse aggregator.
    core::EvalWorkspace workspace;
    core::SpectralObjective objective(coarse.aggregator.get(), 3,
                                      core::ObjectiveOptions(), &workspace);
    const std::vector<double> w1 = {0.55, 0.45};
    const std::vector<double> w2 = {0.30, 0.70};
    ASSERT_TRUE(objective.Evaluate(w1).ok());  // warm-up sizes the buffers
    ASSERT_TRUE(objective.Evaluate(w2).ok());

    // Prolongation kernels with pre-warmed outputs.
    std::vector<int32_t> coarse_labels(
        static_cast<size_t>(coarse.plan.coarse_rows), 1);
    std::vector<int32_t> fine_labels;
    coarse::ProlongateLabels(coarse.plan, coarse_labels, &fine_labels);
    la::DenseMatrix ritz(coarse.plan.coarse_rows, 4);
    la::DenseMatrix lifted;
    la::ProlongateRows(ritz, coarse.plan.fine_to_coarse, &lifted);

    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      auto value = objective.Evaluate(i % 2 == 0 ? w1 : w2);
      ASSERT_TRUE(value.ok());
      coarse::ProlongateLabels(coarse.plan, coarse_labels, &fine_labels);
      la::ProlongateRows(ritz, coarse.plan.fine_to_coarse, &lifted);
    }
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "steady-state coarse kernels allocated at threads=" << threads;
  }
}

}  // namespace
}  // namespace sgla
