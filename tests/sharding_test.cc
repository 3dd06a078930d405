// Row-sharding tests: ShardPlan boundary rules (chunk alignment, coverage,
// clamping, ragged tails), SpmvRows identities, sharded vs unsharded
// Lanczos SpMV operators per ISA, K-shard vs one-shard aggregator
// bit-identity, and end-to-end bit-identity of the sharded solve
// path (Sgla, SglaPlus, spectral clustering, engine responses) against the
// one-shard path at K = 1, 2, 5 shards and SGLA_THREADS = 1, 4 — including
// an n not divisible by K (ragged final shard) — plus a seeded-random
// sharded == unsharded oracle (replay one case with SGLA_SHARD_ORACLE_SEED).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "core/aggregator.h"
#include "core/integration.h"
#include "data/generator.h"
#include "graph/laplacian.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "la/sparse.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "serve/shard_plan.h"
#include "util/rng.h"
#include "util/sharding.h"
#include "util/thread_pool.h"

namespace sgla {
namespace {

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

std::vector<la::CsrMatrix> MakeViews(int64_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  graph::Graph g1 = data::SbmGraph(labels, k, 0.04, 0.004, &rng);
  graph::Graph g2 = data::SbmGraph(labels, k, 0.02, 0.010, &rng);
  return {graph::NormalizedLaplacian(g1), graph::NormalizedLaplacian(g2)};
}

void ExpectCsrEq(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.values, b.values);  // exact: sharding promises identical bits
}

TEST(ShardPlanTest, BoundariesAlignedCoveringAndRagged) {
  // 2570 rows at grain 512 -> 6 chunks (the last covers rows [2560, 2570)).
  serve::ShardPlan plan = serve::MakeShardPlan(2570, 5);
  ASSERT_EQ(plan.num_shards(), 5);
  EXPECT_EQ(plan.boundaries.front(), 0);
  EXPECT_EQ(plan.boundaries.back(), 2570);
  for (int s = 0; s < plan.num_shards(); ++s) {
    EXPECT_LT(plan.shard_begin(s), plan.shard_end(s));
    if (s > 0) {
      EXPECT_EQ(plan.shard_begin(s) % util::kShardAlign, 0);
    }
  }
  // The ragged tail rides with the last shard.
  EXPECT_EQ(plan.shard_end(4), 2570);

  // Deterministic: same inputs, same boundaries.
  EXPECT_EQ(serve::MakeShardPlan(2570, 5).boundaries, plan.boundaries);
}

TEST(ShardPlanTest, ClampsToChunkCount) {
  // 600 rows -> 2 chunks: asking for 5 shards yields 2.
  serve::ShardPlan plan = serve::MakeShardPlan(600, 5);
  EXPECT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.boundaries, (std::vector<int64_t>{0, 512, 600}));
  // Sub-chunk graphs collapse to a single shard.
  EXPECT_EQ(serve::MakeShardPlan(100, 4).num_shards(), 1);
  EXPECT_EQ(serve::MakeShardPlan(100, 1).num_shards(), 1);
}

TEST(ShardingTest, SpmvRowsMatchFullSpmv) {
  const auto views = MakeViews(1400, 4, 7);
  const la::CsrMatrix& m = views[0];
  la::Vector x(static_cast<size_t>(m.cols));
  Rng rng(13);
  for (double& v : x) v = rng.Gaussian();

  la::Vector reference(static_cast<size_t>(m.rows));
  la::Spmv(m, x.data(), reference.data());

  serve::ShardPlan plan = serve::MakeShardPlan(m.rows, 3);
  ASSERT_EQ(plan.num_shards(), 3);
  la::Vector sharded(static_cast<size_t>(m.rows), 0.0);
  for (int s = 0; s < plan.num_shards(); ++s) {
    la::SpmvRows(m, x.data(), sharded.data(), plan.shard_begin(s),
                 plan.shard_end(s));
  }
  EXPECT_EQ(sharded, reference);
}

void ExpectEigenpairsEq(const la::Eigenpairs& got, const la::Eigenpairs& want,
                        const std::string& where) {
  EXPECT_EQ(got.values, want.values) << where;
  EXPECT_EQ(got.vectors.data(), want.vectors.data()) << where;
}

/// The one SpMV operator, sharded and unsharded: for every available ISA at
/// 1 and 4 pool threads, a CSR operator over a 1-, 3- or 4-shard partition
/// (shards run as the chunks of one pool job, or inline at 1) yields the
/// eigenpairs of the plain CSR solve bit for bit, and a sharded SELL
/// operator those of the unsharded SELL operator. Under scalar, SELL equals
/// CSR too. The solve's bits do not depend on the thread count either.
TEST(LanczosTest, OperatorFormsBitIdenticalAcrossShards) {
  const auto views = MakeViews(2570, 4, 17);  // ragged final shard
  const la::CsrMatrix m = la::WeightedSum({&views[0], &views[1]}, {0.4, 0.6});
  la::SellMatrix sell;
  la::BuildSellPattern(m, &sell);
  const int k = 5;

  const auto solve = [k](const la::SpmvOperator& op, la::Eigenpairs* out) {
    la::LanczosWorkspace ws;
    const Status status =
        la::SmallestEigenpairsInto(op, k, 2.0, la::LanczosOptions(), &ws, out);
    EXPECT_TRUE(status.ok()) << status.ToString();
  };

  ThreadCountGuard guard;
  const la::simd::Isa previous = la::simd::ActiveIsa();
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ASSERT_TRUE(la::simd::SetActiveForTesting(isa));
    const std::string name = la::simd::IsaName(isa);
    la::Eigenpairs csr_t1;
    for (int threads : {1, 4}) {
      util::ThreadPool::SetGlobalThreads(threads);
      const std::string at = name + " threads=" + std::to_string(threads);
      la::Eigenpairs csr_ref;
      la::LanczosWorkspace ws;
      ASSERT_TRUE(la::SmallestEigenpairsInto(m, k, 2.0, la::LanczosOptions(),
                                             &ws, &csr_ref)
                      .ok());
      if (threads == 1) {
        csr_t1 = csr_ref;
      } else {
        ExpectEigenpairsEq(csr_ref, csr_t1, at + " csr vs threads=1");
      }
      la::Eigenpairs sell_ref;
      solve(la::SellSpmvOperator(sell), &sell_ref);
      if (isa == la::simd::Isa::kScalar) {
        ExpectEigenpairsEq(sell_ref, csr_ref, at + " sell vs csr");
      }
      for (int shards : {1, 3, 4}) {
        const serve::ShardPlan plan = serve::MakeShardPlan(m.rows, shards);
        ASSERT_EQ(plan.num_shards(), shards);
        const util::ShardContext ctx = plan.Context();
        const std::string where = at + " shards=" + std::to_string(shards);
        la::Eigenpairs got;
        solve(la::CsrSpmvOperator(m, &ctx), &got);
        ExpectEigenpairsEq(got, csr_ref, where + " csr");
        solve(la::SellSpmvOperator(sell, &ctx), &got);
        ExpectEigenpairsEq(got, sell_ref, where + " sell");
      }
    }
  }
  la::simd::SetActiveForTesting(previous);

  // Unsharded is a null context; an empty one would run no SpMV job at all,
  // so the solver rejects it instead of iterating on stale vectors.
  const util::ShardContext empty;
  la::LanczosWorkspace ws;
  la::Eigenpairs out;
  EXPECT_FALSE(la::SmallestEigenpairsInto(la::CsrSpmvOperator(m, &empty), k,
                                          2.0, la::LanczosOptions(), &ws, &out)
                   .ok());
}

TEST(ShardingTest, MultiShardAggregatorBitIdenticalToOneShard) {
  const auto views = MakeViews(2570, 4, 21);  // ragged at K = 5
  core::LaplacianAggregator plain(&views);
  const std::vector<double> weights = {0.35, 0.65};
  const la::CsrMatrix& reference = plain.Aggregate(weights);
  la::SellMatrix reference_sell;
  plain.BindSellPattern(&reference_sell);
  la::FillSellValues(reference.values, &reference_sell);

  la::Vector x(static_cast<size_t>(reference.cols));
  Rng rng(5);
  for (double& v : x) v = rng.Gaussian();
  la::Vector expect(static_cast<size_t>(reference.rows));
  la::Spmv(reference, x.data(), expect.data());

  for (int shards : {2, 5}) {
    serve::ShardPlan plan = serve::MakeShardPlan(2570, shards);
    ASSERT_EQ(plan.num_shards(), shards);
    core::LaplacianAggregator sharded(&views, plan.boundaries);
    EXPECT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.pattern().col_idx, reference.col_idx);

    // One shard job per shard fills its rows of the one full pattern, and
    // refreshes the SELL slots of those rows.
    la::CsrMatrix csr;
    la::SellMatrix sell;
    sharded.BindPattern(&csr);
    sharded.BindSellPattern(&sell);
    sharded.AggregateValuesInto(weights, &csr, &sell);
    ExpectCsrEq(csr, reference);
    EXPECT_EQ(sell.values, reference_sell.values);

    // Per-shard SELL SpMV over row ranges reproduces the CSR SpMV bit for
    // bit under scalar, and the whole-matrix SELL SpMV under every ISA.
    la::Vector whole(static_cast<size_t>(csr.rows), 0.0);
    la::SellSpmv(reference_sell, x.data(), whole.data());
    la::Vector got(static_cast<size_t>(csr.rows), 0.0);
    sharded.context().Run([&sell, &x, &got](int, int64_t lo, int64_t hi) {
      la::SellSpmvRows(sell, x.data(), got.data(), lo, hi);
    });
    EXPECT_EQ(got, whole);
    if (la::simd::ActiveIsa() == la::simd::Isa::kScalar) {
      EXPECT_EQ(got, expect);
    }
  }
}

TEST(ShardingTest, ObjectiveEvaluationBitIdentical) {
  const auto views = MakeViews(1400, 4, 91);
  core::LaplacianAggregator plain(&views);
  core::EvalWorkspace plain_ws;
  core::SpectralObjective reference(&plain, 4, core::ObjectiveOptions(),
                                    &plain_ws);

  serve::ShardPlan plan = serve::MakeShardPlan(1400, 2);
  core::LaplacianAggregator aggregator(&views, plan.boundaries);
  core::EvalWorkspace ws;
  core::SpectralObjective sharded(&aggregator, 4, core::ObjectiveOptions(),
                                  &ws);

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    for (const std::vector<double>& w :
         {std::vector<double>{0.5, 0.5}, {0.15, 0.85}, {0.8, 0.2}}) {
      auto expect = reference.Evaluate(w);
      auto got = sharded.Evaluate(w);
      ASSERT_TRUE(expect.ok() && got.ok());
      EXPECT_EQ(got->h, expect->h);
      EXPECT_EQ(got->eigengap, expect->eigengap);
      EXPECT_EQ(got->lambda2, expect->lambda2);
    }
  }
}

TEST(ShardingTest, KMeansShardedBitIdentical) {
  Rng rng(31);
  const std::vector<int32_t> labels = data::BalancedLabels(2000, 4, &rng);
  la::DenseMatrix points = data::GaussianAttributes(labels, 4, 6, 2.0, 1.0,
                                                    &rng);
  cluster::KMeansOptions options;
  options.num_init = 2;
  cluster::KMeansWorkspace plain_ws;
  cluster::KMeansResult reference;
  cluster::KMeansInto(points, 4, options, &plain_ws, &reference);

  ThreadCountGuard guard;
  for (int shards : {2, 3}) {
    serve::ShardPlan plan = serve::MakeShardPlan(points.rows(), shards);
    util::ShardContext ctx = plan.Context();
    for (int threads : {1, 4}) {
      util::ThreadPool::SetGlobalThreads(threads);
      cluster::KMeansWorkspace ws;
      cluster::KMeansResult result;
      cluster::KMeansInto(points, 4, options, &ws, &result, &ctx);
      EXPECT_EQ(result.labels, reference.labels);
      EXPECT_EQ(result.inertia, reference.inertia);
      EXPECT_EQ(result.centers.data(), reference.centers.data());
    }
  }
}

TEST(ShardingTest, SglaSolveBitIdenticalAcrossShardAndThreadCounts) {
  const auto views = MakeViews(1100, 3, 41);
  core::SglaOptions options;
  options.max_evaluations = 12;  // identical trimmed search on both paths
  auto reference = core::Sgla(views, 3, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ThreadCountGuard guard;
  for (int shards : {2, 3}) {
    serve::ShardPlan plan = serve::MakeShardPlan(1100, shards);
    ASSERT_EQ(plan.num_shards(), shards);
    core::LaplacianAggregator aggregator(&views, plan.boundaries);
    for (int threads : {1, 4}) {
      util::ThreadPool::SetGlobalThreads(threads);
      core::EvalWorkspace workspace;
      auto result = core::SglaOnAggregator(aggregator, 3, options, &workspace);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->weights, reference->weights);
      EXPECT_EQ(result->objective_history, reference->objective_history);
      ExpectCsrEq(result->laplacian, reference->laplacian);

      // Sharded clustering on the integrated Laplacian: same labels.
      auto expect_labels = cluster::SpectralClustering(reference->laplacian, 3);
      ASSERT_TRUE(expect_labels.ok());
      cluster::SpectralWorkspace cluster_ws;
      std::vector<int32_t> labels;
      util::ShardContext ctx = aggregator.context();
      ASSERT_TRUE(cluster::SpectralClusteringInto(result->laplacian, 3,
                                                  cluster::KMeansOptions(),
                                                  &cluster_ws, &labels, &ctx)
                      .ok());
      EXPECT_EQ(labels, *expect_labels);
    }
  }
}

TEST(ShardingTest, SglaPlusBitIdenticalRaggedAndSampled) {
  const auto views = MakeViews(2570, 4, 61);  // 2570 % 5 != 0 and != c * 512

  // Full-size evaluations (no node sampling kicks in below 4096 nodes).
  core::SglaPlusOptions options;
  auto reference = core::SglaPlus(views, 4, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Node-sampled evaluations + sharded final aggregation.
  core::SglaPlusOptions sampled_options;
  sampled_options.max_objective_nodes = 700;
  auto sampled_reference = core::SglaPlus(views, 4, sampled_options);
  ASSERT_TRUE(sampled_reference.ok());

  serve::ShardPlan plan = serve::MakeShardPlan(2570, 5);
  core::LaplacianAggregator aggregator(&views, plan.boundaries);
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    core::EvalWorkspace workspace;
    auto result =
        core::SglaPlusOnAggregator(aggregator, 4, options, &workspace);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->weights, reference->weights);
    EXPECT_EQ(result->objective_history, reference->objective_history);
    ExpectCsrEq(result->laplacian, reference->laplacian);

    auto sampled = core::SglaPlusOnAggregator(aggregator, 4,
                                              sampled_options, &workspace);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    EXPECT_EQ(sampled->weights, sampled_reference->weights);
    ExpectCsrEq(sampled->laplacian, sampled_reference->laplacian);
  }
}

TEST(ShardingTest, EngineShardedGraphBitIdenticalToUnsharded) {
  Rng rng(71);
  std::vector<int32_t> labels = data::BalancedLabels(1100, 3, &rng);
  core::MultiViewGraph mvag(1100, 3);
  mvag.AddGraphView(data::SbmGraph(labels, 3, 0.05, 0.005, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 3, 0.03, 0.010, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  serve::RegisterOptions unsharded;
  ASSERT_TRUE(engine.RegisterGraph("k1", mvag, unsharded).ok());
  serve::RegisterOptions two;
  two.shards = 2;
  ASSERT_TRUE(engine.RegisterGraph("k2", mvag, two).ok());
  serve::RegisterOptions many;
  many.shards = 5;  // 1100 rows -> 3 chunks: clamps to 3 shards
  auto many_entry = engine.RegisterGraph("k5", mvag, many);
  ASSERT_TRUE(many_entry.ok());
  EXPECT_EQ((*many_entry)->aggregator->num_shards(), 3);

  serve::SolveRequest request;
  request.options.base.max_evaluations = 12;
  for (auto algorithm : {serve::Algorithm::kSgla, serve::Algorithm::kSglaPlus}) {
    request.algorithm = algorithm;
    request.graph_id = "k1";
    auto reference = engine.Solve(request);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const char* id : {"k2", "k5"}) {
      request.graph_id = id;
      auto response = engine.Solve(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->integration.weights,
                reference->integration.weights);
      EXPECT_EQ(response->integration.objective_history,
                reference->integration.objective_history);
      ExpectCsrEq(response->integration.laplacian,
                  reference->integration.laplacian);
      EXPECT_EQ(response->labels, reference->labels);
    }
  }

  // shards = 1 through the knob is the one-shard case of the same path.
  auto k1 = registry.Find("k1");
  ASSERT_NE(k1, nullptr);
  EXPECT_EQ(k1->aggregator->num_shards(), 1);
}

TEST(ShardingTest, EngineShardedAcrossThreadCounts) {
  Rng rng(81);
  std::vector<int32_t> labels = data::BalancedLabels(1100, 3, &rng);
  core::MultiViewGraph mvag(1100, 3);
  mvag.AddGraphView(data::SbmGraph(labels, 3, 0.05, 0.005, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 3, 0.03, 0.010, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  serve::RegisterOptions options;
  ASSERT_TRUE(registry.Register("plain", mvag, options).ok());
  options.shards = 3;
  ASSERT_TRUE(registry.Register("sharded", mvag, options).ok());

  serve::SolveRequest request;
  request.options.base.max_evaluations = 12;
  request.graph_id = "plain";
  Result<serve::SolveResponse> reference = NotFound("unset");
  {
    serve::Engine engine(&registry);
    reference = engine.Solve(request);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  }

  ThreadCountGuard guard;
  request.graph_id = "sharded";
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    serve::Engine engine(&registry);
    auto response = engine.Solve(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->integration.weights, reference->integration.weights);
    ExpectCsrEq(response->integration.laplacian,
                reference->integration.laplacian);
    EXPECT_EQ(response->labels, reference->labels);
  }
}

TEST(ShardingTest, SampledSglaPlusThenExactSglaShareOneSession) {
  // One session workspace serves both solves: a node-sampled SGLA+ solve
  // binds it to the sampled pattern first, then an exact SGLA solve on the
  // same sharded graph must rebind it to the full pattern.
  const auto views = MakeViews(2570, 4, 61);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.RegisterViews("plain", views, 4).ok());
  serve::RegisterOptions sharded;
  sharded.shards = 5;
  auto entry = registry.RegisterViews("sharded", views, 4, sharded);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  serve::Engine engine(&registry, engine_options);

  serve::SolveRequest request;
  request.graph_id = "sharded";
  request.algorithm = serve::Algorithm::kSglaPlus;
  request.options.max_objective_nodes = 700;
  auto sampled = engine.Solve(request);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();

  serve::SolveRequest exact;
  exact.graph_id = "sharded";
  exact.algorithm = serve::Algorithm::kSgla;
  exact.options.base.max_evaluations = 12;
  auto response = engine.Solve(exact);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  exact.graph_id = "plain";
  auto reference = engine.Solve(exact);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(response->integration.weights, reference->integration.weights);
  EXPECT_EQ(response->integration.objective_history,
            reference->integration.objective_history);
  ExpectCsrEq(response->integration.laplacian,
              reference->integration.laplacian);
  EXPECT_EQ(response->labels, reference->labels);
}

// One case of the sharded == unsharded oracle, a pure function of `seed`:
// the row count sits just below, at or above a multiple of kShardAlign, with
// 1-4 SBM views, K in 1..5 shards, k in 2..5 clusters, a thread count, and
// SGLA+ node sampling on or off. Every stage of the solve is compared bit
// for bit against a one-shard aggregator on the same views.
void RunShardOracleCase(uint64_t seed) {
  // Size and sampling cycle with the seed, so ten consecutive seeds cover
  // every (size, sampling) pair; the rest is drawn.
  const int64_t sizes[] = {511, 512, 513, 1025, 2570};
  const int64_t n = sizes[seed % 5];
  const bool sample = (seed / 5) % 2 == 1;
  Rng rng(seed);
  const int num_views = static_cast<int>(rng.UniformInt(1, 4));
  const int shards = static_cast<int>(rng.UniformInt(1, 5));
  const int k = static_cast<int>(rng.UniformInt(2, 5));
  const int threads = rng.UniformInt(0, 1) == 0 ? 1 : 4;
  const std::string fixture =
      "SGLA_SHARD_ORACLE_SEED=" + std::to_string(seed) +
      " n=" + std::to_string(n) + " views=" + std::to_string(num_views) +
      " shards=" + std::to_string(shards) + " k=" + std::to_string(k) +
      " threads=" + std::to_string(threads) +
      " sample=" + std::to_string(sample);
  std::printf("shard oracle %s\n", fixture.c_str());
  SCOPED_TRACE(fixture);

  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  std::vector<la::CsrMatrix> views;
  for (int v = 0; v < num_views; ++v) {
    const double p_in = 0.01 + 0.04 * rng.Uniform();
    const double p_out = p_in * (0.05 + 0.3 * rng.Uniform());
    views.push_back(graph::NormalizedLaplacian(
        data::SbmGraph(labels, k, p_in, p_out, &rng)));
  }
  std::vector<double> weights(static_cast<size_t>(num_views));
  double sum = 0.0;
  for (double& w : weights) sum += (w = 0.05 + rng.Uniform());
  for (double& w : weights) w /= sum;

  // The reference runs at the default pool width on one shard.
  core::LaplacianAggregator plain(&views);
  core::EvalWorkspace plain_ws;
  core::SpectralObjective plain_objective(&plain, k, core::ObjectiveOptions(),
                                          &plain_ws);
  auto plain_value = plain_objective.Evaluate(weights);
  ASSERT_TRUE(plain_value.ok()) << plain_value.status().ToString();
  const la::CsrMatrix plain_aggregate = plain_objective.AggregateAt(weights);
  core::SglaOptions sgla_options;
  sgla_options.max_evaluations = 8;
  auto plain_sgla = core::SglaOnAggregator(plain, k, sgla_options, &plain_ws);
  ASSERT_TRUE(plain_sgla.ok()) << plain_sgla.status().ToString();
  core::SglaPlusOptions plus_options;
  plus_options.max_objective_nodes = sample ? n / 2 : 0;
  auto plain_plus =
      core::SglaPlusOnAggregator(plain, k, plus_options, &plain_ws);
  ASSERT_TRUE(plain_plus.ok()) << plain_plus.status().ToString();
  cluster::SpectralWorkspace cluster_ws;
  std::vector<int32_t> plain_labels;
  ASSERT_TRUE(cluster::SpectralClusteringInto(plain_plus->laplacian, k,
                                              cluster::KMeansOptions(),
                                              &cluster_ws, &plain_labels)
                  .ok());

  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(threads);
  serve::ShardPlan plan = serve::MakeShardPlan(n, shards);
  core::LaplacianAggregator aggregator(&views, plan.boundaries);
  core::EvalWorkspace ws;
  core::SpectralObjective objective(&aggregator, k, core::ObjectiveOptions(),
                                    &ws);
  auto value = objective.Evaluate(weights);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->h, plain_value->h);
  EXPECT_EQ(value->eigengap, plain_value->eigengap);
  EXPECT_EQ(value->lambda2, plain_value->lambda2);
  ExpectCsrEq(objective.AggregateAt(weights), plain_aggregate);

  auto sgla = core::SglaOnAggregator(aggregator, k, sgla_options, &ws);
  ASSERT_TRUE(sgla.ok()) << sgla.status().ToString();
  EXPECT_EQ(sgla->weights, plain_sgla->weights);
  EXPECT_EQ(sgla->objective_history, plain_sgla->objective_history);
  ExpectCsrEq(sgla->laplacian, plain_sgla->laplacian);

  auto plus = core::SglaPlusOnAggregator(aggregator, k, plus_options, &ws);
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  EXPECT_EQ(plus->weights, plain_plus->weights);
  EXPECT_EQ(plus->objective_history, plain_plus->objective_history);
  ExpectCsrEq(plus->laplacian, plain_plus->laplacian);
  const util::ShardContext ctx = aggregator.context();
  std::vector<int32_t> sharded_labels;
  ASSERT_TRUE(cluster::SpectralClusteringInto(plus->laplacian, k,
                                              cluster::KMeansOptions(),
                                              &cluster_ws, &sharded_labels,
                                              &ctx)
                  .ok());
  EXPECT_EQ(sharded_labels, plain_labels);
}

TEST(ShardingTest, SeededRandomShardedEqualsUnsharded) {
  // SGLA_SHARD_ORACLE_SEED replays the one case a red run printed.
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("SGLA_SHARD_ORACLE_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t i = 0; i < 10; ++i) seeds.push_back(20261010 + i);
  }
  for (uint64_t seed : seeds) RunShardOracleCase(seed);
}

}  // namespace
}  // namespace sgla
