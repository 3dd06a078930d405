#include "layers.h"


#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "coarse/coarsen.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "embed/netmf.h"
#include "graph/knn.h"
#include "la/lanczos.h"
#include "la/sparse.h"
#include "trace.h"

namespace sgla {
namespace perfbench {
namespace {

const char* const kEndToEnd[] = {"setup_s",    "op_ms_p50",    "op_ms_tail",
                                 "op2_ms_p50", "op3_ms_p50",   "slo_met_frac",
                                 "nmi",        "peak_rss_mb"};

/// Times `fn` under a span named `name` and returns its wall time in ms.
template <typename Fn>
double Timed(Run* run, const std::string& name, uint64_t request,
             uint64_t parent, Fn&& fn) {
  SpanScope span(run->tracer, name, request, parent);
  const auto t0 = Clock::now();
  fn();
  return MsSince(t0);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerCatalogue() {
  static const auto* catalogue = [] {
    auto* c = new std::vector<std::pair<std::string, std::string>>{
        {"rpc.client_overhead_ms", "ms"},
        {"rpc.codec_us", "us"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.physical_solves", "count"},
        {"serve.warm_hit_frac", "ratio"},
        {"serve.apply_delta_ms", "ms"},
        {"core.view_laplacian_ms", "ms"},
        {"core.weight_search_ms", "ms"},
        {"core.evaluations", "count"},
        {"core.objective_eval_ms", "ms"},
        {"core.aggregate_ms", "ms"},
        {"opt.self_ms", "ms"},
        {"la.eigensolve_ms", "ms"},
        {"la.lanczos_vectors", "count"},
        {"la.spmv_flops", "flop"},
        {"la.spmv_bytes", "B"},
        {"cluster.embedding_ms", "ms"},
        {"cluster.embedding_lanczos_vectors", "count"},
        {"cluster.kmeans_ms", "ms"},
        {"embed.netmf_ms", "ms"},
        {"coarse.plan_ms", "ms"},
        {"coarse.repair_ms", "ms"},
        {"coarse.fast_solve_ms", "ms"},
        {"coarse.prolong_ms", "ms"},
        {"graph.knn_ms", "ms"},
        {"persist.wal_commit_ms", "ms"},
        {"persist.records_per_commit", "count"},
        {"persist.checkpoint_ms", "ms"},
        {"persist.checkpoint_bytes", "B"},
        {"persist.load_checkpoint_ms", "ms"},
    };
    for (const char* layer : {"rpc", "serve", "core", "la", "cluster", "embed",
                              "coarse", "graph", "persist"}) {
      c->push_back({std::string(layer) + ".self_ms", "ms"});
    }
    const std::map<std::string, std::string> units = {
        {"setup_s", "s"},
        {"slo_met_frac", "ratio"},
        {"nmi", "ratio"},
        {"peak_rss_mb", "MiB"}};
    for (const char* name : kEndToEnd) {
      const auto it = units.find(name);
      c->push_back({std::string("traced.") + name,
                    it == units.end() ? "ms" : it->second});
    }
    return c;
  }();
  return *catalogue;
}

void ZeroUnmeasured(Run* run) {
  for (const auto& [name, unit] : LayerCatalogue()) {
    if (run->layers.count(name) == 0) run->Layer(name, 0.0, unit);
  }
}

void ReplayBuild(Run* run, const core::MultiViewGraph& mvag) {
  const uint64_t request = run->tracer ? run->tracer->NewRequest() : 0;
  SpanScope root(run->tracer, "bench.replay_build", request);
  const serve::RegisterOptions defaults;

  double knn_ms = 0.0;
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    knn_ms += Timed(run, "graph.knn", request, root.id(),
                    [&] { graph::KnnGraph(x, defaults.knn); });
  }
  run->Layer("graph.knn_ms", knn_ms, "ms");

  // ComputeViewLaplacians re-runs the attribute views' KNN internally.
  std::vector<la::CsrMatrix> views;
  const double laplacian_ms =
      Timed(run, "core.view_laplacian", request, root.id(), [&] {
        auto computed = core::ComputeViewLaplacians(mvag, defaults.knn);
        run->Check(computed.ok(), "replay: ComputeViewLaplacians failed");
        if (computed.ok()) views = std::move(*computed);
      });
  run->Layer("core.view_laplacian_ms", laplacian_ms, "ms");
  if (views.empty()) return;

  const core::LaplacianAggregator aggregator(&views);
  coarse::CoarsenOptions coarsen;
  coarsen.ratio = defaults.coarsen_ratio;
  coarse::CoarsePlan plan;
  const double plan_ms = Timed(run, "coarse.plan", request, root.id(), [&] {
    plan = coarse::BuildCoarsePlan(aggregator.pattern(), views, coarsen);
  });
  run->Check(plan.coarse_rows > 0, "replay: empty coarse plan");
  run->Layer("coarse.plan_ms", plan_ms, "ms");
}

void ReplaySolve(Run* run, const core::LaplacianAggregator& aggregator, int k,
                 serve::Algorithm algorithm,
                 const core::SglaPlusOptions& options, int netmf_dim) {
  const uint64_t request = run->tracer ? run->tracer->NewRequest() : 0;
  SpanScope root(run->tracer, "bench.replay_solve", request);

  core::EvalWorkspace search_ws;
  Result<core::IntegrationResult> result = Internal("weight search not run");
  const double search_ms =
      Timed(run, "core.weight_search", request, root.id(), [&] {
        result = algorithm == serve::Algorithm::kSgla
                     ? core::SglaOnAggregator(aggregator, k, options.base,
                                              &search_ws)
                     : core::SglaPlusOnAggregator(aggregator, k, options,
                                                  &search_ws);
      });
  run->Check(result.ok(), "replay: weight search failed");
  if (!result.ok()) return;
  run->Layer("core.weight_search_ms", search_ms, "ms");
  const std::vector<la::Vector>& history = result->weight_history;
  run->Layer("core.evaluations", static_cast<double>(history.size()), "count");

  // Whole objective evaluations at the search's own weights...
  core::EvalWorkspace eval_ws;
  core::SpectralObjective objective(&aggregator, k, options.base.objective,
                                    &eval_ws);
  std::vector<double> eval_ms;
  for (const la::Vector& w : history) {
    eval_ms.push_back(Timed(run, "core.objective_eval", request, root.id(), [&] {
      run->Check(objective.Evaluate(w).ok(), "replay: Evaluate failed");
    }));
  }
  run->Layer("core.objective_eval_ms", Median(eval_ms), "ms");
  // The search's time outside its evaluations is the optimizer's own. SGLA+
  // evaluates node-sampled subgraphs, so its full-size replay overstates
  // the evaluations; the figure is exact for SGLA only.
  double eval_total = 0.0;
  for (double ms : eval_ms) eval_total += ms;
  run->Layer("opt.self_ms", search_ms - eval_total, "ms");

  // ...and the same evaluations split into their two halves: aggregation,
  // then the Lanczos eigensolve over the SELL form the objective uses.
  la::CsrMatrix aggregate;
  la::SellMatrix sell;
  aggregator.BindPattern(&aggregate);
  aggregator.BindSellPattern(&sell);
  la::LanczosOptions lanczos;
  lanczos.max_subspace = options.base.objective.lanczos_subspace;
  la::LanczosWorkspace lanczos_ws;
  la::Eigenpairs eigen;
  std::vector<double> aggregate_ms;
  std::vector<double> eigen_ms;
  for (const la::Vector& w : history) {
    const uint64_t eval = run->tracer
                              ? run->tracer->Begin("core.evaluation_split",
                                                   request, root.id())
                              : 0;
    aggregate_ms.push_back(Timed(run, "core.aggregate", request, eval, [&] {
      aggregator.AggregateValuesInto(w, &aggregate);
    }));
    Timed(run, "la.sell_fill", request, eval,
          [&] { la::FillSellValues(aggregate.values, &sell); });
    eigen_ms.push_back(Timed(run, "la.eigensolve", request, eval, [&] {
      run->Check(la::SmallestEigenpairsInto(la::SellSpmvOperator(sell), k + 1,
                                            2.0, lanczos, &lanczos_ws, &eigen)
                     .ok(),
                 "replay: eigensolve failed");
    }));
    if (run->tracer) run->tracer->End(eval);
  }
  run->Layer("core.aggregate_ms", Median(aggregate_ms), "ms");
  run->Layer("la.eigensolve_ms", Median(eigen_ms), "ms");

  if (netmf_dim > 0) {
    embed::NetMfOptions netmf;
    netmf.dim = netmf_dim;
    const double netmf_ms = Timed(run, "embed.netmf", request, root.id(), [&] {
      auto embedding = embed::NetMf(result->laplacian, netmf);
      run->Check(embedding.ok(), "replay: NetMf failed");
    });
    run->Layer("embed.netmf_ms", netmf_ms, "ms");
  }
  la::DenseMatrix embedding;
  const double embedding_ms =
      Timed(run, "cluster.embedding", request, root.id(), [&] {
        auto computed =
            cluster::SpectralEmbeddingForClustering(result->laplacian, k);
        run->Check(computed.ok(), "replay: spectral embedding failed");
        if (computed.ok()) embedding = std::move(*computed);
      });
  run->Layer("cluster.embedding_ms", embedding_ms, "ms");
  const double kmeans_ms = Timed(run, "cluster.kmeans", request, root.id(), [&] {
    cluster::KMeans(embedding, k, cluster::KMeansOptions());
  });
  run->Layer("cluster.kmeans_ms", kmeans_ms, "ms");
}

void SpmvCounts(Run* run, double lanczos_vectors, int64_t nnz, int64_t rows) {
  run->Layer("la.lanczos_vectors", lanczos_vectors, "count");
  // One SpMV per basis vector: a multiply-add per nonzero; the matrix
  // streams its value and column index per nonzero, x and y once per row.
  const double n = static_cast<double>(nnz);
  const double r = static_cast<double>(rows);
  run->Layer("la.spmv_flops", lanczos_vectors * 2.0 * n, "flop");
  run->Layer("la.spmv_bytes", lanczos_vectors * (16.0 * n + 16.0 * r), "B");
}

void ReplayFastTier(Run* run, const serve::GraphEntry& entry, int k) {
  run->Check(entry.coarse != nullptr, "fixture has no coarse companion");
  if (entry.coarse == nullptr) return;
  const uint64_t request = run->tracer ? run->tracer->NewRequest() : 0;
  SpanScope root(run->tracer, "bench.replay_fast", request);
  core::EvalWorkspace ws;
  std::vector<int32_t> coarse_labels;
  const double solve_ms =
      Timed(run, "coarse.fast_solve", request, root.id(), [&] {
        auto result = core::SglaPlusOnAggregator(
            *entry.coarse->aggregator, k, core::SglaPlusOptions(), &ws);
        run->Check(result.ok(), "replay: coarse solve failed");
        if (!result.ok()) return;
        auto labels = cluster::SpectralClustering(result->laplacian, k);
        run->Check(labels.ok(), "replay: coarse clustering failed");
        if (labels.ok()) coarse_labels = std::move(*labels);
      });
  run->Layer("coarse.fast_solve_ms", solve_ms, "ms");
  std::vector<int32_t> fine;
  const double prolong_ms =
      Timed(run, "coarse.prolong", request, root.id(), [&] {
        coarse::ProlongateLabels(entry.coarse->plan, coarse_labels, &fine);
      });
  run->Check(static_cast<int64_t>(fine.size()) == entry.num_nodes,
             "replay: prolongated labels have the wrong size");
  run->Layer("coarse.prolong_ms", prolong_ms, "ms");
}

void SelfTimes(Run* run) {
  if (run->tracer == nullptr) return;
  for (const auto& [layer, ms] : run->tracer->SelfMsByLayer()) {
    const std::string name = layer + ".self_ms";
    if (layer != "opt" && layer != "bench") run->Layer(name, ms, "ms");
  }
}

void TracedCopies(Run* run) {
  for (const char* name : kEndToEnd) {
    const auto it = run->e2e.find(name);
    if (it != run->e2e.end()) {
      run->Layer(std::string("traced.") + name, it->second.value,
                 it->second.unit);
    }
  }
}

}  // namespace perfbench
}  // namespace sgla
