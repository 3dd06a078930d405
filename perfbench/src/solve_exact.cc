// solve_exact: the paper's pipeline at a size where compute dominates. One
// caller runs cold exact solves back to back through the in-process engine;
// rpc, persist and the delta path do no work here.
#include <iostream>
#include <map>
#include <mutex>
#include <string>

#include "layers.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "trace.h"
#include "workloads.h"

namespace sgla {
namespace perfbench {
namespace {

/// Graphs per run, each drawn from the run's seed. How many optimizer
/// steps a solve takes depends on its graph, so one graph per run would make
/// every latency a property of the seed; the median over several is steady.
constexpr int kGraphs = 3;
/// SGLA requests search with a fixed budget of objective evaluations:
/// early termination (epsilon) off, so the search stops at the budget. With
/// the default epsilon the search length varied from 4 to 18 optimizer
/// iterations across seeds at this size (1.2 to 3.3 s per solve).
constexpr int kSglaEvaluations = 10;
/// Embedding dimension of the embed requests. At NetMF's default of 64 the
/// eigensolve of the 65 smallest pairs needed 2 or 3 Lanczos restart passes
/// depending on the graph (1.3 or 2.0 s at this size); at 32 every graph
/// took 2.
constexpr int kEmbedDim = 32;
/// Latency limit of slo_met_frac: an SGLA cluster solve at n = 16k (about
/// three times the median).
constexpr double kSolveLimitMs = 4000.0;
/// Planted-partition quality the exact SGLA labels must reach.
constexpr double kNmiFloor = 0.9;

struct Kind {
  const char* name;
  serve::Algorithm algorithm;
  serve::SolveMode mode;
  std::vector<double> ms;
  std::vector<double> lanczos;
  std::vector<double> embedding_lanczos;
};

}  // namespace

void SolveExact(Run* run) {
  FixtureSpec spec;
  spec.nodes = 16000;
  spec.clusters = 5;
  spec.sbm = {{0.005, 0.0008}, {0.0035, 0.001}};
  spec.attribute_dim = 16;
  spec.separation = 3.0;
  spec.noise = 3.0;
  const std::vector<core::MultiViewGraph> graphs =
      MakeFixtures(spec, run->args.seed, kGraphs);

  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  // Traced run: the solve hook stamps when a session starts the solve.
  std::mutex hook_mutex;
  Clock::time_point solve_started;
  if (run->tracer) {
    engine.SetSolveHookForTest([&](const serve::SolveRequest&) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      solve_started = Clock::now();
    });
  }

  const auto entries = RegisterAll(run, &engine, graphs);
  if (entries.empty()) return;

  std::vector<Kind> kinds = {
      {"sgla", serve::Algorithm::kSgla, serve::SolveMode::kCluster, {}, {}, {}},
      {"sglaplus", serve::Algorithm::kSglaPlus, serve::SolveMode::kCluster,
       {}, {}, {}},
      {"embed", serve::Algorithm::kSglaPlus, serve::SolveMode::kEmbed, {}, {},
       {}}};
  std::vector<double> queue_wait_ms;
  std::vector<double> nmi;
  // First output of every (graph, kind): later repeats must match its bits.
  std::map<std::pair<int, int>, uint64_t> first_hash;
  const auto deadline = After(run->args.seconds);
  const size_t round = kinds.size() * kGraphs;
  // Round robin over graphs, then kinds; at least one full round.
  for (size_t i = 0; i < round || Clock::now() < deadline; ++i) {
    const int g = static_cast<int>(i / kinds.size() % kGraphs);
    const int kind_index = static_cast<int>(i % kinds.size());
    Kind& kind = kinds[kind_index];
    serve::SolveRequest request;
    request.graph_id = "g" + std::to_string(g);
    request.algorithm = kind.algorithm;
    request.mode = kind.mode;
    if (kind.algorithm == serve::Algorithm::kSgla) {
      request.options.base.epsilon = 0.0;
      request.options.base.max_evaluations = kSglaEvaluations;
    }
    request.netmf.dim = kEmbedDim;
    const uint64_t trace_id = run->tracer ? run->tracer->NewRequest() : 0;
    Result<serve::SolveResponse> response = Internal("not run");
    const auto t0 = Clock::now();
    {
      SpanScope span(run->tracer, "serve.solve", trace_id);
      response = engine.Solve(request);
      if (run->tracer) {
        std::lock_guard<std::mutex> lock(hook_mutex);
        queue_wait_ms.push_back(MsBetween(t0, solve_started));
        run->tracer->Record("serve.queue_wait", trace_id, span.id(), t0,
                            solve_started);
      }
    }
    kind.ms.push_back(MsSince(t0));
    run->CountOp(response.ok(), std::string("Solve ") + kind.name + " failed");
    if (!response.ok()) continue;
    kind.lanczos.push_back(
        static_cast<double>(response->stats.lanczos_iterations));
    kind.embedding_lanczos.push_back(
        static_cast<double>(response->stats.embedding_lanczos_iterations));

    uint64_t hash = 0;
    if (kind.mode == serve::SolveMode::kCluster) {
      run->Check(static_cast<int64_t>(response->labels.size()) == spec.nodes,
                 std::string(kind.name) + ": label count");
      hash = HashLabels(response->labels);
    } else {
      const la::DenseMatrix& e = response->embedding;
      run->Check(e.rows() == spec.nodes &&
                     e.cols() == request.netmf.dim && AllFinite(e),
                 "embed: output is not a finite n x dim matrix");
      hash = HashMatrix(e);
    }
    // Repeated cold exact requests are deterministic: same bits every time.
    const auto [it, first] = first_hash.try_emplace({g, kind_index}, hash);
    if (first && kind.algorithm == serve::Algorithm::kSgla) {
      nmi.push_back(Nmi(response->labels, graphs[g].labels()));
    }
    run->Check(it->second == hash,
               std::string(kind.name) + ": repeated exact solve differs");
  }
  for (const Kind& kind : kinds) LogSamples(kind.name, kind.ms);

  double tail_pct = 0.0;
  const std::vector<double>& sgla_ms = kinds[0].ms;
  int64_t met = 0;
  for (double ms : sgla_ms) met += ms <= kSolveLimitMs ? 1 : 0;
  run->E2e("op_ms_p50", Median(sgla_ms), "ms");
  run->E2e("op_ms_tail", Tail(sgla_ms, &tail_pct), "ms");
  run->E2e("op2_ms_p50", Median(kinds[1].ms), "ms");
  run->E2e("op3_ms_p50", Median(kinds[2].ms), "ms");
  run->E2e("slo_met_frac",
           static_cast<double>(met) / static_cast<double>(sgla_ms.size()),
           "ratio");
  LogSamples("nmi", nmi);
  run->E2e("nmi", Median(nmi), "ratio");
  for (double value : nmi) {
    run->Check(value >= kNmiFloor, "exact SGLA NMI below the floor");
  }
  std::cerr << "solve_exact: " << sgla_ms.size() << " SGLA, "
            << kinds[1].ms.size() << " SGLA+, " << kinds[2].ms.size()
            << " embed solves; op_ms_tail is p" << tail_pct << " of "
            << sgla_ms.size() << "\n";

  if (run->tracer == nullptr) return;
  run->Layer("serve.queue_wait_ms", Mean(queue_wait_ms), "ms");
  run->Layer("serve.physical_solves", static_cast<double>(engine.completed()),
             "count");
  SpmvCounts(run, Median(kinds[0].lanczos),
             entries[0]->aggregator->pattern().nnz(), spec.nodes);
  run->Layer("cluster.embedding_lanczos_vectors",
             Median(kinds[0].embedding_lanczos), "count");
  ReplayBuild(run, graphs[0]);
  core::SglaPlusOptions options;
  options.base.epsilon = 0.0;
  options.base.max_evaluations = kSglaEvaluations;
  ReplaySolve(run, *entries[0]->aggregator, spec.clusters,
              serve::Algorithm::kSgla, options, kEmbedDim);
}

}  // namespace perfbench
}  // namespace sgla
