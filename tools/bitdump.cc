// Determinism bit-dump: runs the objective / Sgla / SglaPlus / clustering
// pipeline on a fixed synthetic MVAG (two graph views and one attribute
// view, so the KNN graph is fingerprinted too) and prints an FNV-1a hash
// (plus a few raw hex-encoded doubles) of every result array. The CI
// determinism job runs this binary at SGLA_THREADS={1,4} x shards={1,4} per
// compiler and fails on ANY output difference — threads and shards must never
// change bits. Cross-compiler dumps are archived as artifacts for inspection
// (different FP codegen may legitimately differ across compilers).
//
// Hashes are compared only within one ISA path: reduction kernels associate
// differently per ISA, so the job pins SGLA_ISA (or passes --isa) and diffs
// dumps that share it. `--print-best-isa` lets the script discover the best
// ISA the host can actually run.
//
// Usage: sgla_bitdump [--isa <name>] [--quality exact|fast]
//                     [--print-best-isa] [shards]
//        (thread count comes from SGLA_THREADS)
//
// --quality fast covers the coarse serving tier: the dump adds the coarse
// plan fingerprint (matching + contracted views) and the engine solves run
// at Quality::kFast, so the determinism matrix also proves coarsening and
// the coarse-solve path are bit-stable across threads/shards/ISAs. It also
// fingerprints the companion built lazily after the mask -> unmask epochs,
// so the matrix covers a first build on an epoch that updates published.
//
// The `updated` lines cover incremental updates: a pattern delta and a
// value-only delta on the registered graph (aggregators patched from the
// previous epoch's), then an exact SGLA solve, at either --quality.
//
// The final `embed` line is an exact SGLA+ NetMF embedding of the updated
// graph (weights, then the embedding's bits), so the matrix covers the
// NetMF eigensolve too. It comes last: every earlier line is unchanged from
// dumps taken before it existed.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/spectral_clustering.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "la/simd.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/rng.h"

namespace sgla {
namespace {

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v) {
  return Fnv1a(v.data(), v.size() * sizeof(T));
}

uint64_t HashCsr(const la::CsrMatrix& m) {
  uint64_t hash = Fnv1a(m.row_ptr.data(), m.row_ptr.size() * sizeof(int64_t));
  hash = Fnv1a(m.col_idx.data(), m.col_idx.size() * sizeof(int64_t), hash);
  return Fnv1a(m.values.data(), m.values.size() * sizeof(double), hash);
}

// The plan fingerprint and contracted-view hashes of a coarse companion,
// each line prefixed with `label`.
void PrintCoarse(const char* label, const serve::CoarseGraphEntry& coarse) {
  std::printf("%s rows=%" PRId64 " map=%016" PRIx64 "\n", label,
              coarse.plan.coarse_rows, HashVector(coarse.plan.fine_to_coarse));
  for (size_t v = 0; v < coarse.views.size(); ++v) {
    std::printf("%s view[%zu] hash=%016" PRIx64 "\n", label, v,
                HashCsr(coarse.views[v]));
  }
}

uint64_t DoubleBits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

int Run(int shards, serve::Quality quality) {
  // Fixed fixture: big enough that a 4-shard plan is real (>= 4 fixed
  // 512-row chunks) and ragged (n % 512 != 0) so boundary arithmetic is
  // exercised, small enough to finish in CI seconds. n is above the default
  // KNN exact_threshold, so the attribute view's KNN graph comes from the
  // RP forest.
  const int64_t n = 2570;
  const int k = 3;
  Rng rng(20250715);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.03, 0.003, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.015, 0.006, &rng));
  mvag.AddAttributeView(
      data::GaussianAttributes(labels, k, 16, 3.0, 3.0, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  serve::RegisterOptions options;
  options.shards = shards;
  auto entry = registry.Register("bitdump", mvag, options);
  if (!entry.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 entry.status().ToString().c_str());
    return 1;
  }
  // Config goes to stderr: stdout must be byte-identical across every
  // (SGLA_THREADS, shards) combination within one ISA, so the CI job can
  // plain `diff` it.
  std::fprintf(stderr, "fixture n=%" PRId64 " k=%d views=%zu shards=%d isa=%s\n",
               n, k, (*entry)->views.size(), shards,
               la::simd::ActiveIsaName());
  for (size_t v = 0; v < (*entry)->views.size(); ++v) {
    std::printf("view[%zu] hash=%016" PRIx64 "\n", v,
                HashCsr((*entry)->views[v]));
  }

  // In fast mode the coarse companion is part of the contract: its matching
  // and every contracted view must be bit-identical across the matrix too.
  if (quality != serve::Quality::kExact) {
    const serve::CoarseGraphEntry* coarse = (*entry)->coarse.get();
    if (coarse == nullptr) {
      std::fprintf(stderr, "fast dump requested but no coarse companion\n");
      return 1;
    }
    PrintCoarse("coarse", *coarse);
  }

  // Objective evaluations at fixed weights, through the registered entry's
  // aggregator (sharded when shards > 1).
  {
    core::EvalWorkspace eval_ws;
    core::SpectralObjective objective((*entry)->aggregator.get(), k,
                                      core::ObjectiveOptions(), &eval_ws);
    const std::vector<std::vector<double>> probes = {
        {0.4, 0.4, 0.2}, {0.7, 0.2, 0.1}, {0.3, 0.5, 0.2}};
    for (const std::vector<double>& w : probes) {
      auto value = objective.Evaluate(w);
      if (!value.ok()) {
        std::fprintf(stderr, "objective failed\n");
        return 1;
      }
      std::printf("objective w0=%.2f w1=%.2f h=%016" PRIx64 " gap=%016" PRIx64
                  " l2=%016" PRIx64 "\n",
                  w[0], w[1], DoubleBits(value->h), DoubleBits(value->eigengap),
                  DoubleBits(value->lambda2));
    }
  }

  // Full Sgla / SglaPlus cluster solves through the engine.
  serve::Engine engine(&registry);
  for (serve::Algorithm algorithm :
       {serve::Algorithm::kSgla, serve::Algorithm::kSglaPlus}) {
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.algorithm = algorithm;
    request.quality = quality;
    request.options.base.max_evaluations = 24;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (response->stats.tier_served != quality) {
      std::fprintf(stderr, "tier fell back to exact\n");
      return 1;
    }
    const char* name =
        algorithm == serve::Algorithm::kSgla ? "sgla" : "sgla+";
    std::printf("%s weights=%016" PRIx64 " history=%016" PRIx64
                " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
                name, HashVector(response->integration.weights),
                HashVector(response->integration.objective_history),
                HashCsr(response->integration.laplacian),
                HashVector(response->labels));
    for (size_t i = 0; i < response->integration.weights.size(); ++i) {
      std::printf("%s w[%zu]=%016" PRIx64 "\n", name, i,
                  DoubleBits(response->integration.weights[i]));
    }
  }

  // View-lifecycle fingerprints: the active-set signature of the full entry,
  // then a MaskView epoch and a solve on the compacted serving subset. The
  // lifecycle rebuild path must be exactly as bit-stable across the
  // threads/shards matrix as registration is — the signature lines also pin
  // the FNV-1a uid fold itself.
  {
    std::printf("signature full=%016" PRIx64 " uids=%016" PRIx64 "\n",
                (*entry)->views_signature, HashVector((*entry)->view_uids));
    serve::GraphDelta mask;
    mask.mask_views = {1};
    auto masked = registry.UpdateGraph("bitdump", mask);
    if (!masked.ok()) {
      std::fprintf(stderr, "mask delta failed: %s\n",
                   masked.status().ToString().c_str());
      return 1;
    }
    std::printf("signature masked=%016" PRIx64 " active=%d/%zu\n",
                (*masked)->views_signature, (*masked)->num_active_views(),
                (*masked)->views.size());
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.quality = quality;
    request.options.base.max_evaluations = 24;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "masked solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("masked weights=%016" PRIx64 " history=%016" PRIx64
                " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
                HashVector(response->integration.weights),
                HashVector(response->integration.objective_history),
                HashCsr(response->integration.laplacian),
                HashVector(response->labels));
  }

  // Node-sampled SGLA+ on the unmasked graph: objective evaluations on a
  // sampled subgraph, then the final aggregation over the full (sharded)
  // pattern — in one session, so the sampled and full patterns share one
  // workspace. Always the exact tier: the coarse companion is smaller than
  // the sample.
  {
    serve::GraphDelta unmask;
    unmask.unmask_views = {1};
    auto unmasked = registry.UpdateGraph("bitdump", unmask);
    if (!unmasked.ok()) {
      std::fprintf(stderr, "unmask delta failed: %s\n",
                   unmasked.status().ToString().c_str());
      return 1;
    }
    // Lifecycle epochs leave the companion unbuilt; this dereference is its
    // first build, from the unmasked epoch's own state.
    if (quality != serve::Quality::kExact) {
      if ((*unmasked)->coarse == nullptr) {
        std::fprintf(stderr, "unmasked epoch has no coarse companion\n");
        return 1;
      }
      PrintCoarse("unmasked coarse", *(*unmasked)->coarse);
    }
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.algorithm = serve::Algorithm::kSglaPlus;
    request.options.max_objective_nodes = 1024;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "sampled solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("sampled weights=%016" PRIx64 " history=%016" PRIx64
                " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
                HashVector(response->integration.weights),
                HashVector(response->integration.objective_history),
                HashCsr(response->integration.laplacian),
                HashVector(response->labels));
  }

  // Updated-entry fingerprints: a pattern delta (edge removals and
  // insertions in graph view 1) and then a value-only delta (re-weights in
  // graph view 0). Each epoch's aggregator is patched from — or, value-only,
  // shares — the previous epoch's union pattern, so the matrix gates the
  // patch path like the registration build; an exact SGLA solve closes it.
  {
    serve::GraphDelta pattern_delta;
    serve::GraphViewDelta edits;
    edits.view = 1;
    const std::vector<graph::Edge>& edges = mvag.graph_views()[1].edges();
    for (size_t e = 0; e < 8; ++e) {
      const graph::Edge& edge = edges[e * edges.size() / 8];
      edits.removals.push_back({edge.u, edge.v});
    }
    Rng edit_rng(20261022);
    for (int e = 0; e < 8; ++e) {
      const int64_t u = edit_rng.UniformInt(0, n - 1);
      const int64_t v = (u + edit_rng.UniformInt(1, n - 1)) % n;
      edits.upserts.push_back({u, v, 0.5 + edit_rng.Uniform()});
    }
    pattern_delta.graph_views.push_back(std::move(edits));
    serve::GraphDelta value_delta;
    serve::GraphViewDelta reweights;
    reweights.view = 0;
    const std::vector<graph::Edge>& view0 = mvag.graph_views()[0].edges();
    for (size_t e = 0; e < 8; ++e) {
      const graph::Edge& edge = view0[e * view0.size() / 8];
      reweights.upserts.push_back({edge.u, edge.v, 1.5});
    }
    value_delta.graph_views.push_back(std::move(reweights));
    for (const serve::GraphDelta* delta : {&pattern_delta, &value_delta}) {
      auto updated = registry.UpdateGraph("bitdump", *delta);
      if (!updated.ok()) {
        std::fprintf(stderr, "update delta failed: %s\n",
                     updated.status().ToString().c_str());
        return 1;
      }
      const core::UnionPattern& pattern =
          *(*updated)->aggregator->union_pattern();
      uint64_t sell = HashVector(pattern.sell.slice_ptr);
      sell = Fnv1a(pattern.sell.col_idx.data(),
                   pattern.sell.col_idx.size() * sizeof(int32_t), sell);
      sell = Fnv1a(pattern.sell.perm.data(),
                   pattern.sell.perm.size() * sizeof(int64_t), sell);
      std::printf("updated epoch=%" PRId64 " pattern=%016" PRIx64
                  " sell=%016" PRIx64 "\n",
                  (*updated)->epoch, HashCsr(pattern.csr), sell);
    }
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.algorithm = serve::Algorithm::kSgla;
    request.options.base.max_evaluations = 24;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "updated solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("updated weights=%016" PRIx64 " history=%016" PRIx64
                " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
                HashVector(response->integration.weights),
                HashVector(response->integration.objective_history),
                HashCsr(response->integration.laplacian),
                HashVector(response->labels));
  }

  // SGLA+ NetMF embedding on the updated graph, exact tier at either
  // --quality.
  {
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.mode = serve::SolveMode::kEmbed;
    request.algorithm = serve::Algorithm::kSglaPlus;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "embed solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("embed weights=%016" PRIx64 " rows=%" PRId64 " dim=%" PRId64
                " embedding=%016" PRIx64 "\n",
                HashVector(response->integration.weights),
                response->embedding.rows(), response->embedding.cols(),
                HashVector(response->embedding.data()));
  }
  return 0;
}

}  // namespace
}  // namespace sgla

int main(int argc, char** argv) {
  int shards = 1;
  sgla::serve::Quality quality = sgla::serve::Quality::kExact;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-best-isa") == 0) {
      std::printf("%s\n",
                  sgla::la::simd::IsaName(
                      sgla::la::simd::AvailableIsas().back()));
      return 0;
    }
    if (std::strcmp(argv[i], "--isa") == 0 && i + 1 < argc) {
      // Equivalent to exporting SGLA_ISA before launch: the dispatcher reads
      // the variable lazily on the first kernel call, which is after this.
      setenv("SGLA_ISA", argv[++i], /*overwrite=*/1);
      continue;
    }
    if (std::strcmp(argv[i], "--quality") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "exact") {
        quality = sgla::serve::Quality::kExact;
      } else if (name == "fast") {
        quality = sgla::serve::Quality::kFast;
      } else {
        std::fprintf(stderr, "unknown --quality %s\n", name.c_str());
        return 2;
      }
      continue;
    }
    shards = std::atoi(argv[i]);
  }
  if (shards < 1) {
    std::fprintf(stderr,
                 "usage: sgla_bitdump [--isa <name>] [--quality exact|fast] "
                 "[--print-best-isa] [shards>=1]\n");
    return 2;
  }
  return sgla::Run(shards, quality);
}
