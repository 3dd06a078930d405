// The traced run's per-layer measurements. Each Replay* function calls one
// layer's own public functions on the workload's fixture, under spans, and
// stores what it measured in the run's per-layer metrics.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/aggregator.h"
#include "core/mvag.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"

namespace sgla {
namespace perfbench {

/// Every per-layer metric, in report order: (name, unit). BENCHMARK.json
/// lists the same names; run.py checks that the two agree.
const std::vector<std::pair<std::string, std::string>>& LayerCatalogue();

/// Sets every per-layer metric the workload did not measure to 0: a layer
/// the workload bypasses does no work on it.
void ZeroUnmeasured(Run* run);

/// graph.knn_ms, core.view_laplacian_ms, coarse.plan_ms: the registration
/// path's layers on `mvag` with the default RegisterOptions.
void ReplayBuild(Run* run, const core::MultiViewGraph& mvag);

/// core.*, opt.self_ms, la.eigensolve_ms and cluster.*_ms: one cold exact
/// cluster solve of `algorithm` with `options` replayed layer by layer on
/// `aggregator`; with `netmf_dim` > 0, also embed.netmf_ms on its Laplacian.
void ReplaySolve(Run* run, const core::LaplacianAggregator& aggregator, int k,
                 serve::Algorithm algorithm,
                 const core::SglaPlusOptions& options, int netmf_dim);

/// la.lanczos_vectors, la.spmv_flops, la.spmv_bytes from the Lanczos basis
/// vectors the workload's own solves reported, over a Laplacian with
/// `nnz` nonzeros and `rows` rows.
void SpmvCounts(Run* run, double lanczos_vectors, int64_t nnz, int64_t rows);

/// coarse.fast_solve_ms and coarse.prolong_ms: the fast tier's SGLA+
/// cluster pipeline on the entry's coarse companion, then prolongation.
void ReplayFastTier(Run* run, const serve::GraphEntry& entry, int k);

/// <layer>.self_ms for every layer that has spans, from the tracer.
void SelfTimes(Run* run);

/// traced.<name> copies of the run's end-to-end metrics.
void TracedCopies(Run* run);

}  // namespace perfbench
}  // namespace sgla

#endif  // PERFBENCH_LAYERS_H_
