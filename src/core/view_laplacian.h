#ifndef SGLA_CORE_VIEW_LAPLACIAN_H_
#define SGLA_CORE_VIEW_LAPLACIAN_H_

#include <vector>

#include "core/mvag.h"
#include "graph/knn.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace core {

/// One normalized Laplacian per view: graph views directly, attribute views
/// through a KNN graph built with `knn`. Order: graph views first, then
/// attribute views (matching the paper's L_1..L_r indexing). Options that
/// fail graph::ValidateKnnOptions, and a graph view whose node count is not
/// the graph's or whose edge names a node outside [0, num_nodes), are an
/// InvalidArgument.
Result<std::vector<la::CsrMatrix>> ComputeViewLaplacians(
    const MultiViewGraph& mvag, const graph::KnnOptions& knn = {});

/// The Laplacian of one view only, in the same global ordering (graph views
/// first). Bit-identical to ComputeViewLaplacians(mvag, knn)[view] — the
/// incremental-update path recomputes just the views a delta touched.
Result<la::CsrMatrix> ComputeViewLaplacian(const MultiViewGraph& mvag,
                                           int view,
                                           const graph::KnnOptions& knn = {});

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_VIEW_LAPLACIAN_H_
