#include "core/view_laplacian.h"

#include "graph/laplacian.h"

namespace sgla {
namespace core {

Result<std::vector<la::CsrMatrix>> ComputeViewLaplacians(
    const MultiViewGraph& mvag, const graph::KnnOptions& knn) {
  if (mvag.num_views() == 0) {
    return InvalidArgument("multi-view graph has no views");
  }
  const Status knn_valid = graph::ValidateKnnOptions(knn);
  if (!knn_valid.ok()) return knn_valid;
  for (const graph::Graph& g : mvag.graph_views()) {
    if (g.num_nodes() != mvag.num_nodes()) {
      return InvalidArgument("graph view node count mismatch");
    }
  }
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    if (x.rows() != mvag.num_nodes()) {
      return InvalidArgument("attribute view row count mismatch");
    }
  }

  // One view after another, graph views first, then attribute views
  // (matching the paper's L_1..L_r indexing). Each kernel runs across the
  // whole pool and is bit-identical at any thread count; one pool task per
  // view would instead run each view's KNN trees one by one on a single
  // worker.
  std::vector<la::CsrMatrix> views;
  views.reserve(static_cast<size_t>(mvag.num_views()));
  for (const graph::Graph& g : mvag.graph_views()) {
    views.push_back(graph::NormalizedLaplacian(g));
  }
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    views.push_back(graph::NormalizedLaplacian(graph::KnnGraph(x, knn)));
  }
  return views;
}

Result<la::CsrMatrix> ComputeViewLaplacian(const MultiViewGraph& mvag,
                                           int view,
                                           const graph::KnnOptions& knn) {
  const int num_graphs = static_cast<int>(mvag.graph_views().size());
  if (view < 0 || view >= mvag.num_views()) {
    return InvalidArgument("view index out of range");
  }
  const Status knn_valid = graph::ValidateKnnOptions(knn);
  if (!knn_valid.ok()) return knn_valid;
  if (view < num_graphs) {
    const graph::Graph& g = mvag.graph_views()[static_cast<size_t>(view)];
    if (g.num_nodes() != mvag.num_nodes()) {
      return InvalidArgument("graph view node count mismatch");
    }
    return graph::NormalizedLaplacian(g);
  }
  const la::DenseMatrix& x =
      mvag.attribute_views()[static_cast<size_t>(view - num_graphs)];
  if (x.rows() != mvag.num_nodes()) {
    return InvalidArgument("attribute view row count mismatch");
  }
  return graph::NormalizedLaplacian(graph::KnnGraph(x, knn));
}

}  // namespace core
}  // namespace sgla
