#ifndef SGLA_GRAPH_KNN_H_
#define SGLA_GRAPH_KNN_H_

#include <cstdint>

#include "graph/graph.h"
#include "la/dense.h"
#include "util/status.h"

namespace sgla {
namespace graph {

struct KnnOptions {
  int k = 10;
  /// Below this node count the exact O(n^2 d) scan is used; above it, a
  /// random-projection forest approximation.
  int64_t exact_threshold = 2048;
  int trees = 8;          ///< RP-forest size (approximate path)
  int leaf_size = 96;     ///< brute-force leaves of each tree
  uint64_t seed = 9176;
};

/// Largest accepted KnnOptions::trees. The forest holds every tree's
/// candidate heaps until the merge, so the tree count bounds that memory
/// (trees x n x min(k, leaf_size - 1) candidates).
inline constexpr int kMaxKnnTrees = 64;

/// OK when `options` is in range: k >= 1, 1 <= trees <= kMaxKnnTrees,
/// leaf_size >= 1 and exact_threshold >= 0. Options read from the wire or
/// from disk go through this before they reach KnnGraph.
Status ValidateKnnOptions(const KnnOptions& options);

/// Symmetric k-nearest-neighbor graph over the rows of `points` (Euclidean
/// distance, unit edge weights, union-symmetrized). Edges are listed in
/// ascending (u, v) order, u < v. `options` must pass ValidateKnnOptions.
Graph KnnGraph(const la::DenseMatrix& points, const KnnOptions& options = {});

}  // namespace graph
}  // namespace sgla

#endif  // SGLA_GRAPH_KNN_H_
