#ifndef SGLA_GRAPH_LAPLACIAN_H_
#define SGLA_GRAPH_LAPLACIAN_H_

#include "graph/graph.h"
#include "la/sparse.h"

namespace sgla {
namespace graph {

/// Symmetric normalized Laplacian L = I - D^{-1/2} A D^{-1/2}. Edges are
/// symmetrized and coalesced; self loops are dropped. Isolated nodes get an
/// all-zero row (their Laplacian block is 0), keeping the spectrum in [0, 2].
///
/// Built straight into CSR: each row's entries are counted and scattered
/// from the edge list, then every row is sorted by column on its own and
/// its duplicate columns are coalesced, each sum starting at 0.0 and adding
/// the copies in edge-list order. O(nnz log deg) with no global sort; the
/// row passes run on the ThreadPool and give the same bits at any thread
/// count.
la::CsrMatrix NormalizedLaplacian(const Graph& g);

/// Symmetric normalized adjacency D^{-1/2} A D^{-1/2} (the same matrix with
/// the identity removed and negated) — the smoothing operator used by the
/// filtering baselines and embedding code.
la::CsrMatrix NormalizedAdjacency(const Graph& g);

}  // namespace graph
}  // namespace sgla

#endif  // SGLA_GRAPH_LAPLACIAN_H_
