#ifndef SGLA_CLUSTER_SPECTRAL_CLUSTERING_H_
#define SGLA_CLUSTER_SPECTRAL_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "la/dense.h"
#include "la/lanczos.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace cluster {

/// Reusable scratch for SpectralClusteringInto: the embedding eigensolve
/// buffers and the k-means scratch. One warm workspace makes repeated
/// clustering calls at a fixed problem size allocation-free except for the
/// caller-owned outputs.
struct SpectralWorkspace {
  la::LanczosWorkspace lanczos;
  la::Eigenpairs eigen;       ///< holds the (row-normalized) embedding
  KMeansWorkspace kmeans;
  KMeansResult kmeans_result;
};

/// Row-normalized matrix of the k smallest Laplacian eigenvectors — the
/// standard NJW spectral embedding used by both clustering backends.
Result<la::DenseMatrix> SpectralEmbeddingForClustering(
    const la::CsrMatrix& laplacian, int k);

/// NJW spectral clustering: spectral embedding + k-means.
Result<std::vector<int32_t>> SpectralClustering(
    const la::CsrMatrix& laplacian, int k, const KMeansOptions& kmeans = {});

/// Workspace form of SpectralClustering: bit-identical labels, with all
/// scratch in `workspace` and the labels assign-reused in `out`.
///
/// `shards` (null = unsharded) must cover laplacian.rows; the embedding
/// eigensolve then applies the Laplacian one row-shard SpMV job at a time
/// (la::CsrSpmvOperator) and the k-means assignment pass runs sharded too
/// (see the sharded KMeansInto). Labels are bit-identical to the unsharded
/// call at any shard and thread count. `stats`, when non-null, receives the
/// embedding eigensolve's iteration counts.
Status SpectralClusteringInto(const la::CsrMatrix& laplacian, int k,
                              const KMeansOptions& kmeans,
                              SpectralWorkspace* workspace,
                              std::vector<int32_t>* out,
                              const util::ShardContext* shards = nullptr,
                              la::LanczosStats* stats = nullptr);

}  // namespace cluster
}  // namespace sgla

#endif  // SGLA_CLUSTER_SPECTRAL_CLUSTERING_H_
