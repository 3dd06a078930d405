#include "cluster/spectral_clustering.h"

#include "la/lanczos.h"

namespace sgla {
namespace cluster {
namespace {

// 2 bounds the spectrum of (convex combinations of) normalized Laplacians:
// the Lanczos complement shift of every embedding eigensolve.
constexpr double kSpectrumUpperBound = 2.0;

}  // namespace

Result<la::DenseMatrix> SpectralEmbeddingForClustering(
    const la::CsrMatrix& laplacian, int k) {
  if (k < 1) return InvalidArgument("spectral embedding needs k >= 1");
  auto eigen = la::SmallestEigenpairs(laplacian, k, kSpectrumUpperBound);
  if (!eigen.ok()) return eigen.status();
  la::DenseMatrix embedding = std::move(eigen->vectors);
  la::NormalizeRows(&embedding);
  return embedding;
}

Result<std::vector<int32_t>> SpectralClustering(const la::CsrMatrix& laplacian,
                                                int k,
                                                const KMeansOptions& kmeans) {
  auto embedding = SpectralEmbeddingForClustering(laplacian, k);
  if (!embedding.ok()) return embedding.status();
  return KMeans(*embedding, k, kmeans).labels;
}

Status SpectralClusteringInto(const la::CsrMatrix& laplacian, int k,
                              const KMeansOptions& kmeans,
                              SpectralWorkspace* workspace,
                              std::vector<int32_t>* out,
                              const util::ShardContext* shards,
                              la::LanczosStats* stats) {
  if (k < 1) return InvalidArgument("spectral embedding needs k >= 1");
  const Status solved = la::SmallestEigenpairsInto(
      la::CsrSpmvOperator(laplacian, shards), k, kSpectrumUpperBound, {},
      &workspace->lanczos, &workspace->eigen, stats);
  if (!solved.ok()) return solved;
  la::NormalizeRows(&workspace->eigen.vectors);
  KMeansInto(workspace->eigen.vectors, k, kmeans, &workspace->kmeans,
             &workspace->kmeans_result, shards);
  *out = workspace->kmeans_result.labels;  // assign-reuses out's capacity
  return OkStatus();
}

}  // namespace cluster
}  // namespace sgla
