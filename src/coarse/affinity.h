#ifndef SGLA_COARSE_AFFINITY_H_
#define SGLA_COARSE_AFFINITY_H_

// Private kernels of the heavy-edge matching in coarsen.cc, declared here so
// tests can check them against reference implementations. Not part of the
// coarse/ API: callers outside src/coarse/ and tests/ use coarsen.h.

#include <cstdint>
#include <vector>

#include "la/sparse.h"

namespace sgla {
namespace coarse {

/// One coarsening level's adjacency: CSR with strictly ascending columns per
/// row and non-negative integer weights. May contain the diagonal at level 0
/// (the matcher and the affinity skip it).
struct LevelGraph {
  int64_t rows = 0;
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col;
  std::vector<int64_t> weight;
};

/// Integer heavy-edge weights of the union pattern: slot p counts the views
/// whose row holds a structural entry at the same (row, col). Pattern-only
/// on purpose — value-only deltas leave every multiplicity (and therefore
/// the matching) untouched. With `rows`, only the slots of rows i with
/// (*rows)[i] are counted; every other slot stays 0.
std::vector<int64_t> PatternMultiplicity(
    const la::CsrMatrix& union_pattern,
    const std::vector<la::CsrMatrix>& views,
    const std::vector<bool>* rows = nullptr);

/// Matching affinity per edge slot (u, v), u != v: direct weight plus the
/// weighted common neighborhood, score(u,v) = w(u,v) + Σ_t min(w(u,t),
/// w(v,t)) over shared neighbors t (t != u, v); diagonal slots score 0.
/// With `rows`, only slots whose two ends are both in `rows` are scored
/// (they read nothing but the weights of those two rows); every other slot
/// stays 0.
///
/// Dense-scatter kernel: row u's weights go into a per-chunk dense array,
/// then each neighbor row v is summed in one branch-free pass. The common-
/// neighborhood sum is symmetric in (u, v), so each mirrored pair is summed
/// once. Cost is Σ_u deg u + Σ_{u<v, (u,v) an edge} deg v, about
/// ½ Σ_v deg(v)^2 on a symmetric pattern, so it grows with the densifying
/// contracted levels. Integer sums, so the result does not depend on the
/// summation order, the chunking or the thread count.
std::vector<int64_t> EdgeAffinity(const LevelGraph& g,
                                  const std::vector<bool>* rows = nullptr);

}  // namespace coarse
}  // namespace sgla

#endif  // SGLA_COARSE_AFFINITY_H_
