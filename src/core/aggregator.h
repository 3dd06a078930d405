#ifndef SGLA_CORE_AGGREGATOR_H_
#define SGLA_CORE_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "la/sparse.h"
#include "util/sharding.h"

namespace sgla {
namespace core {

/// The union sparsity pattern of one view set, immutable once built and
/// shared by every aggregator whose views have exactly these row patterns
/// (a value-only graph update hands its predecessor's pattern on, see
/// LaplacianAggregator). Values live in per-call output buffers, never here.
struct UnionPattern {
  la::CsrMatrix csr;  ///< union row_ptr / col_idx; values stay empty
  /// Per view: view nonzero p -> its slot in csr.col_idx.
  std::vector<std::vector<int64_t>> scatter;
  la::SellMatrix sell;  ///< SELL-C-σ form of csr; values stay empty
  /// Process-unique id. Workspaces stamp their bound buffers with it so a
  /// buffer last bound to a *different* pattern is re-bound, not trusted.
  uint64_t id = 0;
};

/// Computes L_w = sum_i w_i L_i repeatedly for changing weights without
/// rebuilding the union sparsity pattern each time: the pattern and each
/// view's scatter map into it are precomputed once, so Aggregate() is a pure
/// fused-multiply pass over the union nnz. This is the hot inner loop of the
/// SGLA weight search (see DESIGN.md, "aggregator reuse").
///
/// The aggregator also owns the graph's row partition (DESIGN.md,
/// "Sharding"): one shard by default, or K contiguous shards whose interior
/// boundaries are multiples of util::kShardAlign. Value fills, SELL refreshes
/// and the objective's SpMV then run one pool chunk per shard over that
/// shard's rows of the one full pattern (see util::ShardContext). Every
/// kernel involved writes each row independently, so the bits do not depend
/// on the shard count or the thread count.
///
/// The pattern (UnionPattern) is immutable and held by shared_ptr, so any
/// number of threads may call the const AggregateValuesInto() form
/// concurrently, each with its own output buffer — this is how the engine
/// layer serves concurrent solves on one registered graph. The legacy
/// Aggregate() writes into an internal buffer, allocated on its first call,
/// and therefore needs external serialization.
class LaplacianAggregator {
 public:
  /// `views` must outlive the aggregator. All views share one shape.
  /// `boundaries` holds num_shards + 1 ascending row offsets —
  /// boundaries[0] == 0, boundaries.back() == rows, every interior boundary
  /// a multiple of util::kShardAlign (serve::MakeShardPlan produces
  /// conforming plans); empty means one shard.
  ///
  /// `previous` (optional, same view count and shape; checked) is an
  /// aggregator over an earlier version of the same views — the previous
  /// epoch of a graph update. The rows whose pattern differs from it in
  /// some view become changed_rows(). None: the new aggregator shares
  /// previous's pattern object, pattern_id() included, so workspaces bound
  /// to it skip rebinding. Some: only those rows re-run the union merge;
  /// unchanged row runs copy their union columns and shift their scatter
  /// entries, and unchanged SELL slices copy their columns. Without
  /// `previous` every row merges. The pattern is the same bytes either way.
  explicit LaplacianAggregator(
      const std::vector<la::CsrMatrix>* views,
      std::vector<int64_t> boundaries = {},
      const LaplacianAggregator* previous = nullptr);

  int num_views() const { return static_cast<int>(views_->size()); }
  const std::vector<la::CsrMatrix>& views() const { return *views_; }

  /// Process-unique id of this aggregator's pattern (UnionPattern::id).
  /// Workspaces stamp their output CSR with it so a buffer last filled from
  /// a *different* pattern is re-bound instead of trusted (engine workers
  /// hop between graphs).
  uint64_t pattern_id() const { return pattern_->id; }

  /// The shared pattern object; aggregators built over unchanged row
  /// patterns from this one hold the same object.
  const std::shared_ptr<const UnionPattern>& union_pattern() const {
    return pattern_;
  }

  /// Rows whose sparsity differs from `previous`'s views in some view,
  /// ascending; empty without `previous`.
  const std::vector<int64_t>& changed_rows() const { return changed_rows_; }

  int num_shards() const { return static_cast<int>(boundaries_.size()) - 1; }
  const std::vector<int64_t>& boundaries() const { return boundaries_; }
  /// The row partition, for kernels outside the aggregator that
  /// reuse the same shards (the objective's SpMV, clustering on the final
  /// Laplacian). Valid while the aggregator lives.
  util::ShardContext context() const;

  /// Returns the aggregate for `weights` (size == num_views()). The reference
  /// stays valid until the next Aggregate() call on this object.
  const la::CsrMatrix& Aggregate(const std::vector<double>& weights);

  /// The union-pattern CSR (row_ptr / col_idx; values empty).
  const la::CsrMatrix& pattern() const { return pattern_->csr; }

  /// Copies the union pattern into `out` (shape, row_ptr, col_idx) and sizes
  /// out->values; values content is unspecified. Reuses out's buffers.
  void BindPattern(la::CsrMatrix* out) const;

  /// Copies the SELL-C-σ form of the union pattern (see la::SellMatrix),
  /// materialized once per pattern, into `out` and sizes out->values with
  /// 0.0 padding. Reuses out's buffers, so rebinding a sufficiently large
  /// workspace is allocation-free.
  void BindSellPattern(la::SellMatrix* out) const;

  /// Fills out->values with sum_i w_i L_i over the union pattern; `out` must
  /// have been bound with BindPattern() first (checked). When `sell` is
  /// non-null (bound with BindSellPattern), each shard job also refreshes
  /// the SELL values of its rows. Thread-safe across distinct buffers;
  /// allocation-free.
  void AggregateValuesInto(const std::vector<double>& weights,
                           la::CsrMatrix* out,
                           la::SellMatrix* sell = nullptr) const;

 private:
  /// Fills rows [row_begin, row_end) of the union pattern's values.
  void FillValues(const std::vector<double>& weights, double* values,
                  int64_t row_begin, int64_t row_end) const;

  const std::vector<la::CsrMatrix>* views_;
  std::shared_ptr<const UnionPattern> pattern_;
  std::vector<int64_t> changed_rows_;        ///< vs `previous`, ascending
  la::CsrMatrix aggregate_;                  ///< Aggregate()'s output
  std::vector<int64_t> boundaries_;          ///< row partition
};

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_AGGREGATOR_H_
