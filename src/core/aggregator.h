#ifndef SGLA_CORE_AGGREGATOR_H_
#define SGLA_CORE_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "la/sparse.h"
#include "util/sharding.h"
#include "util/task_queue.h"

namespace sgla {
namespace core {

/// Computes L_w = sum_i w_i L_i repeatedly for changing weights without
/// rebuilding the union sparsity pattern each time: the pattern and each
/// view's scatter map into it are precomputed once, so Aggregate() is a pure
/// fused-multiply pass over the union nnz. This is the hot inner loop of the
/// SGLA weight search (see DESIGN.md, "aggregator reuse").
///
/// The aggregator also owns the graph's row partition (DESIGN.md,
/// "Sharding"): one shard by default, or K contiguous shards whose interior
/// boundaries are multiples of util::kShardAlign. Value fills, SELL refreshes
/// and the objective's SpMV then run one TaskQueue job per shard over that
/// shard's rows of the one full pattern (see util::ShardContext). Every
/// kernel involved writes each row independently, so the bits do not depend
/// on the shard count or the thread count.
///
/// The pattern is immutable after construction, so any number of threads may
/// call the const AggregateValuesInto() form concurrently, each with its own
/// output buffer — this is how the engine layer serves concurrent solves on
/// one registered graph. The legacy Aggregate() writes into an internal
/// buffer and therefore needs external serialization.
class LaplacianAggregator {
 public:
  /// `views` must outlive the aggregator. All views share one shape.
  /// `boundaries` holds num_shards + 1 ascending row offsets —
  /// boundaries[0] == 0, boundaries.back() == rows, every interior boundary
  /// a multiple of util::kShardAlign (serve::MakeShardPlan produces
  /// conforming plans); empty means one shard. `queue` runs the jobs of a
  /// multi-shard partition; null runs them serially on the caller, same
  /// bits.
  explicit LaplacianAggregator(
      const std::vector<la::CsrMatrix>* views,
      std::vector<int64_t> boundaries = {},
      std::shared_ptr<util::TaskQueue> queue = nullptr);

  /// Pattern-donor form for value-only graph updates: every view of `views`
  /// must have exactly the sparsity pattern of the matching donor view
  /// (checked), and the new aggregator copies the donor's union pattern,
  /// scatter maps, row partition AND pattern_id instead of re-running the
  /// k-way merge. Keeping the donor's pattern_id is the point — workspaces
  /// stamped with it skip rebinding, so a value-only epoch swap costs zero
  /// pattern work on the solve hot path.
  LaplacianAggregator(const std::vector<la::CsrMatrix>* views,
                      const LaplacianAggregator& donor);

  int num_views() const { return static_cast<int>(views_->size()); }
  const std::vector<la::CsrMatrix>& views() const { return *views_; }

  /// Process-unique id of this aggregator's pattern. Workspaces stamp their
  /// output CSR with it so a buffer last filled from a *different* aggregator
  /// is re-bound instead of trusted (engine workers hop between graphs).
  uint64_t pattern_id() const { return pattern_id_; }

  int num_shards() const { return static_cast<int>(boundaries_.size()) - 1; }
  const std::vector<int64_t>& boundaries() const { return boundaries_; }
  /// The row partition + queue, for kernels outside the aggregator that
  /// reuse the same shards (the objective's SpMV, clustering on the final
  /// Laplacian). Valid while the aggregator lives.
  util::ShardContext context() const;

  /// Returns the aggregate for `weights` (size == num_views()). The reference
  /// stays valid until the next Aggregate() call on this object.
  const la::CsrMatrix& Aggregate(const std::vector<double>& weights);

  /// The union-pattern CSR. row_ptr/col_idx are immutable after
  /// construction; values hold whatever the last Aggregate() call wrote.
  const la::CsrMatrix& pattern() const { return aggregate_; }

  /// Copies the union pattern into `out` (shape, row_ptr, col_idx) and sizes
  /// out->values; values content is unspecified. Reuses out's buffers.
  void BindPattern(la::CsrMatrix* out) const;

  /// Copies the SELL-C-σ form of the union pattern (see la::SellMatrix),
  /// materialized once at construction, into `out`. Reuses out's buffers,
  /// so rebinding a sufficiently large workspace is allocation-free.
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
  la::CsrMatrix aggregate_;                      ///< union pattern, reused
  la::SellMatrix sell_;                          ///< SELL form of the pattern
  std::vector<std::vector<int64_t>> scatter_;    ///< view nnz -> union nnz
  std::vector<int64_t> boundaries_;              ///< row partition
  std::shared_ptr<util::TaskQueue> queue_;       ///< shard jobs (K > 1)
  uint64_t pattern_id_ = 0;
};

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_AGGREGATOR_H_
