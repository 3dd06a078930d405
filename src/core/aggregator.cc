#include "core/aggregator.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "la/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace core {
namespace {

uint64_t NextPatternId() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

/// Row-wise k-way merge of the views' sorted column lists, rows ascending
/// and columns ascending within a row. For every union slot it calls
/// hit(v, p) for each view entry p in that column, in ascending view order,
/// then emit(row, col). Each view's cursor keeps its current column as
/// `head` (INT64_MAX once the row is exhausted), so a step is one min over
/// the heads plus one compare per view.
template <typename Hit, typename Emit>
void MergeRows(const std::vector<la::CsrMatrix>& views, Hit&& hit,
               Emit&& emit) {
  struct Cursor {
    const int64_t* row_ptr;
    const int64_t* col_idx;
    int64_t pos;
    int64_t end;
    int64_t head;
  };
  std::vector<Cursor> cursors(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    cursors[v].row_ptr = views[v].row_ptr.data();
    cursors[v].col_idx = views[v].col_idx.data();
  }
  for (int64_t r = 0; r < views[0].rows; ++r) {
    for (Cursor& c : cursors) {
      c.pos = c.row_ptr[r];
      c.end = c.row_ptr[r + 1];
      c.head = c.pos < c.end ? c.col_idx[c.pos] : INT64_MAX;
    }
    while (true) {
      int64_t next_col = INT64_MAX;
      for (const Cursor& c : cursors) next_col = std::min(next_col, c.head);
      if (next_col == INT64_MAX) break;
      for (size_t v = 0; v < cursors.size(); ++v) {
        Cursor& c = cursors[v];
        if (c.head != next_col) continue;
        hit(v, c.pos);
        ++c.pos;
        c.head = c.pos < c.end ? c.col_idx[c.pos] : INT64_MAX;
      }
      emit(r, next_col);
    }
  }
}

}  // namespace

LaplacianAggregator::LaplacianAggregator(
    const std::vector<la::CsrMatrix>* views, std::vector<int64_t> boundaries,
    std::shared_ptr<util::TaskQueue> queue)
    : views_(views),
      boundaries_(std::move(boundaries)),
      queue_(std::move(queue)),
      pattern_id_(NextPatternId()) {
  SGLA_CHECK(views != nullptr && !views->empty())
      << "LaplacianAggregator needs at least one view";
  const int64_t rows = (*views)[0].rows;
  const int64_t cols = (*views)[0].cols;
  for (const la::CsrMatrix& v : *views) {
    SGLA_CHECK(v.rows == rows && v.cols == cols)
        << "aggregator view shape mismatch";
  }
  if (boundaries_.empty()) boundaries_ = {0, rows};
  SGLA_CHECK(boundaries_.size() >= 2 && boundaries_.front() == 0 &&
             boundaries_.back() == rows)
      << "shard boundaries must run from row 0 to the row count";
  for (size_t s = 1; s + 1 < boundaries_.size(); ++s) {
    SGLA_CHECK(boundaries_[s - 1] < boundaries_[s] &&
               boundaries_[s] < boundaries_[s + 1])
        << "shard boundaries must be strictly ascending";
    SGLA_CHECK(boundaries_[s] % util::kShardAlign == 0)
        << "interior shard boundary " << boundaries_[s]
        << " is not a multiple of the chunk alignment " << util::kShardAlign;
  }

  // Build the union pattern with a row-wise k-way merge, recording for every
  // view the destination slot of each of its nonzeros.
  aggregate_.rows = rows;
  aggregate_.cols = cols;
  aggregate_.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  scatter_.assign(views->size(), {});
  for (size_t v = 0; v < views->size(); ++v) {
    scatter_[v].resize(static_cast<size_t>((*views)[v].nnz()));
  }
  MergeRows(
      *views,
      [this](size_t v, int64_t p) {
        scatter_[v][static_cast<size_t>(p)] =
            static_cast<int64_t>(aggregate_.col_idx.size());
      },
      [this](int64_t r, int64_t col) {
        aggregate_.col_idx.push_back(col);
        ++aggregate_.row_ptr[static_cast<size_t>(r) + 1];
      });
  for (int64_t r = 0; r < rows; ++r) {
    aggregate_.row_ptr[static_cast<size_t>(r) + 1] +=
        aggregate_.row_ptr[static_cast<size_t>(r)];
  }
  aggregate_.values.assign(aggregate_.col_idx.size(), 0.0);
  // The SELL companion of the union pattern, built once per pattern like
  // the scatter maps; Evaluate refreshes its values in place per weight
  // vector (see AggregateValuesInto), so the eigensolve's SpMV runs the
  // blocked layout without per-evaluation pattern work.
  la::BuildSellPattern(aggregate_, &sell_);
}

LaplacianAggregator::LaplacianAggregator(
    const std::vector<la::CsrMatrix>* views, const LaplacianAggregator& donor)
    : views_(views),
      aggregate_(donor.aggregate_),
      sell_(donor.sell_),
      scatter_(donor.scatter_),
      boundaries_(donor.boundaries_),
      queue_(donor.queue_),
      pattern_id_(donor.pattern_id_) {
  SGLA_CHECK(views != nullptr && views->size() == donor.views_->size())
      << "pattern-donor aggregator view count mismatch";
  for (size_t v = 0; v < views->size(); ++v) {
    const la::CsrMatrix& mine = (*views)[v];
    const la::CsrMatrix& theirs = (*donor.views_)[v];
    SGLA_CHECK(mine.rows == theirs.rows && mine.cols == theirs.cols &&
               mine.row_ptr == theirs.row_ptr && mine.col_idx == theirs.col_idx)
        << "pattern-donor aggregator: view " << v
        << " changed sparsity (value-only updates must keep every pattern)";
  }
}

util::ShardContext LaplacianAggregator::context() const {
  util::ShardContext ctx;
  ctx.boundaries = boundaries_.data();
  ctx.num_shards = num_shards();
  ctx.queue = queue_.get();
  return ctx;
}

void LaplacianAggregator::FillValues(const std::vector<double>& weights,
                                     double* values, int64_t row_begin,
                                     int64_t row_end) const {
  // Row-parallel over the union pattern: every union slot belongs to exactly
  // one row, and per slot the view contributions arrive in ascending view
  // order — the same per-slot summation order as the serial view-major loop,
  // so the result is bit-identical at any thread or shard count.
  constexpr int64_t kRowGrain = 512;
  const la::simd::KernelTable* table = la::simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      row_begin, row_end, kRowGrain,
      [&, values, table](int64_t lo, int64_t hi) {
        std::fill(values + aggregate_.row_ptr[static_cast<size_t>(lo)],
                  values + aggregate_.row_ptr[static_cast<size_t>(hi)], 0.0);
        for (size_t v = 0; v < views_->size(); ++v) {
          const double w = weights[v];
          if (w == 0.0) continue;
          const la::CsrMatrix& view = (*views_)[v];
          const std::vector<int64_t>& map = scatter_[v];
          const int64_t begin = view.row_ptr[static_cast<size_t>(lo)];
          const int64_t end = view.row_ptr[static_cast<size_t>(hi)];
          // scatter_axpy is element-wise (one rounded multiply + one
          // rounded add per slot in every ISA variant), so aggregation
          // values are bit-identical across all ISA paths.
          table->scatter_axpy(w, view.values.data() + begin,
                              map.data() + begin, end - begin, values);
        }
      });
}

const la::CsrMatrix& LaplacianAggregator::Aggregate(
    const std::vector<double>& weights) {
  AggregateValuesInto(weights, &aggregate_);
  return aggregate_;
}

void LaplacianAggregator::BindPattern(la::CsrMatrix* out) const {
  out->rows = aggregate_.rows;
  out->cols = aggregate_.cols;
  out->row_ptr = aggregate_.row_ptr;  // assign-reuses out's capacity
  out->col_idx = aggregate_.col_idx;
  out->values.assign(aggregate_.col_idx.size(), 0.0);
}

void LaplacianAggregator::BindSellPattern(la::SellMatrix* out) const {
  // Vector copy-assignment reuses out's capacity, so rebinding a workspace
  // of sufficient size stays allocation-free, like BindPattern.
  *out = sell_;
}

void LaplacianAggregator::AggregateValuesInto(
    const std::vector<double>& weights, la::CsrMatrix* out,
    la::SellMatrix* sell) const {
  SGLA_CHECK(weights.size() == views_->size())
      << "Aggregate weight count mismatch";
  SGLA_CHECK(out->rows == aggregate_.rows &&
             out->values.size() == aggregate_.values.size())
      << "AggregateValuesInto on an unbound output buffer";
  SGLA_CHECK(sell == nullptr ||
             sell->value_slot.size() == aggregate_.values.size())
      << "AggregateValuesInto on an unbound SELL buffer";
  context().Run([this, &weights, out, sell](int, int64_t lo, int64_t hi) {
    FillValues(weights, out->values.data(), lo, hi);
    if (sell != nullptr) {
      // A pure permutation of the shard's freshly filled entries; sort
      // windows never straddle a shard, so shards touch disjoint slots.
      la::FillSellValues(out->values, sell,
                         aggregate_.row_ptr[static_cast<size_t>(lo)],
                         aggregate_.row_ptr[static_cast<size_t>(hi)]);
    }
  });
}

}  // namespace core
}  // namespace sgla
