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

/// Row-wise k-way merge of the views' sorted column lists into a union
/// pattern under construction: Merge(r) appends row r's union columns,
/// columns ascending, and records for every view entry of the row the union
/// slot it lands in. Each view's cursor keeps its current column as `head`
/// (INT64_MAX once the row is exhausted), so a step is one min over the
/// heads plus one compare per view.
class RowMerger {
 public:
  RowMerger(const std::vector<la::CsrMatrix>& views, UnionPattern* out)
      : cursors_(views.size()), out_(out) {
    for (size_t v = 0; v < views.size(); ++v) {
      cursors_[v].row_ptr = views[v].row_ptr.data();
      cursors_[v].col_idx = views[v].col_idx.data();
      cursors_[v].scatter = out->scatter[v].data();
    }
  }

  void Merge(int64_t r) {
    for (Cursor& c : cursors_) {
      c.pos = c.row_ptr[r];
      c.end = c.row_ptr[r + 1];
      c.head = c.pos < c.end ? c.col_idx[c.pos] : INT64_MAX;
    }
    std::vector<int64_t>& col_idx = out_->csr.col_idx;
    while (true) {
      int64_t next_col = INT64_MAX;
      for (const Cursor& c : cursors_) next_col = std::min(next_col, c.head);
      if (next_col == INT64_MAX) break;
      const int64_t slot = static_cast<int64_t>(col_idx.size());
      for (Cursor& c : cursors_) {
        if (c.head != next_col) continue;
        c.scatter[c.pos] = slot;
        ++c.pos;
        c.head = c.pos < c.end ? c.col_idx[c.pos] : INT64_MAX;
      }
      col_idx.push_back(next_col);
    }
  }

 private:
  struct Cursor {
    const int64_t* row_ptr;
    const int64_t* col_idx;
    int64_t* scatter;
    int64_t pos;
    int64_t end;
    int64_t head;
  };
  std::vector<Cursor> cursors_;
  UnionPattern* out_;
};

/// Flags the rows of `views` whose column list differs from `was` (the
/// same views one version earlier) in some view.
void DiffRowPatterns(const std::vector<la::CsrMatrix>& views,
                     const std::vector<la::CsrMatrix>& was,
                     std::vector<uint8_t>* changed) {
  for (size_t v = 0; v < views.size(); ++v) {
    const la::CsrMatrix& now = views[v];
    const la::CsrMatrix& then = was[v];
    if (now.row_ptr == then.row_ptr && now.col_idx == then.col_idx) continue;
    for (int64_t r = 0; r < now.rows; ++r) {
      const size_t i = static_cast<size_t>(r);
      if ((*changed)[i] != 0) continue;
      const int64_t len = now.row_ptr[i + 1] - now.row_ptr[i];
      (*changed)[i] =
          len != then.row_ptr[i + 1] - then.row_ptr[i] ||
          !std::equal(now.col_idx.begin() + now.row_ptr[i],
                      now.col_idx.begin() + now.row_ptr[i + 1],
                      then.col_idx.begin() + then.row_ptr[i]);
    }
  }
}

/// The union pattern of `views`: rows flagged in `changed` (all of them
/// without `previous`) run the k-way merge; every maximal run of unflagged
/// rows copies previous's union columns and shifts previous's scatter
/// entries by the run's offset change. Unflagged rows hold the same
/// columns in every view, so their union rows and scatter targets are
/// previous's up to that offset, and the result is the bytes a full merge
/// produces.
std::shared_ptr<const UnionPattern> BuildUnionPattern(
    const std::vector<la::CsrMatrix>& views,
    const LaplacianAggregator* previous, const std::vector<uint8_t>& changed) {
  auto pattern = std::make_shared<UnionPattern>();
  pattern->id = NextPatternId();
  la::CsrMatrix& csr = pattern->csr;
  const size_t rows = static_cast<size_t>(views[0].rows);
  csr.rows = views[0].rows;
  csr.cols = views[0].cols;
  csr.row_ptr.assign(rows + 1, 0);
  pattern->scatter.resize(views.size());
  int64_t largest = 0;  // the union holds at least every view's entries
  for (size_t v = 0; v < views.size(); ++v) {
    pattern->scatter[v].resize(static_cast<size_t>(views[v].nnz()));
    largest = std::max(largest, views[v].nnz());
  }
  csr.col_idx.reserve(static_cast<size_t>(
      previous != nullptr ? std::max(largest, previous->pattern().nnz())
                          : largest));
  RowMerger merger(views, pattern.get());
  for (size_t r = 0; r < rows;) {
    if (changed[r] != 0) {
      merger.Merge(static_cast<int64_t>(r));
      csr.row_ptr[++r] = csr.nnz();
      continue;
    }
    size_t end = r + 1;
    while (end < rows && changed[end] == 0) ++end;
    const UnionPattern& was = *previous->union_pattern();
    const int64_t shift = csr.nnz() - was.csr.row_ptr[r];
    csr.col_idx.insert(csr.col_idx.end(),
                       was.csr.col_idx.begin() + was.csr.row_ptr[r],
                       was.csr.col_idx.begin() + was.csr.row_ptr[end]);
    for (size_t i = r + 1; i <= end; ++i) {
      csr.row_ptr[i] = was.csr.row_ptr[i] + shift;
    }
    for (size_t v = 0; v < views.size(); ++v) {
      const std::vector<int64_t>& now_ptr = views[v].row_ptr;
      const int64_t* from =
          was.scatter[v].data() + previous->views()[v].row_ptr[r];
      int64_t* to = pattern->scatter[v].data() + now_ptr[r];
      const int64_t count = now_ptr[end] - now_ptr[r];
      for (int64_t p = 0; p < count; ++p) to[p] = from[p] + shift;
    }
    r = end;
  }
  // The SELL companion of the union pattern, built once per pattern like
  // the scatter maps; Evaluate refreshes the values of a bound copy in
  // place per weight vector (see AggregateValuesInto), so the eigensolve's
  // SpMV runs the blocked layout without per-evaluation pattern work.
  la::BuildSellPattern(
      csr, &pattern->sell,
      previous != nullptr ? &previous->union_pattern()->sell : nullptr,
      &changed);
  return pattern;
}

}  // namespace

LaplacianAggregator::LaplacianAggregator(
    const std::vector<la::CsrMatrix>* views, std::vector<int64_t> boundaries,
    const LaplacianAggregator* previous)
    : views_(views), boundaries_(std::move(boundaries)) {
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

  if (previous == nullptr) {
    pattern_ = BuildUnionPattern(
        *views, nullptr, std::vector<uint8_t>(static_cast<size_t>(rows), 1));
    return;
  }
  SGLA_CHECK(previous->views_->size() == views->size() &&
             previous->pattern().rows == rows &&
             previous->pattern().cols == cols)
      << "previous aggregator has a different view count or shape";
  std::vector<uint8_t> changed(static_cast<size_t>(rows), 0);
  DiffRowPatterns(*views, *previous->views_, &changed);
  for (int64_t r = 0; r < rows; ++r) {
    if (changed[static_cast<size_t>(r)] != 0) changed_rows_.push_back(r);
  }
  pattern_ = changed_rows_.empty()
                 ? previous->pattern_
                 : BuildUnionPattern(*views, previous, changed);
}

util::ShardContext LaplacianAggregator::context() const {
  util::ShardContext ctx;
  ctx.boundaries = boundaries_.data();
  ctx.num_shards = num_shards();
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
  const UnionPattern& pattern = *pattern_;
  util::ThreadPool::Global().ParallelFor(
      row_begin, row_end, kRowGrain,
      [&, values, table](int64_t lo, int64_t hi) {
        std::fill(values + pattern.csr.row_ptr[static_cast<size_t>(lo)],
                  values + pattern.csr.row_ptr[static_cast<size_t>(hi)], 0.0);
        for (size_t v = 0; v < views_->size(); ++v) {
          const double w = weights[v];
          if (w == 0.0) continue;
          const la::CsrMatrix& view = (*views_)[v];
          const std::vector<int64_t>& map = pattern.scatter[v];
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
  // The output buffer is bound on first use: aggregators that only serve
  // AggregateValuesInto never allocate it.
  if (aggregate_.row_ptr.empty()) BindPattern(&aggregate_);
  AggregateValuesInto(weights, &aggregate_);
  return aggregate_;
}

void LaplacianAggregator::BindPattern(la::CsrMatrix* out) const {
  const la::CsrMatrix& csr = pattern_->csr;
  out->rows = csr.rows;
  out->cols = csr.cols;
  out->row_ptr = csr.row_ptr;  // assign-reuses out's capacity
  out->col_idx = csr.col_idx;
  out->values.assign(csr.col_idx.size(), 0.0);
}

void LaplacianAggregator::BindSellPattern(la::SellMatrix* out) const {
  // Vector copy-assignment reuses out's capacity, so rebinding a workspace
  // of sufficient size stays allocation-free, like BindPattern.
  const la::SellMatrix& sell = pattern_->sell;
  out->rows = sell.rows;
  out->cols = sell.cols;
  out->slice_ptr = sell.slice_ptr;
  out->col_idx = sell.col_idx;
  out->row_len = sell.row_len;
  out->perm = sell.perm;
  out->value_slot = sell.value_slot;
  out->values.assign(sell.col_idx.size(), 0.0);  // padding stays 0.0
}

void LaplacianAggregator::AggregateValuesInto(
    const std::vector<double>& weights, la::CsrMatrix* out,
    la::SellMatrix* sell) const {
  const la::CsrMatrix& csr = pattern_->csr;
  SGLA_CHECK(weights.size() == views_->size())
      << "Aggregate weight count mismatch";
  SGLA_CHECK(out->rows == csr.rows &&
             out->values.size() == csr.col_idx.size())
      << "AggregateValuesInto on an unbound output buffer";
  SGLA_CHECK(sell == nullptr ||
             (sell->value_slot.size() == csr.col_idx.size() &&
              sell->values.size() == sell->col_idx.size()))
      << "AggregateValuesInto on an unbound SELL buffer";
  context().Run([this, &csr, &weights, out, sell](int, int64_t lo,
                                                  int64_t hi) {
    FillValues(weights, out->values.data(), lo, hi);
    if (sell != nullptr) {
      // A pure permutation of the shard's freshly filled entries; sort
      // windows never straddle a shard, so shards touch disjoint slots.
      la::FillSellValues(out->values, sell,
                         csr.row_ptr[static_cast<size_t>(lo)],
                         csr.row_ptr[static_cast<size_t>(hi)]);
    }
  });
}

}  // namespace core
}  // namespace sgla
