#include "la/sparse.h"

#include <algorithm>
#include <numeric>

#include "la/simd.h"
#include "util/logging.h"
#include "util/sharding.h"
#include "util/thread_pool.h"

namespace sgla {
namespace la {

// The σ window must coincide with the shard alignment so no SELL slice ever
// crosses a shard boundary (see SellMatrix).
static_assert(kSellSortWindow == util::kShardAlign,
              "SELL sort window must equal the shard alignment");
static_assert(kSellSortWindow % kSellLanes == 0,
              "slices must tile the sort window exactly");

namespace {

// Rows per chunk for the row-parallel kernels. Every row is produced by
// exactly one chunk with the same inner loop as the serial code, so results
// are bit-identical to a serial run at any thread count.
constexpr int64_t kSpmvGrain = 512;
constexpr int64_t kSpmvDenseGrain = 128;
constexpr int64_t kMergeGrain = 512;
// Slices per chunk of the SELL kernel: 64 slices x 8 lanes = the same 512
// rows per chunk as kSpmvGrain.
constexpr int64_t kSellSliceGrain = kSpmvGrain / kSellLanes;

/// Row-wise k-way merge of the views' sorted column lists over rows
/// [lo, hi): calls emit(row, col, sum of weights[v] * value_v) for every
/// union slot, rows ascending, columns ascending within a row, summing view
/// contributions in ascending view order. The single source of the merge
/// semantics for all WeightedSum paths (serial append, parallel count,
/// parallel fill), which keeps them trivially identical.
template <typename Emit>
void MergeWeightedRows(const std::vector<const CsrMatrix*>& views,
                       const std::vector<double>& weights, int64_t lo,
                       int64_t hi, Emit&& emit) {
  std::vector<int64_t> cursor(views.size());
  for (int64_t r = lo; r < hi; ++r) {
    for (size_t v = 0; v < views.size(); ++v) {
      cursor[v] = views[v]->row_ptr[static_cast<size_t>(r)];
    }
    while (true) {
      int64_t next_col = INT64_MAX;
      for (size_t v = 0; v < views.size(); ++v) {
        if (cursor[v] < views[v]->row_ptr[static_cast<size_t>(r) + 1]) {
          next_col = std::min(
              next_col, views[v]->col_idx[static_cast<size_t>(cursor[v])]);
        }
      }
      if (next_col == INT64_MAX) break;
      double sum = 0.0;
      for (size_t v = 0; v < views.size(); ++v) {
        int64_t& p = cursor[v];
        if (p < views[v]->row_ptr[static_cast<size_t>(r) + 1] &&
            views[v]->col_idx[static_cast<size_t>(p)] == next_col) {
          sum += weights[v] * views[v]->values[static_cast<size_t>(p)];
          ++p;
        }
      }
      emit(r, next_col, sum);
    }
  }
}

}  // namespace

CsrMatrix FromTriplets(int64_t rows, int64_t cols,
                       std::vector<Triplet> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  size_t i = 0;
  while (i < entries.size()) {
    const int64_t r = entries[i].row;
    const int64_t c = entries[i].col;
    SGLA_CHECK(r >= 0 && r < rows && c >= 0 && c < cols)
        << "triplet out of range: (" << r << "," << c << ")";
    double sum = 0.0;
    while (i < entries.size() && entries[i].row == r && entries[i].col == c) {
      sum += entries[i].value;
      ++i;
    }
    m.col_idx.push_back(c);
    m.values.push_back(sum);
    ++m.row_ptr[static_cast<size_t>(r) + 1];
  }
  for (int64_t r = 0; r < rows; ++r) {
    m.row_ptr[static_cast<size_t>(r) + 1] += m.row_ptr[static_cast<size_t>(r)];
  }
  return m;
}

void Spmv(const CsrMatrix& m, const double* x, double* y) {
  SpmvRows(m, x, y, 0, m.rows);
}

void SpmvRows(const CsrMatrix& m, const double* x, double* y,
              int64_t row_begin, int64_t row_end) {
  SGLA_CHECK(row_begin >= 0 && row_begin <= row_end && row_end <= m.rows)
      << "SpmvRows range out of bounds";
  // Each chunk hands its row range to the active ISA's row kernel; every
  // row's dot product is self-contained, so any row partition — threads,
  // shards, or both — reproduces the same bits within one ISA path.
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      row_begin, row_end, kSpmvGrain,
      [&m, x, y, table](int64_t lo, int64_t hi) {
        table->spmv_rows(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                         x, y + lo, lo, hi);
      });
}

void BuildSellPattern(const CsrMatrix& m, SellMatrix* out,
                      const SellMatrix* previous,
                      const std::vector<uint8_t>* changed_rows) {
  out->rows = m.rows;
  out->cols = m.cols;
  const int64_t num_slices = (m.rows + kSellLanes - 1) / kSellLanes;
  const int64_t num_slots = num_slices * kSellLanes;
  const auto nnz_of = [&m](int64_t r) {
    return m.row_ptr[static_cast<size_t>(r) + 1] -
           m.row_ptr[static_cast<size_t>(r)];
  };
  if (previous != nullptr) {
    SGLA_CHECK(previous->rows == m.rows && changed_rows != nullptr &&
               changed_rows->size() == static_cast<size_t>(m.rows))
        << "SELL reuse needs the earlier pattern of a same-size CSR";
  }
  const auto window_changed = [changed_rows](int64_t lo, int64_t hi) {
    return std::any_of(changed_rows->begin() + lo, changed_rows->begin() + hi,
                       [](uint8_t flag) { return flag != 0; });
  };

  // Row permutation: descending nnz within each σ window, ascending row
  // index among equals, windows in natural order. The index tie-break makes
  // plain std::sort (in-place, no temporary buffer) produce exactly the
  // stable order. Shard boundaries are multiples of the window size, so a
  // shard slice's permutation is the matching sub-range of the full one. A
  // window whose rows all kept their lengths sorts the same way, so it
  // copies the earlier order.
  out->perm.resize(static_cast<size_t>(num_slots));
  std::fill(out->perm.begin() + m.rows, out->perm.end(), int64_t{-1});
  for (int64_t lo = 0; lo < m.rows; lo += kSellSortWindow) {
    const int64_t hi = std::min(m.rows, lo + kSellSortWindow);
    if (previous != nullptr && !window_changed(lo, hi)) {
      std::copy(previous->perm.begin() + lo, previous->perm.begin() + hi,
                out->perm.begin() + lo);
      continue;
    }
    std::iota(out->perm.begin() + lo, out->perm.begin() + hi, lo);
    std::sort(out->perm.begin() + lo, out->perm.begin() + hi,
              [&nnz_of](int64_t a, int64_t b) {
                const int64_t na = nnz_of(a);
                const int64_t nb = nnz_of(b);
                return na != nb ? na > nb : a < b;
              });
  }

  // A slice is reused when it holds the same rows in the same lanes as the
  // earlier form and none of them changed: its row lengths, width and
  // lane-minor column block are then the earlier ones.
  std::vector<uint8_t> reused(static_cast<size_t>(num_slices), 0);
  out->row_len.assign(static_cast<size_t>(num_slots), 0);
  out->slice_ptr.assign(static_cast<size_t>(num_slices) + 1, 0);
  for (int64_t s = 0; s < num_slices; ++s) {
    const size_t first = static_cast<size_t>(s * kSellLanes);
    bool same = previous != nullptr;
    for (int64_t l = 0; same && l < kSellLanes; ++l) {
      const int64_t row = out->perm[first + static_cast<size_t>(l)];
      same = row == previous->perm[first + static_cast<size_t>(l)] &&
             (row < 0 || (*changed_rows)[static_cast<size_t>(row)] == 0);
    }
    reused[static_cast<size_t>(s)] = same ? 1 : 0;
    int64_t width = 0;
    for (int64_t l = 0; l < kSellLanes; ++l) {
      const size_t slot = first + static_cast<size_t>(l);
      const int64_t row = out->perm[slot];
      if (row < 0) continue;  // ghost lane in the final slice
      const int64_t len = nnz_of(row);
      out->row_len[slot] = len;
      width = std::max(width, len);
    }
    out->slice_ptr[static_cast<size_t>(s) + 1] =
        out->slice_ptr[static_cast<size_t>(s)] + width;
  }

  const int64_t padded =
      out->slice_ptr[static_cast<size_t>(num_slices)] * kSellLanes;
  SGLA_CHECK(padded <= INT32_MAX && m.cols <= INT32_MAX)
      << "SELL form exceeds 32-bit indices (" << padded << " slots)";
  out->col_idx.assign(static_cast<size_t>(padded), 0);
  out->value_slot.resize(static_cast<size_t>(m.nnz()));
  for (int64_t s = 0; s < num_slices; ++s) {
    const int64_t base = out->slice_ptr[static_cast<size_t>(s)] * kSellLanes;
    if (reused[static_cast<size_t>(s)] != 0) {
      const int64_t prev_base =
          previous->slice_ptr[static_cast<size_t>(s)] * kSellLanes;
      const int64_t span =
          out->slice_ptr[static_cast<size_t>(s) + 1] * kSellLanes - base;
      std::copy(previous->col_idx.begin() + prev_base,
                previous->col_idx.begin() + prev_base + span,
                out->col_idx.begin() + base);
    }
    for (int64_t l = 0; l < kSellLanes; ++l) {
      const int64_t slot = s * kSellLanes + l;
      const int64_t row = out->perm[static_cast<size_t>(slot)];
      if (row < 0) continue;
      const int64_t start = m.row_ptr[static_cast<size_t>(row)];
      const int64_t len = out->row_len[static_cast<size_t>(slot)];
      int32_t* slots = out->value_slot.data() + start;
      for (int64_t j = 0; j < len; ++j) {
        slots[j] = static_cast<int32_t>(base + j * kSellLanes + l);
      }
      if (reused[static_cast<size_t>(s)] != 0) continue;
      const int64_t* cols = m.col_idx.data() + start;
      for (int64_t j = 0; j < len; ++j) {
        out->col_idx[static_cast<size_t>(base + j * kSellLanes + l)] =
            static_cast<int32_t>(cols[j]);
      }
    }
  }

  out->values.clear();
  if (m.values.size() == static_cast<size_t>(m.nnz())) {
    out->values.assign(static_cast<size_t>(padded), 0.0);
    FillSellValues(m.values, out);
  }
}

void FillSellValues(const std::vector<double>& csr_values, SellMatrix* out) {
  FillSellValues(csr_values, out, 0, static_cast<int64_t>(csr_values.size()));
}

void FillSellValues(const std::vector<double>& csr_values, SellMatrix* out,
                    int64_t entry_begin, int64_t entry_end) {
  SGLA_CHECK(csr_values.size() == out->value_slot.size())
      << "FillSellValues nnz mismatch (pattern not built for this CSR?)";
  for (int64_t p = entry_begin; p < entry_end; ++p) {
    out->values[static_cast<size_t>(out->value_slot[static_cast<size_t>(p)])] =
        csr_values[static_cast<size_t>(p)];
  }
}

void SellSpmv(const SellMatrix& m, const double* x, double* y) {
  SellSpmvRows(m, x, y, 0, m.rows);
}

void SellSpmvRows(const SellMatrix& m, const double* x, double* y,
                  int64_t row_begin, int64_t row_end) {
  SGLA_CHECK(row_begin >= 0 && row_begin <= row_end && row_end <= m.rows &&
             row_begin % kSellSortWindow == 0 &&
             (row_end % kSellSortWindow == 0 || row_end == m.rows))
      << "SellSpmvRows range must cover whole sort windows";
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      row_begin / kSellLanes, (row_end + kSellLanes - 1) / kSellLanes,
      kSellSliceGrain, [&m, x, y, table](int64_t lo, int64_t hi) {
        table->sell_spmv(m.slice_ptr.data(), m.col_idx.data(),
                         m.values.data(), m.row_len.data(), m.perm.data(), x,
                         y, lo, hi);
      });
}

void SpmvDense(const CsrMatrix& m, const DenseMatrix& x, DenseMatrix* y) {
  SGLA_CHECK(m.cols == x.rows()) << "SpmvDense shape mismatch";
  if (y->rows() != m.rows || y->cols() != x.cols()) {
    *y = DenseMatrix(m.rows, x.cols());
  }
  const int64_t d = x.cols();
  util::ThreadPool::Global().ParallelFor(
      0, m.rows, kSpmvDenseGrain, [&m, &x, y, d](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          double* out = y->Row(r);
          std::fill(out, out + d, 0.0);
          const int64_t end = m.row_ptr[static_cast<size_t>(r) + 1];
          for (int64_t p = m.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
            const double v = m.values[static_cast<size_t>(p)];
            const double* in = x.Row(m.col_idx[static_cast<size_t>(p)]);
            for (int64_t j = 0; j < d; ++j) out[j] += v * in[j];
          }
        }
      });
}

CsrMatrix WeightedSum(const std::vector<const CsrMatrix*>& views,
                      const std::vector<double>& weights) {
  SGLA_CHECK(!views.empty()) << "WeightedSum of zero views";
  SGLA_CHECK(views.size() == weights.size()) << "views/weights size mismatch";
  const int64_t rows = views[0]->rows;
  const int64_t cols = views[0]->cols;
  for (const CsrMatrix* v : views) {
    SGLA_CHECK(v->rows == rows && v->cols == cols)
        << "WeightedSum shape mismatch";
  }

  CsrMatrix out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  util::ThreadPool& pool = util::ThreadPool::Global();

  // Serial path: single-pass merge with append (cheaper than the counting
  // pass below when no one can run it in parallel anyway). Produces exactly
  // the same CSR as the two-pass parallel path.
  if (pool.num_threads() == 1 || util::ThreadPool::InParallelRegion() ||
      util::ThreadPool::NumChunks(0, rows, kMergeGrain) == 1) {
    MergeWeightedRows(views, weights, 0, rows,
                      [&out](int64_t r, int64_t col, double sum) {
                        out.col_idx.push_back(col);
                        out.values.push_back(sum);
                        out.row_ptr[static_cast<size_t>(r) + 1] =
                            static_cast<int64_t>(out.col_idx.size());
                      });
    // Rows with no union slots never emitted; carry the running size across.
    for (int64_t r = 0; r < rows; ++r) {
      out.row_ptr[static_cast<size_t>(r) + 1] =
          std::max(out.row_ptr[static_cast<size_t>(r) + 1],
                   out.row_ptr[static_cast<size_t>(r)]);
    }
    return out;
  }

  // Pass 1: union nnz per row (each row belongs to exactly one chunk).
  pool.ParallelFor(0, rows, kMergeGrain, [&](int64_t lo, int64_t hi) {
    MergeWeightedRows(views, weights, lo, hi,
                      [&out](int64_t r, int64_t, double) {
                        ++out.row_ptr[static_cast<size_t>(r) + 1];
                      });
  });
  for (int64_t r = 0; r < rows; ++r) {
    out.row_ptr[static_cast<size_t>(r) + 1] +=
        out.row_ptr[static_cast<size_t>(r)];
  }
  out.col_idx.resize(static_cast<size_t>(out.row_ptr[static_cast<size_t>(rows)]));
  out.values.resize(out.col_idx.size());

  // Pass 2: the same merge again, writing each row's output slice in place.
  pool.ParallelFor(0, rows, kMergeGrain, [&](int64_t lo, int64_t hi) {
    // Slots for rows [lo, hi) are contiguous and emitted exactly once in
    // ascending (row, col) order, so one running index covers the chunk.
    int64_t slot = out.row_ptr[static_cast<size_t>(lo)];
    MergeWeightedRows(views, weights, lo, hi,
                      [&out, &slot](int64_t, int64_t col, double sum) {
                        out.col_idx[static_cast<size_t>(slot)] = col;
                        out.values[static_cast<size_t>(slot)] = sum;
                        ++slot;
                      });
  });
  return out;
}

CsrMatrix SymmetricSubmatrix(const CsrMatrix& m,
                             const std::vector<int64_t>& keep) {
  std::vector<int64_t> position(static_cast<size_t>(m.cols), -1);
  for (size_t i = 0; i < keep.size(); ++i) {
    position[static_cast<size_t>(keep[i])] = static_cast<int64_t>(i);
  }
  CsrMatrix out;
  out.rows = static_cast<int64_t>(keep.size());
  out.cols = static_cast<int64_t>(keep.size());
  out.row_ptr.assign(keep.size() + 1, 0);
  for (size_t i = 0; i < keep.size(); ++i) {
    const int64_t r = keep[i];
    const int64_t end = m.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = m.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      const int64_t c = position[static_cast<size_t>(
          m.col_idx[static_cast<size_t>(p)])];
      if (c < 0) continue;
      out.col_idx.push_back(c);
      out.values.push_back(m.values[static_cast<size_t>(p)]);
    }
    out.row_ptr[i + 1] = static_cast<int64_t>(out.col_idx.size());
  }
  return out;
}

DenseMatrix ToDense(const CsrMatrix& m) {
  DenseMatrix out(m.rows, m.cols);
  for (int64_t r = 0; r < m.rows; ++r) {
    const int64_t end = m.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = m.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      out(r, m.col_idx[static_cast<size_t>(p)]) +=
          m.values[static_cast<size_t>(p)];
    }
  }
  return out;
}

}  // namespace la
}  // namespace sgla
