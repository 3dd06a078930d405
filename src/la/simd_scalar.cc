// Scalar kernel path: the exact loop bodies the pre-dispatch tree ran,
// compiled with the default target flags (no -m options, no FMA on baseline
// x86-64), so SGLA_ISA=scalar reproduces the historical bits everywhere.
// This TU is the reference implementation every vector path is tested
// against; keep it boring.

#include <cstdint>

#include "la/simd_table.h"

namespace sgla {
namespace la {
namespace simd {
namespace {

double ScalarDot(const double* x, const double* y, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

double ScalarSquaredDistance(const double* x, const double* y, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    sum += d * d;
  }
  return sum;
}

void ScalarAxpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarScale(double alpha, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ScalarSigmaSub(double sigma, const double* v, double* w, int64_t n) {
  for (int64_t i = 0; i < n; ++i) w[i] = sigma * v[i] - w[i];
}

void ScalarScatterAxpy(double w, const double* values, const int64_t* map,
                       int64_t nnz, double* out) {
  for (int64_t p = 0; p < nnz; ++p) out[map[p]] += w * values[p];
}

void ScalarSpmvRows(const int64_t* row_ptr, const int64_t* col_idx,
                    const double* values, const double* x, double* y,
                    int64_t row_begin, int64_t row_end) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    double sum = 0.0;
    const int64_t end = row_ptr[r + 1];
    for (int64_t p = row_ptr[r]; p < end; ++p) {
      sum += values[p] * x[col_idx[p]];
    }
    y[r - row_begin] = sum;
  }
}

void ScalarSellSpmv(const int64_t* slice_ptr, const int32_t* col_idx,
                    const double* values, const int64_t* row_len,
                    const int64_t* perm, const double* x, double* y,
                    int64_t slice_begin, int64_t slice_end) {
  // Per lane, iterate only the row's real entries (row_len, not the padded
  // slice width) in CSR order: the multiply-add chain — and therefore every
  // bit of y — matches the plain CSR row loop above exactly.
  for (int64_t s = slice_begin; s < slice_end; ++s) {
    const int64_t base = slice_ptr[s] * 8;
    for (int64_t lane = 0; lane < 8; ++lane) {
      const int64_t slot = s * 8 + lane;
      const int64_t row = perm[slot];
      if (row < 0) continue;  // ghost lane in the final ragged slice
      double sum = 0.0;
      const int64_t len = row_len[slot];
      for (int64_t j = 0; j < len; ++j) {
        const int64_t at = base + j * 8 + lane;
        sum += values[at] * x[col_idx[at]];
      }
      y[row] = sum;
    }
  }
}

void ScalarNearestCenter(const double* point, const double* centers,
                         int64_t k, int64_t d, double* best_d2,
                         int64_t* best_c) {
  double best = *best_d2;
  int64_t best_index = *best_c;
  for (int64_t c = 0; c < k; ++c) {
    const double d2 = ScalarSquaredDistance(point, centers + c * d, d);
    if (d2 < best) {
      best = d2;
      best_index = c;
    }
  }
  *best_d2 = best;
  *best_c = best_index;
}

constexpr KernelTable kScalarTable = {
    &ScalarDot,        &ScalarSquaredDistance, &ScalarAxpy,
    &ScalarScale,      &ScalarSigmaSub,        &ScalarScatterAxpy,
    &ScalarSpmvRows,   &ScalarSellSpmv,        &ScalarNearestCenter,
};

}  // namespace

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace simd
}  // namespace la
}  // namespace sgla
