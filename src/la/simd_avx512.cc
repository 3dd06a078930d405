// AVX-512F kernel path. Same contract split as the AVX2 TU (see the header
// comment there): element-wise kernels round multiply and add separately
// (-ffp-contract=off keeps the compiler from fusing them), reductions use
// explicit FMA with a fixed lane layout, a hand-written fixed-order
// horizontal sum (_mm512_reduce_add_pd's association is the compiler's
// choice, so it is avoided), and a separate scalar remainder.

#include <immintrin.h>

#include <cstdint>

#include "la/simd_table.h"

namespace sgla {
namespace la {
namespace simd {
namespace {

inline double HorizontalSum(__m512d v) {
  alignas(64) double lane[8];
  _mm512_store_pd(lane, v);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

double Avx512Dot(const double* x, const double* y, int64_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 8),
                           _mm512_loadu_pd(y + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * y[i];
  return HorizontalSum(_mm512_add_pd(acc0, acc1)) + tail;
}

double Avx512SquaredDistance(const double* x, const double* y, int64_t n) {
  __m512d acc = _mm512_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return HorizontalSum(acc) + tail;
}

void Avx512Axpy(double alpha, const double* x, double* y, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d ax = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), ax));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx512Scale(double alpha, double* x, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void Avx512SigmaSub(double sigma, const double* v, double* w, int64_t n) {
  const __m512d vs = _mm512_set1_pd(sigma);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d sv = _mm512_mul_pd(vs, _mm512_loadu_pd(v + i));
    _mm512_storeu_pd(w + i, _mm512_sub_pd(sv, _mm512_loadu_pd(w + i)));
  }
  for (; i < n; ++i) w[i] = sigma * v[i] - w[i];
}

void Avx512ScatterAxpy(double w, const double* values, const int64_t* map,
                       int64_t nnz, double* out) {
  // The union-pattern map is strictly increasing, so an 8-wide
  // gather + scatter would be conflict-free — but scalar read-modify-writes
  // keep the kernel bit-identical to the scalar path (one rounded multiply,
  // one rounded add per slot) and the products still vectorize.
  const __m512d vw = _mm512_set1_pd(w);
  alignas(64) double product[8];
  int64_t p = 0;
  for (; p + 8 <= nnz; p += 8) {
    _mm512_store_pd(product,
                    _mm512_mul_pd(vw, _mm512_loadu_pd(values + p)));
    for (int64_t j = 0; j < 8; ++j) out[map[p + j]] += product[j];
  }
  for (; p < nnz; ++p) out[map[p]] += w * values[p];
}

void Avx512SpmvRows(const int64_t* row_ptr, const int64_t* col_idx,
                    const double* values, const double* x, double* y,
                    int64_t row_begin, int64_t row_end) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int64_t end = row_ptr[r + 1];
    int64_t p = row_ptr[r];
    // Two accumulators keep two gathers in flight (gather latency bounds
    // this loop); combined acc0 + acc1 then the fixed horizontal sum.
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (; p + 16 <= end; p += 16) {
      const __m512i idx0 = _mm512_loadu_si512(col_idx + p);
      const __m512i idx1 = _mm512_loadu_si512(col_idx + p + 8);
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(values + p),
                             _mm512_i64gather_pd(idx0, x, 8), acc0);
      acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(values + p + 8),
                             _mm512_i64gather_pd(idx1, x, 8), acc1);
    }
    for (; p + 8 <= end; p += 8) {
      const __m512i idx = _mm512_loadu_si512(col_idx + p);
      const __m512d vx = _mm512_i64gather_pd(idx, x, 8);
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(values + p), vx, acc0);
    }
    double tail = 0.0;
    for (; p < end; ++p) tail += values[p] * x[col_idx[p]];
    y[r - row_begin] = HorizontalSum(_mm512_add_pd(acc0, acc1)) + tail;
  }
}

void Avx512SellSpmv(const int64_t* slice_ptr, const int32_t* col_idx,
                    const double* values, const int64_t* row_len,
                    const int64_t* perm, const double* x, double* y,
                    int64_t slice_begin, int64_t slice_end) {
  // One 8-wide register covers a whole SELL-C-8 slice; each lane's FMA
  // chain runs in slot order j = 0..width-1, padding included (value 0.0
  // leaves the chain's bits unchanged).
  for (int64_t s = slice_begin; s < slice_end; ++s) {
    const int64_t begin = slice_ptr[s];
    const int64_t width = slice_ptr[s + 1] - begin;
    __m512d acc = _mm512_setzero_pd();
    for (int64_t j = 0; j < width; ++j) {
      const int64_t at = (begin + j) * 8;
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col_idx + at));
      acc = _mm512_fmadd_pd(_mm512_loadu_pd(values + at),
                            _mm512_i32gather_pd(idx, x, 8), acc);
    }
    alignas(64) double lane[8];
    _mm512_store_pd(lane, acc);
    const int64_t slot_base = s * 8;
    for (int64_t l = 0; l < 8; ++l) {
      const int64_t row = perm[slot_base + l];
      if (row >= 0) y[row] = lane[l];
    }
  }
  (void)row_len;
}

void Avx512NearestCenter(const double* point, const double* centers,
                         int64_t k, int64_t d, double* best_d2,
                         int64_t* best_c) {
  double best = *best_d2;
  int64_t best_index = *best_c;
  for (int64_t c = 0; c < k; ++c) {
    const double d2 = Avx512SquaredDistance(point, centers + c * d, d);
    if (d2 < best) {
      best = d2;
      best_index = c;
    }
  }
  *best_d2 = best;
  *best_c = best_index;
}

constexpr KernelTable kAvx512Table = {
    &Avx512Dot,      &Avx512SquaredDistance, &Avx512Axpy,
    &Avx512Scale,    &Avx512SigmaSub,        &Avx512ScatterAxpy,
    &Avx512SpmvRows, &Avx512SellSpmv,        &Avx512NearestCenter,
};

}  // namespace

const KernelTable* Avx512Table() { return &kAvx512Table; }

}  // namespace simd
}  // namespace la
}  // namespace sgla
