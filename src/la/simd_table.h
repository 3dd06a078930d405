#ifndef SGLA_LA_SIMD_TABLE_H_
#define SGLA_LA_SIMD_TABLE_H_

#include <cstdint>

// Kernel table shared between the dispatcher (simd.cc) and the per-ISA
// translation units (simd_scalar.cc, simd_avx2.cc, ...). Deliberately
// minimal: the per-ISA TUs are compiled with their own -m flags, so any
// inline code they pull in (STL headers included) could be emitted with
// instructions the host may not have. Keep this header raw pointers and
// PODs only; per-ISA TUs include nothing else from the project.

namespace sgla {
namespace la {
namespace simd {

/// One entry per hot kernel. Bit-stability contract per kernel:
///
/// *Element-wise* kernels (axpy, scale, sigma_sub, scatter_axpy) carry no
/// accumulator: every output element is one rounded `a*x+y`-shaped
/// expression. Vector variants MUST NOT fuse the multiply-add (no FMA) so
/// each lane computes exactly the scalar sequence — these kernels are
/// bit-identical across *all* ISA paths, which is what keeps
/// SGLA_ISA=<any> aggregation values equal to scalar aggregation values.
///
/// *Reduction* kernels (dot, squared_distance, spmv_rows, sell_spmv,
/// nearest_center) use a fixed lane layout, a fixed-order horizontal sum
/// and a separate scalar remainder loop. Their bits differ between ISA
/// paths (different association order), but within one ISA they are a pure
/// function of the operands — no thread count, shard split or row batching
/// may change the per-row/per-element association order.
struct KernelTable {
  double (*dot)(const double* x, const double* y, int64_t n);
  double (*squared_distance)(const double* x, const double* y, int64_t n);
  void (*axpy)(double alpha, const double* x, double* y, int64_t n);
  void (*scale)(double alpha, double* x, int64_t n);
  /// w[i] = sigma * v[i] - w[i] (Lanczos deflation combine).
  void (*sigma_sub)(double sigma, const double* v, double* w, int64_t n);
  /// out[map[p]] += w * values[p] for p in [0, nnz). `map` is strictly
  /// increasing (union-pattern scatter), so the writes are conflict-free.
  void (*scatter_axpy)(double w, const double* values, const int64_t* map,
                       int64_t nnz, double* out);
  /// y[r - row_begin] = sum_p values[p] * x[col_idx[p]] over the CSR row
  /// extent [row_ptr[r], row_ptr[r+1]) for r in [row_begin, row_end).
  void (*spmv_rows)(const int64_t* row_ptr, const int64_t* col_idx,
                    const double* values, const double* x, double* y,
                    int64_t row_begin, int64_t row_end);
  /// SELL-C-8 SpMV over slices [slice_begin, slice_end). Lane-minor
  /// storage: slot j of slice s for lane l lives at
  /// (slice_ptr[s] + j) * 8 + l. `row_len` gives the unpadded length per
  /// slot (slice * 8 + lane); `perm` maps slot -> original row (< 0 for
  /// ghost lanes in the final ragged slice). The scalar variant iterates
  /// row_len entries per lane (skipping padding) so its bits match the
  /// plain CSR row loop exactly; vector variants run the padded width.
  void (*sell_spmv)(const int64_t* slice_ptr, const int32_t* col_idx,
                    const double* values, const int64_t* row_len,
                    const int64_t* perm, const double* x, double* y,
                    int64_t slice_begin, int64_t slice_end);
  /// argmin_c ||point - centers[c*d .. c*d+d)||^2 with strict '<'
  /// (first-index-wins ties, matching the scalar assignment loop).
  void (*nearest_center)(const double* point, const double* centers,
                         int64_t k, int64_t d, double* best_d2,
                         int64_t* best_c);
};

const KernelTable* ScalarTable();
const KernelTable* Avx2Table();    // nullptr unless compiled in
const KernelTable* Avx512Table();  // nullptr unless compiled in

}  // namespace simd
}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_SIMD_TABLE_H_
