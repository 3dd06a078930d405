#ifndef SGLA_LA_SPARSE_H_
#define SGLA_LA_SPARSE_H_

#include <cstdint>
#include <vector>

#include "la/dense.h"

namespace sgla {
namespace la {

/// Compressed sparse row matrix with double values. Fields are public: the
/// aggregator and IO layers build/patch them directly.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;  ///< size rows + 1
  std::vector<int64_t> col_idx;  ///< size nnz
  std::vector<double> values;    ///< size nnz

  int64_t nnz() const { return static_cast<int64_t>(col_idx.size()); }
};

/// COO triplet used when assembling matrices.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  double value = 0.0;
};

/// Rows per SELL slice (the C of SELL-C-σ). 8 doubles = one AVX-512
/// register / two AVX2 registers per column step.
constexpr int64_t kSellLanes = 8;
/// The σ sort window: rows are sorted by descending nnz only *within*
/// windows of this many rows, which must equal util::kShardAlign
/// (static_asserted in sparse.cc). Windows therefore never straddle a shard
/// boundary, so the SELL form of a row-sharded matrix is exactly the
/// concatenation of its shards' SELL forms — the property that keeps
/// sharded and unsharded SELL SpMV bit-identical.
constexpr int64_t kSellSortWindow = 512;

/// SELL-C-σ companion layout of a CsrMatrix: rows are permuted by
/// descending nnz within each kSellSortWindow-row window, grouped into
/// slices of kSellLanes rows, and each slice is padded to its longest row.
/// Storage is lane-minor — slot j of slice s, lane l lives at
/// (slice_ptr[s] + j) * kSellLanes + l — so one vector register walks a
/// whole slice column-step by column-step. Padding slots carry value 0.0
/// and column 0; ghost lanes (beyond the final row) have perm < 0.
///
/// The pattern arrays (everything except `values`) are a pure function of
/// the CSR sparsity; `values` is refreshed in place from new CSR values via
/// `value_slot`, so a bound SellMatrix rides along with the zero-allocation
/// aggregation workspaces. Column indices and value slots are 32-bit, which
/// halves the index bytes each SpMV streams: columns fit because graphs
/// hold at most INT32_MAX nodes, slots because BuildSellPattern checks the
/// padded size.
struct SellMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> slice_ptr;  ///< num_slices + 1, in column steps
  std::vector<int32_t> col_idx;    ///< slice_ptr.back() * kSellLanes
  std::vector<double> values;      ///< same size as col_idx
  std::vector<int64_t> row_len;    ///< per slot: unpadded row length
  std::vector<int64_t> perm;       ///< per slot: source row, < 0 for ghosts
  std::vector<int32_t> value_slot; ///< CSR entry p -> index into values
  int64_t num_slices() const {
    return static_cast<int64_t>(slice_ptr.size()) - 1;
  }
};

/// (Re)builds `out` as the SELL form of `m`, reusing its buffers' capacity.
/// Values are copied from m when m carries them (m.values.size() ==
/// m.nnz()); a pattern-only m leaves out->values empty.
///
/// `previous` (optional) is the SELL pattern of an earlier CSR with the
/// same row count, and `changed_rows` flags, per row of m, whether its
/// sparsity differs from that earlier CSR's (nonzero = changed); rows not
/// flagged must hold exactly the same columns in both. A σ window holding
/// no changed row then keeps the earlier permutation, and a slice holding
/// the same rows in the same lanes, none changed, copies its lane-minor
/// column block (its value slots are recomputed at the slice's new
/// offset); every other slice fills from m. Either way the result is the
/// bytes a build without `previous` produces.
void BuildSellPattern(const CsrMatrix& m, SellMatrix* out,
                      const SellMatrix* previous = nullptr,
                      const std::vector<uint8_t>* changed_rows = nullptr);

/// Overwrites out->values from `csr_values` (size out->value_slot.size(),
/// the source CSR's nnz) through the value_slot map. Allocation-free;
/// padding slots keep their 0.0.
void FillSellValues(const std::vector<double>& csr_values, SellMatrix* out);

/// FillSellValues restricted to CSR entries [entry_begin, entry_end) — a
/// row shard's entries, so shard jobs refresh disjoint slots.
void FillSellValues(const std::vector<double>& csr_values, SellMatrix* out,
                    int64_t entry_begin, int64_t entry_end);

/// y = M * x over the SELL form; bit-identical at any thread count, and
/// under SGLA_ISA=scalar bit-identical to Spmv on the source CSR (the
/// scalar kernel walks each row's entries in CSR order, skipping padding).
void SellSpmv(const SellMatrix& m, const double* x, double* y);

/// SellSpmv restricted to the slices covering rows [row_begin, row_end);
/// row_begin must be a multiple of kSellSortWindow and row_end one too or
/// m.rows, so the range holds whole sort windows and the rows written are
/// exactly the range. Chunks through the global ThreadPool like SellSpmv
/// (inline inside shard jobs); y is indexed by global row.
void SellSpmvRows(const SellMatrix& m, const double* x, double* y,
                  int64_t row_begin, int64_t row_end);

/// Builds CSR from triplets, summing duplicates; entries sorted by (row, col).
CsrMatrix FromTriplets(int64_t rows, int64_t cols, std::vector<Triplet> entries);

/// y = M * x. x has m.cols entries, y has m.rows entries (overwritten).
void Spmv(const CsrMatrix& m, const double* x, double* y);

/// y[r] = (M x)[r] for r in [row_begin, row_end) only; Spmv is the
/// whole-matrix case. Chunks through the global ThreadPool like
/// SellSpmvRows (inline inside shard jobs). Each row's dot product is the
/// same row kernel at any chunking, so any row partition of calls
/// reproduces Spmv bit for bit.
void SpmvRows(const CsrMatrix& m, const double* x, double* y,
              int64_t row_begin, int64_t row_end);

/// Y = M * X for a dense block X (n x d), written into Y (rows x d).
void SpmvDense(const CsrMatrix& m, const DenseMatrix& x, DenseMatrix* y);

/// sum_i weights[i] * views[i]. All views must share shape; the result's
/// sparsity pattern is the union of the inputs'.
CsrMatrix WeightedSum(const std::vector<const CsrMatrix*>& views,
                      const std::vector<double>& weights);

/// Principal submatrix M[keep, keep]; `keep` must be sorted ascending.
CsrMatrix SymmetricSubmatrix(const CsrMatrix& m,
                             const std::vector<int64_t>& keep);

/// Densifies (small matrices only; used by tests and tiny fallbacks).
DenseMatrix ToDense(const CsrMatrix& m);

}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_SPARSE_H_
