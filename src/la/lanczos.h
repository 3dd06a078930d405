#ifndef SGLA_LA_LANCZOS_H_
#define SGLA_LA_LANCZOS_H_

#include <cstdint>

#include "la/dense.h"
#include "la/eigen_sym.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace util {
struct ShardContext;
}  // namespace util

namespace la {

/// Elements per chunk of the Lanczos reorthogonalization and Ritz assembly
/// sweeps (2048 doubles = 16 KB, so a chunk of the vector being
/// orthogonalized stays in L1 while the basis rows stream past it). The
/// projection coefficients are summed from per-chunk partial dots in
/// chunk-index order, and this partition depends only on n — so the solve's
/// bits are the same at any thread count and shard count within one ISA.
constexpr int64_t kOrthoGrain = 2048;

struct Eigenpairs {
  Vector values;        ///< ascending, size k
  DenseMatrix vectors;  ///< n x k, columns match values
};

struct LanczosOptions {
  /// Basis rows; 0 = auto: the kept Ritz vectors, k + max(2, k/3), plus 16.
  /// Either way a solve builds at most 3 x max_subspace Krylov vectors
  /// (auto: 3 x min(n, max(2k + 24, 48))).
  int max_subspace = 0;
  /// Stop tolerance on every wanted pair's residual ||M x - lambda x||,
  /// relative to max(1, |spectrum_upper_bound|).
  double tolerance = 1e-8;
  uint64_t seed = 20250131;    ///< deterministic start vector
};

/// Per-solve instrumentation, filled when a `stats` out-param is passed.
struct LanczosStats {
  int iterations = 0;  ///< Krylov vectors built (one SpMV each)
};

/// Reusable scratch for SmallestEigenpairsInto: the Krylov-Schur basis and
/// its restart twin, the projected matrix + Jacobi scratch and the
/// reorthogonalization partials. A default-constructed workspace grows on
/// first use; afterwards repeated solves at the same (n, k, subspace) —
/// e.g. the per-evaluation eigensolve of the SGLA weight search — perform
/// zero heap allocations. Contents carry no state between calls beyond
/// capacity; any call fully re-initializes what it reads.
struct LanczosWorkspace {
  /// m x n, one row per vector: the Ritz vectors kept at the last restart,
  /// then the Lanczos vectors built since.
  DenseMatrix basis;
  /// m x n: the next basis, assembled at a restart and swapped in; the
  /// output Ritz vectors are assembled here too.
  DenseMatrix restart;
  Vector alpha, beta;      ///< projected diagonal / Lanczos couplings, size m
  Vector coupling;         ///< kept Ritz vectors' coupling to the next row
  Vector w;                ///< length-n step vector; the residual f
  DenseMatrix projected;   ///< Rayleigh-Ritz matrix (rows x rows)
  Vector ritz_values;      ///< Jacobi outputs, reused
  DenseMatrix ritz_vectors;
  JacobiWorkspace jacobi;
  DenseMatrix dense_scratch;   ///< dense fallback: densified matrix
  DenseMatrix dense_sym;       ///< dense fallback: symmetrized copy
  /// Reorthogonalization scratch: per-chunk partial dots (chunk-major, one
  /// slot per basis row) and the merged projection coefficients.
  Vector ortho_partials;
  Vector ortho_coef;
};

/// The symmetric matrix every Lanczos solve multiplies by: a CSR or a
/// SELL-C-σ matrix (non-owning; exactly one is set), optionally applied one
/// row-shard job at a time. Build it with CsrSpmvOperator or
/// SellSpmvOperator. Each application overwrites all rows of y with M x;
/// with `shards` set it runs one SpmvRows / SellSpmvRows job per shard
/// through shards->Run (row-disjoint writes), otherwise one whole-matrix
/// call that chunks through the global ThreadPool. Every row's dot product
/// is the same row kernel either way, so the sharded application equals
/// the unsharded one bit for bit at any shard and thread count.
struct SpmvOperator {
  const CsrMatrix* csr = nullptr;
  const SellMatrix* sell = nullptr;
  /// Null = unsharded. A non-null context must cover the matrix rows with
  /// at least one shard (a default ShardContext runs no job at all).
  const util::ShardContext* shards = nullptr;

  int64_t rows() const {
    return csr != nullptr ? csr->rows : sell != nullptr ? sell->rows : 0;
  }
};

/// Operator over `m`; `m` and `shards` must outlive the operator.
SpmvOperator CsrSpmvOperator(const CsrMatrix& m,
                             const util::ShardContext* shards = nullptr);

/// Operator over a SELL-C-σ matrix (see la::SellMatrix). Under
/// SGLA_ISA=scalar its application is bit-identical to CsrSpmvOperator on
/// the source CSR; vector ISAs run the padded slice kernel. Shard
/// boundaries must be multiples of kSellSortWindow (util::kShardAlign).
SpmvOperator SellSpmvOperator(const SellMatrix& m,
                              const util::ShardContext* shards = nullptr);

/// True when a solve takes the dense Jacobi fallback (tiny matrix or nearly
/// full spectrum requested) instead of running Lanczos. Only a CSR operator
/// can densify; a SELL operator rejects such inputs, so callers that might
/// hit the fallback sizes must solve on the CSR form.
bool UsesDenseFallback(int64_t n, int k);

/// The k algebraically smallest eigenpairs of a symmetric matrix, via
/// thick-restart (Krylov-Schur) Lanczos with full reorthogonalization on the
/// spectral complement B = spectrum_upper_bound * I - M (so the target pairs
/// become extremal). For normalized Laplacians, spectrum_upper_bound = 2 is
/// a valid bound. A solve stops when every wanted pair meets the tolerance,
/// when a restart cycle neither converges a new pair nor halves the worst
/// wanted residual, or when its vector budget is spent; the pairs it has
/// then are served. Small matrices fall back to a dense Jacobi solve.
Result<Eigenpairs> SmallestEigenpairs(const CsrMatrix& matrix, int k,
                                      double spectrum_upper_bound,
                                      const LanczosOptions& options = {});

/// Workspace form of SmallestEigenpairs: bit-identical results, but all
/// scratch lives in `workspace` and the outputs reuse `out`'s buffers, so
/// steady-state calls at a fixed problem size are allocation-free. Same as
/// the operator form on CsrSpmvOperator(matrix).
Status SmallestEigenpairsInto(const CsrMatrix& matrix, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* workspace, Eigenpairs* out,
                              LanczosStats* stats = nullptr);

/// Operator form, which every solve runs through: the Lanczos iteration
/// applies `op` for every mat-vec; everything else (dots, panels,
/// Rayleigh-Ritz) runs on the caller over full-length vectors. A CSR
/// operator at dense-fallback sizes densifies its matrix (shards unused);
/// a SELL operator there fails with InvalidArgument.
///
/// `start`, when set, is an n-row block — typically the previous solve's
/// eigenvectors on a nearby matrix — whose column sum, plus a seeded
/// Gaussian admixture of weight 0.1, is the first Krylov vector instead of
/// the seeded Gaussian alone. It is read before `out` is written, so it may
/// alias out->vectors. The dense fallback ignores it.
Status SmallestEigenpairsInto(const SpmvOperator& op, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* workspace, Eigenpairs* out,
                              LanczosStats* stats = nullptr,
                              const DenseMatrix* start = nullptr);

}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_LANCZOS_H_
