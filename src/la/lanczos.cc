#include "la/lanczos.h"

#include <algorithm>
#include <cmath>

#include "la/simd.h"
#include "util/rng.h"
#include "util/sharding.h"
#include "util/thread_pool.h"

namespace sgla {
namespace la {
namespace {

constexpr int64_t kDenseFallbackThreshold = 96;

/// Elements per chunk of the sigma v - M v combine. The combine is
/// element-wise, so any chunking gives the serial bits; the reductions of
/// the solve (reorthogonalization dots) are chunked at kOrthoGrain instead
/// and merged in chunk-index order (see Reorthogonalize).
constexpr int64_t kElementGrain = 8192;

/// y = M x for the operator's matrix: one row-range SpMV over all rows, or
/// one per shard. The row kernels write each row from its own dot product,
/// so any row partition gives the same bits.
void Apply(const SpmvOperator& op, const double* x, double* y) {
  const auto rows = [&op, x, y](int64_t lo, int64_t hi) {
    if (op.csr != nullptr) {
      SpmvRows(*op.csr, x, y, lo, hi);
    } else {
      SellSpmvRows(*op.sell, x, y, lo, hi);
    }
  };
  if (op.shards == nullptr) {
    rows(0, op.rows());
  } else {
    op.shards->Run([&rows](int, int64_t lo, int64_t hi) { rows(lo, hi); });
  }
}

/// Projects x (length n) onto the orthogonal complement of Q = the locked
/// bank rows [0, num_locked) followed by the basis rows [0, upto): block
/// classical Gram-Schmidt, done twice (CGS2). Each pass makes two sweeps
/// over fixed kOrthoGrain chunks — per-chunk partial dots for every row of
/// Q, merged in chunk-index order into h = Q^T x, then x -= Q h with rows
/// applied in ascending order per element — so a pass costs two pool
/// dispatches instead of one per row, and the bits depend only on n.
void Reorthogonalize(int num_locked, int upto, double* x, int64_t n,
                     LanczosWorkspace* ws) {
  const int rows = num_locked + upto;
  if (rows == 0) return;
  const DenseMatrix& bank = ws->bank;
  const DenseMatrix& basis = ws->basis;
  double* partials = ws->ortho_partials.data();  // chunk-major, `rows` each
  double* coef = ws->ortho_coef.data();
  const int64_t chunks = util::ThreadPool::NumChunks(0, n, kOrthoGrain);
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool& pool = util::ThreadPool::Global();
  for (int pass = 0; pass < 2; ++pass) {
    pool.ParallelForChunks(
        0, n, kOrthoGrain, [&](int64_t chunk, int64_t lo, int64_t hi) {
          double* out = partials + chunk * rows;
          for (int l = 0; l < num_locked; ++l) {
            out[l] = table->dot(x + lo, bank.Row(l) + lo, hi - lo);
          }
          for (int i = 0; i < upto; ++i) {
            out[num_locked + i] =
                table->dot(x + lo, basis.Row(i) + lo, hi - lo);
          }
        });
    std::fill(coef, coef + rows, 0.0);
    for (int64_t chunk = 0; chunk < chunks; ++chunk) {
      const double* part = partials + chunk * rows;
      for (int r = 0; r < rows; ++r) coef[r] += part[r];
    }
    pool.ParallelFor(0, n, kOrthoGrain, [&](int64_t lo, int64_t hi) {
      for (int l = 0; l < num_locked; ++l) {
        table->axpy(-coef[l], bank.Row(l) + lo, x + lo, hi - lo);
      }
      for (int i = 0; i < upto; ++i) {
        table->axpy(-coef[num_locked + i], basis.Row(i) + lo, x + lo,
                    hi - lo);
      }
    });
  }
}

Status DenseSmallestInto(const CsrMatrix& matrix, int k,
                         LanczosWorkspace* ws, Eigenpairs* out) {
  // Densify into workspace scratch (same accumulation as la::ToDense).
  DenseMatrix& dense = ws->dense_scratch;
  dense.Reshape(matrix.rows, matrix.cols);
  for (int64_t r = 0; r < matrix.rows; ++r) {
    const int64_t end = matrix.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = matrix.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      dense(r, matrix.col_idx[static_cast<size_t>(p)]) +=
          matrix.values[static_cast<size_t>(p)];
    }
  }
  // Symmetrize defensively: callers promise symmetry but cached/loaded
  // matrices may carry 1-ulp asymmetry that Jacobi would amplify.
  DenseMatrix& sym = ws->dense_sym;
  sym.Reshape(dense.rows(), dense.cols());
  for (int64_t i = 0; i < dense.rows(); ++i) {
    for (int64_t j = 0; j < dense.cols(); ++j) {
      sym(i, j) = 0.5 * (dense(i, j) + dense(j, i));
    }
  }
  JacobiEigenSymmetric(sym, &ws->ritz_values, &ws->ritz_vectors, &ws->jacobi);
  out->values.assign(static_cast<size_t>(k), 0.0);
  out->vectors.Reshape(matrix.rows, k);
  for (int j = 0; j < k; ++j) {
    out->values[static_cast<size_t>(j)] =
        ws->ritz_values[static_cast<size_t>(j)];
    for (int64_t i = 0; i < matrix.rows; ++i) {
      out->vectors(i, j) = ws->ritz_vectors(i, j);
    }
  }
  return OkStatus();
}

/// One Lanczos sweep on B = sigma I - M with full reorthogonalization,
/// deflated against the locked bank rows [0, num_locked) (every Krylov
/// vector is kept orthogonal to the already-converged eigenvectors), from a
/// random start direction. Writes up to `want` Ritz pairs — ascending in M,
/// with exact residuals — into bank rows [pass_base, pass_base + produced)
/// and returns `produced`. `built_out` reports the basis vectors built (the
/// solve's iteration count).
int LanczosPassInto(const SpmvOperator& matrix, double sigma, int m, int want,
                    int num_locked, int pass_base, Rng* rng,
                    LanczosWorkspace* ws, int* built_out) {
  const int64_t n = matrix.rows();
  if (built_out != nullptr) *built_out = 0;

  DenseMatrix& basis = ws->basis;  // row-per-basis-vector, contiguous axpys
  basis.Reshape(m, n);
  Vector& alpha = ws->alpha;
  Vector& beta = ws->beta;  // beta[j] couples v_j, v_{j+1}
  alpha.assign(static_cast<size_t>(m), 0.0);
  beta.assign(static_cast<size_t>(m), 0.0);

  Vector& v = ws->v;
  v.assign(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = rng->Gaussian();
  Reorthogonalize(num_locked, 0, v.data(), n, ws);
  {
    const double norm = Norm2(v.data(), n);
    if (norm < 1e-12) return 0;  // locked set spans everything reachable
    Scale(1.0 / norm, v.data(), n);
  }
  std::copy(v.begin(), v.end(), basis.Row(0));

  Vector& w = ws->w;
  w.assign(static_cast<size_t>(n), 0.0);
  int built = 0;
  for (int j = 0; j < m; ++j) {
    built = j + 1;
    // w = B v_j = sigma v_j - M v_j. The sigma_sub kernel is element-wise
    // (separate multiply and subtract roundings in every ISA variant), so
    // this combine is bit-identical across ISA paths and chunkings.
    Apply(matrix, basis.Row(j), w.data());
    const double* vj = basis.Row(j);
    const simd::KernelTable* table = simd::ActiveTable();
    const auto combine = [sigma, vj, &w, table](int64_t lo, int64_t hi) {
      table->sigma_sub(sigma, vj + lo, w.data() + lo, hi - lo);
    };
    if (n <= kElementGrain) {
      combine(0, n);
    } else {
      util::ThreadPool::Global().ParallelFor(0, n, kElementGrain, combine);
    }
    alpha[static_cast<size_t>(j)] = Dot(w.data(), basis.Row(j), n);
    Reorthogonalize(num_locked, j + 1, w.data(), n, ws);
    const double norm = Norm2(w.data(), n);
    if (j + 1 < m) {
      if (norm < 1e-12) {
        // Invariant subspace found: restart with a fresh random direction.
        for (int64_t i = 0; i < n; ++i) {
          w[static_cast<size_t>(i)] = rng->Gaussian();
        }
        Reorthogonalize(num_locked, j + 1, w.data(), n, ws);
        const double rnorm = Norm2(w.data(), n);
        if (rnorm < 1e-12) break;  // reachable space exhausted
        Scale(1.0 / rnorm, w.data(), n);
        beta[static_cast<size_t>(j)] = 0.0;
      } else {
        Scale(1.0 / norm, w.data(), n);
        beta[static_cast<size_t>(j)] = norm;
      }
      std::copy(w.begin(), w.end(), basis.Row(j + 1));
    }
  }

  if (built_out != nullptr) *built_out = built;

  // Rayleigh-Ritz on the tridiagonal (dense Jacobi is fine at these sizes).
  {
    DenseMatrix& tri = ws->tri;
    tri.Reshape(built, built);
    for (int j = 0; j < built; ++j) {
      tri(j, j) = alpha[static_cast<size_t>(j)];
      if (j + 1 < built) {
        tri(j, j + 1) = beta[static_cast<size_t>(j)];
        tri(j + 1, j) = beta[static_cast<size_t>(j)];
      }
    }
    JacobiEigenSymmetric(tri, &ws->ritz_values, &ws->ritz_vectors,
                         &ws->jacobi);
  }

  // Largest of B == smallest of M; they sit at the end of the ascending list.
  // Ritz assembly is a dense panel basis^T * Y for all `count` wanted pairs
  // at once, into bank rows [pass_base, pass_base + count): one chunked
  // sweep reads each basis row once per chunk and feeds every candidate.
  // Per element each candidate accumulates the basis rows in ascending t
  // order with element-wise axpys, so its bits match a per-pair serial loop
  // on every ISA path.
  const int count = std::min(want, built);
  {
    const DenseMatrix& ritz_vectors = ws->ritz_vectors;
    DenseMatrix& bank = ws->bank;
    const simd::KernelTable* table = simd::ActiveTable();
    util::ThreadPool::Global().ParallelFor(
        0, n, kOrthoGrain, [&](int64_t lo, int64_t hi) {
          for (int j = 0; j < count; ++j) {
            std::fill(bank.Row(pass_base + j) + lo,
                      bank.Row(pass_base + j) + hi, 0.0);
          }
          for (int t = 0; t < built; ++t) {
            const double* row = basis.Row(t) + lo;
            for (int j = 0; j < count; ++j) {
              table->axpy(ritz_vectors(t, built - 1 - j), row,
                          bank.Row(pass_base + j) + lo, hi - lo);
            }
          }
        });
  }
  // Normalize, score and compact: candidate j moves down to row
  // pass_base + produced (only rows already consumed are overwritten).
  int produced = 0;
  Vector& mv = ws->mv;
  mv.assign(static_cast<size_t>(n), 0.0);
  for (int j = 0; j < count; ++j) {
    const double value =
        sigma - ws->ritz_values[static_cast<size_t>(built - 1 - j)];
    const double* candidate = ws->bank.Row(pass_base + j);
    const double vnorm = Norm2(candidate, n);
    if (vnorm < 1e-12) continue;
    double* assembled = ws->bank.Row(pass_base + produced);
    if (assembled != candidate) std::copy(candidate, candidate + n, assembled);
    Scale(1.0 / vnorm, assembled, n);
    Apply(matrix, assembled, mv.data());
    Axpy(-value, assembled, mv.data(), n);
    ws->bank_value[static_cast<size_t>(pass_base + produced)] = value;
    ws->bank_residual[static_cast<size_t>(pass_base + produced)] =
        Norm2(mv.data(), n);
    ++produced;
  }
  return produced;
}

}  // namespace

SpmvOperator CsrSpmvOperator(const CsrMatrix& m,
                             const util::ShardContext* shards) {
  SpmvOperator op;
  op.csr = &m;
  op.shards = shards;
  return op;
}

SpmvOperator SellSpmvOperator(const SellMatrix& m,
                              const util::ShardContext* shards) {
  SpmvOperator op;
  op.sell = &m;
  op.shards = shards;
  return op;
}

bool UsesDenseFallback(int64_t n, int k) {
  return n <= kDenseFallbackThreshold || k >= n - 2;
}

Result<Eigenpairs> SmallestEigenpairs(const CsrMatrix& matrix, int k,
                                      double spectrum_upper_bound,
                                      const LanczosOptions& options) {
  LanczosWorkspace workspace;
  Eigenpairs out;
  Status status = SmallestEigenpairsInto(matrix, k, spectrum_upper_bound,
                                         options, &workspace, &out);
  if (!status.ok()) return status;
  return out;
}

Status SmallestEigenpairsInto(const CsrMatrix& matrix, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* ws, Eigenpairs* out,
                              LanczosStats* stats) {
  return SmallestEigenpairsInto(CsrSpmvOperator(matrix), k,
                                spectrum_upper_bound, options, ws, out, stats);
}

Status SmallestEigenpairsInto(const SpmvOperator& matrix, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* ws, Eigenpairs* out,
                              LanczosStats* stats) {
  const int64_t n = matrix.rows();
  if (stats != nullptr) *stats = LanczosStats();
  if ((matrix.csr == nullptr) == (matrix.sell == nullptr)) {
    return InvalidArgument("operator must hold exactly one matrix");
  }
  const int64_t cols =
      matrix.csr != nullptr ? matrix.csr->cols : matrix.sell->cols;
  if (cols != n) return InvalidArgument("matrix must be square");
  if (matrix.shards != nullptr &&
      (matrix.shards->num_shards < 1 || matrix.shards->rows() != n)) {
    return InvalidArgument("shard partition does not cover the matrix");
  }
  if (k <= 0) return InvalidArgument("k must be positive");
  if (k > n) return InvalidArgument("k exceeds matrix dimension");
  if (UsesDenseFallback(n, k)) {
    if (matrix.csr != nullptr) return DenseSmallestInto(*matrix.csr, k, ws, out);
    return InvalidArgument(
        "a SELL operator cannot densify: matrix too small or k too close to "
        "n (solve on the CSR form for the dense fallback)");
  }

  const double sigma = spectrum_upper_bound;
  int m = options.max_subspace > 0
              ? options.max_subspace
              : static_cast<int>(std::min<int64_t>(n, std::max(2 * k + 24, 48)));
  m = static_cast<int>(std::min<int64_t>(m, n));
  if (m < k + 2) m = static_cast<int>(std::min<int64_t>(k + 2, n));

  // Bank layout: rows [0, k) are the locked region; two pass regions of
  // k + 1 rows alternate above it so the leftovers of pass t stay intact
  // through an unproductive pass t + 1. Shape is only *ensured* here — rows
  // are fully (re)written before every read — so a reused workspace never
  // re-zeroes or reallocates the bank.
  const int bank_rows = 3 * k + 2;
  if (ws->bank.rows() < bank_rows || ws->bank.cols() != n) {
    ws->bank.Reshape(bank_rows, n);
  }
  if (static_cast<int>(ws->bank_value.size()) < bank_rows) {
    ws->bank_value.assign(static_cast<size_t>(bank_rows), 0.0);
    ws->bank_residual.assign(static_cast<size_t>(bank_rows), 0.0);
  }
  // Reorthogonalization runs against at most k - 1 locked rows plus m basis
  // rows; sized once per (n, k, m) so steady-state solves never reallocate.
  const int ortho_rows = k + m;
  ws->ortho_partials.resize(static_cast<size_t>(
      util::ThreadPool::NumChunks(0, n, kOrthoGrain) * ortho_rows));
  ws->ortho_coef.resize(static_cast<size_t>(ortho_rows));

  // Single-vector Lanczos sees at most one direction per eigenvalue, so
  // repeated eigenvalues (disconnected Laplacians!) need deflated restarts:
  // converged pairs are locked, and the next pass explores their orthogonal
  // complement until k pairs are resolved.
  const double tolerance =
      std::max(options.tolerance, 1e-12) * std::max(1.0, std::fabs(sigma));
  Rng rng(options.seed);

  int num_locked = 0;                          // bank rows [0, num_locked)
  std::vector<int>& leftovers = ws->leftovers;  // best unconverged, final pass
  leftovers.clear();
  const int max_passes = 3;
  for (int pass = 0; pass < max_passes && num_locked < k; ++pass) {
    const int missing = k - num_locked;
    const int pass_base = k + (pass % 2) * (k + 1);
    int built = 0;
    const int produced = LanczosPassInto(matrix, sigma, m, missing + 1,
                                         num_locked, pass_base, &rng, ws,
                                         &built);
    if (stats != nullptr) {
      stats->iterations += built;
      ++stats->passes;
    }
    if (produced == 0) break;
    bool locked_any = false;
    leftovers.clear();
    for (int p = 0; p < produced; ++p) {
      const int row = pass_base + p;
      if (num_locked < k &&
          ws->bank_residual[static_cast<size_t>(row)] <= tolerance) {
        std::copy(ws->bank.Row(row), ws->bank.Row(row) + n,
                  ws->bank.Row(num_locked));
        ws->bank_value[static_cast<size_t>(num_locked)] =
            ws->bank_value[static_cast<size_t>(row)];
        ws->bank_residual[static_cast<size_t>(num_locked)] =
            ws->bank_residual[static_cast<size_t>(row)];
        ++num_locked;
        locked_any = true;
      } else {
        leftovers.push_back(row);
      }
    }
    // A pair that refuses to lock after a full m-step pass (spectral-bulk
    // tail) stops the solve, which then serves the best leftover
    // approximations — the documented early-exit design.
    if (!locked_any) break;  // no further progress at this subspace size
  }

  // Fill any remaining slots with the best unconverged approximations.
  std::vector<int>& selected = ws->selected;
  selected.clear();
  for (int l = 0; l < num_locked; ++l) selected.push_back(l);
  for (int row : leftovers) {
    if (static_cast<int>(selected.size()) >= k) break;
    selected.push_back(row);
  }
  if (static_cast<int>(selected.size()) < k) {
    return Internal("Lanczos resolved fewer than k eigenpairs");
  }

  std::sort(selected.begin(), selected.end(), [ws](int a, int b) {
    return ws->bank_value[static_cast<size_t>(a)] <
           ws->bank_value[static_cast<size_t>(b)];
  });
  out->values.assign(static_cast<size_t>(k), 0.0);
  out->vectors.Reshape(n, k);
  for (int j = 0; j < k; ++j) {
    const int row = selected[static_cast<size_t>(j)];
    out->values[static_cast<size_t>(j)] =
        ws->bank_value[static_cast<size_t>(row)];
    const double* src = ws->bank.Row(row);
    for (int64_t i = 0; i < n; ++i) {
      out->vectors(i, j) = src[static_cast<size_t>(i)];
    }
  }
  return OkStatus();
}

}  // namespace la
}  // namespace sgla
