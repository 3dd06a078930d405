#include "la/lanczos.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

/// Lanczos vectors each restart cycle adds after the kept Ritz vectors: the
/// default basis holds keep + kCycleVectors rows.
constexpr int kCycleVectors = 16;

/// Vector budget of a solve, in multiples of `span` (min(n, max(2k + 24,
/// 48)), or max_subspace), which is also the progress-check window.
constexpr int kBudgetSubspaces = 3;

/// A solve whose residual pace would need more than this many times its
/// remaining budget to reach the tolerance stops (see the progress check).
constexpr double kHopelessBudgets = 4.0;

/// Weight of the seeded Gaussian mixed into a start built from a block, so
/// the Krylov space still reaches directions the block lacks (after a long
/// optimizer step, an eigenvector the previous block barely holds).
constexpr double kStartAdmixture = 0.1;

/// Norm below which a direction counts as zero (breakdown, spent space).
constexpr double kTiny = 1e-12;

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

/// Projects x (length n) onto the orthogonal complement of basis rows
/// [0, upto): block classical Gram-Schmidt, done twice (CGS2). Each pass
/// makes two sweeps over fixed kOrthoGrain chunks — per-chunk partial dots
/// for every basis row, merged in chunk-index order into h = V^T x, then
/// x -= V h with rows applied in ascending order per element — so a pass
/// costs two pool dispatches instead of one per row, and the bits depend
/// only on n.
void Reorthogonalize(int upto, double* x, int64_t n, LanczosWorkspace* ws) {
  if (upto == 0) return;
  const DenseMatrix& basis = ws->basis;
  double* partials = ws->ortho_partials.data();  // chunk-major, `upto` each
  double* coef = ws->ortho_coef.data();
  const int64_t chunks = util::ThreadPool::NumChunks(0, n, kOrthoGrain);
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool& pool = util::ThreadPool::Global();
  for (int pass = 0; pass < 2; ++pass) {
    pool.ParallelForChunks(
        0, n, kOrthoGrain, [&](int64_t chunk, int64_t lo, int64_t hi) {
          double* out = partials + chunk * upto;
          for (int i = 0; i < upto; ++i) {
            out[i] = table->dot(x + lo, basis.Row(i) + lo, hi - lo);
          }
        });
    std::fill(coef, coef + upto, 0.0);
    for (int64_t chunk = 0; chunk < chunks; ++chunk) {
      const double* part = partials + chunk * upto;
      for (int i = 0; i < upto; ++i) coef[i] += part[i];
    }
    pool.ParallelFor(0, n, kOrthoGrain, [&](int64_t lo, int64_t hi) {
      for (int i = 0; i < upto; ++i) {
        table->axpy(-coef[i], basis.Row(i) + lo, x + lo, hi - lo);
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

/// Writes a seeded Gaussian direction into x, projected off basis rows
/// [0, upto) and normalized. False when those rows span all it reaches.
bool RandomDirection(int upto, Rng* rng, double* x, int64_t n,
                     LanczosWorkspace* ws) {
  for (int64_t i = 0; i < n; ++i) x[i] = rng->Gaussian();
  Reorthogonalize(upto, x, n, ws);
  const double norm = Norm2(x, n);
  if (norm < kTiny) return false;
  Scale(1.0 / norm, x, n);
  return true;
}

/// The first Krylov vector, into basis row 0: the normalized column sum of
/// `start` plus kStartAdmixture times a seeded unit Gaussian, or that
/// Gaussian alone without a start block. Reads `start` completely.
bool StartVector(const DenseMatrix* start, Rng* rng, int64_t n,
                 LanczosWorkspace* ws) {
  double* v0 = ws->basis.Row(0);
  if (!RandomDirection(0, rng, v0, n, ws)) return false;
  if (start == nullptr) return true;
  double* sum = ws->w.data();
  for (int64_t i = 0; i < n; ++i) {
    const double* row = start->Row(i);
    double s = 0.0;
    for (int64_t c = 0; c < start->cols(); ++c) s += row[c];
    sum[i] = s;
  }
  const double norm = Norm2(sum, n);
  if (norm < kTiny) return true;
  const double inv = 1.0 / norm;
  for (int64_t i = 0; i < n; ++i) {
    v0[i] = sum[i] * inv + kStartAdmixture * v0[i];
  }
  Scale(1.0 / Norm2(v0, n), v0, n);
  return true;
}

/// Extends the Krylov-Schur decomposition B V = V T + f e^T on
/// B = sigma I - M from basis rows [0, first) to [0, top): Lanczos steps
/// with full reorthogonalization from the direction in row `first`. A
/// breakdown (invariant subspace) continues from a fresh random direction
/// deflated against the basis, which is how a repeated eigenvalue gets its
/// further copies. Sets *rows to the basis rows now built (below `top` only
/// once the reachable space is spent), leaves f in ws->w and returns ||f||.
double Expand(const SpmvOperator& matrix, double sigma, int first, int top,
              Rng* rng, LanczosWorkspace* ws, int* rows) {
  const int64_t n = matrix.rows();
  DenseMatrix& basis = ws->basis;
  Vector& w = ws->w;
  const simd::KernelTable* table = simd::ActiveTable();
  for (int j = first; j < top; ++j) {
    *rows = j + 1;
    // w = B v_j = sigma v_j - M v_j. The sigma_sub kernel is element-wise
    // (separate multiply and subtract roundings in every ISA variant), so
    // this combine is bit-identical across ISA paths and chunkings.
    const double* vj = basis.Row(j);
    Apply(matrix, vj, w.data());
    const auto combine = [sigma, vj, &w, table](int64_t lo, int64_t hi) {
      table->sigma_sub(sigma, vj + lo, w.data() + lo, hi - lo);
    };
    if (n <= kElementGrain) {
      combine(0, n);
    } else {
      util::ThreadPool::Global().ParallelFor(0, n, kElementGrain, combine);
    }
    ws->alpha[static_cast<size_t>(j)] = Dot(w.data(), vj, n);
    Reorthogonalize(j + 1, w.data(), n, ws);
    const double norm = Norm2(w.data(), n);
    if (j + 1 == top) return norm;
    if (norm < kTiny) {
      ws->beta[static_cast<size_t>(j)] = 0.0;
      if (!RandomDirection(j + 1, rng, basis.Row(j + 1), n, ws)) {
        std::fill(w.begin(), w.end(), 0.0);
        return 0.0;
      }
    } else {
      ws->beta[static_cast<size_t>(j)] = norm;
      Scale(1.0 / norm, w.data(), n);
      std::copy(w.begin(), w.end(), basis.Row(j + 1));
    }
  }
  return 0.0;
}

/// Rayleigh-Ritz on the projected matrix T of basis rows [0, rows): the
/// diagonal alpha, the kept Ritz vectors' coupling to row `kept` (an arrow),
/// then the Lanczos tridiagonal. Dense Jacobi; ascending Ritz values.
void RayleighRitz(int kept, int rows, LanczosWorkspace* ws) {
  DenseMatrix& t = ws->projected;
  t.Reshape(rows, rows);
  for (int j = 0; j < rows; ++j) t(j, j) = ws->alpha[static_cast<size_t>(j)];
  for (int i = 0; i < kept; ++i) {
    t(i, kept) = ws->coupling[static_cast<size_t>(i)];
    t(kept, i) = ws->coupling[static_cast<size_t>(i)];
  }
  for (int j = kept; j + 1 < rows; ++j) {
    t(j, j + 1) = ws->beta[static_cast<size_t>(j)];
    t(j + 1, j) = ws->beta[static_cast<size_t>(j)];
  }
  JacobiEigenSymmetric(t, &ws->ritz_values, &ws->ritz_vectors, &ws->jacobi);
}

/// Ritz vectors of the `count` largest Ritz values of B (the smallest
/// eigenvalues of M), largest first, into ws->restart rows [0, count): one
/// chunked sweep reads each basis row once per chunk and feeds every
/// vector. Per element each vector accumulates the basis rows in ascending
/// order with element-wise axpys, so the bits match a per-vector serial
/// loop on every ISA path.
void AssembleRitzVectors(int count, int rows, int64_t n,
                         LanczosWorkspace* ws) {
  const DenseMatrix& basis = ws->basis;
  const DenseMatrix& y = ws->ritz_vectors;
  DenseMatrix& target = ws->restart;
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      0, n, kOrthoGrain, [&](int64_t lo, int64_t hi) {
        for (int j = 0; j < count; ++j) {
          std::fill(target.Row(j) + lo, target.Row(j) + hi, 0.0);
        }
        for (int t = 0; t < rows; ++t) {
          const double* row = basis.Row(t) + lo;
          for (int j = 0; j < count; ++j) {
            table->axpy(y(t, rows - 1 - j), row, target.Row(j) + lo, hi - lo);
          }
        }
      });
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
                              LanczosStats* stats, const DenseMatrix* start) {
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
  if (start != nullptr && (start->rows() != n || start->cols() < 1)) {
    return InvalidArgument("start block must have one row per matrix row");
  }
  if (UsesDenseFallback(n, k)) {
    if (matrix.csr != nullptr) return DenseSmallestInto(*matrix.csr, k, ws, out);
    return InvalidArgument(
        "a SELL operator cannot densify: matrix too small or k too close to "
        "n (solve on the CSR form for the dense fallback)");
  }

  // The basis holds `keep` Ritz vectors plus kCycleVectors new ones (or
  // max_subspace rows). `span` is the subspace of one restart-from-scratch
  // pass: the solve builds at most kBudgetSubspaces x span Krylov vectors
  // and must show progress every span vectors.
  const int keep_wanted = k + std::max(2, k / 3);
  int span = options.max_subspace > 0
                 ? options.max_subspace
                 : static_cast<int>(
                       std::min<int64_t>(n, std::max(2 * k + 24, 48)));
  span = static_cast<int>(std::min<int64_t>(span, n));
  if (span < k + 2) span = static_cast<int>(std::min<int64_t>(k + 2, n));
  const int m =
      options.max_subspace > 0
          ? span
          : static_cast<int>(std::min<int64_t>(n, keep_wanted + kCycleVectors));
  const int keep = std::min(keep_wanted, m - 1);
  const int budget = kBudgetSubspaces * span;

  // Shapes are only *ensured*: every row is written before it is read, so a
  // reused workspace never re-zeroes or reallocates.
  for (DenseMatrix* buffer : {&ws->basis, &ws->restart}) {
    if (buffer->rows() < m || buffer->cols() != n) buffer->Reshape(m, n);
  }
  ws->alpha.resize(static_cast<size_t>(m));
  ws->beta.resize(static_cast<size_t>(m));
  ws->coupling.resize(static_cast<size_t>(m));
  ws->w.resize(static_cast<size_t>(n));
  ws->ortho_partials.resize(static_cast<size_t>(
      util::ThreadPool::NumChunks(0, n, kOrthoGrain) * m));
  ws->ortho_coef.resize(static_cast<size_t>(m));

  const double sigma = spectrum_upper_bound;
  const double tolerance =
      std::max(options.tolerance, 1e-12) * std::max(1.0, std::fabs(sigma));
  Rng rng(options.seed);
  if (!StartVector(start, &rng, n, ws)) {
    return Internal("Lanczos start vector vanished");
  }

  // Thick restart (Krylov-Schur): each cycle expands the basis to m rows,
  // solves the projected problem, and reads every Ritz residual off the
  // relation as ||f|| |y_last|. Unless the solve stops, the next basis is
  // the `keep` best Ritz vectors followed by f / ||f||.
  int kept = 0;
  int rows = 0;
  int built = 0;
  // Progress mark: vectors built, wanted pairs converged and the worst
  // wanted residual when it was last set.
  int mark_built = -1;
  int mark_converged = 0;
  double mark_worst = 0.0;
  for (;;) {
    const int top = std::min(m, kept + (budget - built));
    const double beta = Expand(matrix, sigma, kept, top, &rng, ws, &rows);
    built += rows - kept;
    RayleighRitz(kept, rows, ws);

    int converged = 0;
    double worst = 0.0;
    for (int j = 0; j < k; ++j) {
      const double residual =
          beta * std::fabs(ws->ritz_vectors(rows - 1, rows - 1 - j));
      if (residual <= tolerance) ++converged;
      worst = std::max(worst, residual);
    }
    // Progress is judged over the vectors of one restart-from-scratch pass
    // (`span`) since the mark, because residuals at the edge of the
    // spectral bulk wander from cycle to cycle. The solve has stalled when
    // those vectors neither converged a new wanted pair nor halved the
    // worst wanted residual, or when the pace at which they shrank it would
    // need more than kHopelessBudgets times the remaining budget to reach
    // the tolerance (a caller asking far more than the budget can buy).
    bool stalled = false;
    if (mark_built < 0) {
      mark_built = built;
    } else if (built - mark_built >= span) {
      const double pace = std::log(worst / mark_worst) / (built - mark_built);
      const bool hopeless =
          pace < 0.0 && std::log(tolerance / worst) / pace >
                            kHopelessBudgets * (budget - built);
      stalled = hopeless ||
                (converged <= mark_converged && worst > 0.5 * mark_worst);
      mark_built = built;
    }
    if (built == mark_built) {
      mark_converged = converged;
      mark_worst = worst;
    }
    // Stop once every wanted pair converged, progress stalled, or the
    // budget or the reachable space is spent; the pairs in hand are then
    // served.
    if (converged == k || stalled || built >= budget || rows < top) break;

    const int next = std::min(keep, rows - 1);
    AssembleRitzVectors(next, rows, n, ws);
    for (int t = 0; t < next; ++t) {
      const int c = rows - 1 - t;
      ws->alpha[static_cast<size_t>(t)] =
          ws->ritz_values[static_cast<size_t>(c)];
      ws->coupling[static_cast<size_t>(t)] =
          beta * ws->ritz_vectors(rows - 1, c);
    }
    double* direction = ws->restart.Row(next);
    std::copy(ws->w.begin(), ws->w.end(), direction);
    Scale(1.0 / beta, direction, n);
    std::swap(ws->basis, ws->restart);
    kept = next;
  }
  if (stats != nullptr) stats->iterations = built;

  // The k largest Ritz pairs of B, largest first, are the k smallest of M in
  // ascending order.
  AssembleRitzVectors(k, rows, n, ws);
  out->values.assign(static_cast<size_t>(k), 0.0);
  out->vectors.Reshape(n, k);
  for (int j = 0; j < k; ++j) {
    out->values[static_cast<size_t>(j)] =
        sigma - ws->ritz_values[static_cast<size_t>(rows - 1 - j)];
    double* vector = ws->restart.Row(j);
    Scale(1.0 / Norm2(vector, n), vector, n);
    for (int64_t i = 0; i < n; ++i) out->vectors(i, j) = vector[i];
  }
  return OkStatus();
}

}  // namespace la
}  // namespace sgla
