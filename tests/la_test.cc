// Unit tests for the la/ numerical substrate: SpMV and WeightedSum against
// dense references, Lanczos vs an analytic 3x3 spectrum, a seeded-random
// Lanczos oracle (orthonormality, residuals, dense-Jacobi spectra and
// thread-count bit-identity, plus objective-residual values against a
// converged reference on near-degenerate clusters; replay one seed with
// SGLA_LANCZOS_ORACLE_SEED),
// submatrix extraction and the truncated SVD, plus the per-ISA SIMD kernel
// contracts (remainder lanes, SELL layout, cross-ISA bit rules from
// la/simd_table.h).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "graph/laplacian.h"
#include "la/dense.h"
#include "la/eigen_sym.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "la/sparse.h"
#include "la/svd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace {

/// Pins the SIMD dispatch path for one test scope, restoring the previous
/// path on destruction. Construction asserts the ISA is available — tests
/// iterate simd::AvailableIsas(), so unavailable paths are skipped, not
/// failed.
class ScopedIsa {
 public:
  explicit ScopedIsa(la::simd::Isa isa) : previous_(la::simd::ActiveIsa()) {
    EXPECT_TRUE(la::simd::SetActiveForTesting(isa))
        << "pinning unavailable ISA " << la::simd::IsaName(isa);
  }
  ~ScopedIsa() { la::simd::SetActiveForTesting(previous_); }

 private:
  la::simd::Isa previous_;
};

/// The vector-width edge cases every per-ISA kernel test sweeps: below one
/// lane, around the 8-lane SELL slice, around the 512-row sort window /
/// shard alignment, and the ragged bitdump fixture size.
const int64_t kLaneSizes[] = {1, 7, 8, 9, 511, 512, 513, 2570};

la::CsrMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                           Rng* rng) {
  std::vector<la::Triplet> entries;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng->Uniform() < density) {
        entries.push_back({i, j, rng->Gaussian()});
      }
    }
  }
  return la::FromTriplets(rows, cols, std::move(entries));
}

TEST(SparseTest, SpmvMatchesDenseReference) {
  Rng rng(11);
  const la::CsrMatrix m = RandomSparse(37, 23, 0.2, &rng);
  const la::DenseMatrix dense = la::ToDense(m);
  la::Vector x(23);
  for (double& v : x) v = rng.Gaussian();
  la::Vector y(37, -1.0);
  la::Spmv(m, x.data(), y.data());
  for (int64_t i = 0; i < 37; ++i) {
    double expected = 0.0;
    for (int64_t j = 0; j < 23; ++j) {
      expected += dense(i, j) * x[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<size_t>(i)], expected, 1e-12);
  }
}

TEST(SparseTest, FromTripletsSumsDuplicates) {
  la::CsrMatrix m = la::FromTriplets(2, 2, {{0, 1, 1.5}, {0, 1, 2.5}, {1, 0, 1.0}});
  EXPECT_EQ(m.nnz(), 2);
  const la::DenseMatrix d = la::ToDense(m);
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
}

TEST(SparseTest, WeightedSumMatchesDenseReference) {
  Rng rng(12);
  const la::CsrMatrix a = RandomSparse(25, 25, 0.15, &rng);
  const la::CsrMatrix b = RandomSparse(25, 25, 0.15, &rng);
  const la::CsrMatrix c = RandomSparse(25, 25, 0.15, &rng);
  const la::CsrMatrix sum = la::WeightedSum({&a, &b, &c}, {0.25, 0.6, 0.15});
  const la::DenseMatrix da = la::ToDense(a), db = la::ToDense(b),
                        dc = la::ToDense(c), ds = la::ToDense(sum);
  for (int64_t i = 0; i < 25; ++i) {
    for (int64_t j = 0; j < 25; ++j) {
      EXPECT_NEAR(ds(i, j), 0.25 * da(i, j) + 0.6 * db(i, j) + 0.15 * dc(i, j),
                  1e-12);
    }
  }
}

TEST(SparseTest, SymmetricSubmatrixKeepsSelectedBlock) {
  Rng rng(13);
  const la::CsrMatrix m = RandomSparse(10, 10, 0.4, &rng);
  const std::vector<int64_t> keep = {1, 4, 7, 8};
  const la::CsrMatrix sub = la::SymmetricSubmatrix(m, keep);
  const la::DenseMatrix dm = la::ToDense(m), dsub = la::ToDense(sub);
  for (size_t i = 0; i < keep.size(); ++i) {
    for (size_t j = 0; j < keep.size(); ++j) {
      EXPECT_NEAR(dsub(static_cast<int64_t>(i), static_cast<int64_t>(j)),
                  dm(keep[i], keep[j]), 1e-14);
    }
  }
}

TEST(LanczosTest, Analytic3x3Spectrum) {
  // [[2,-1,0],[-1,2,-1],[0,-1,2]] has eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2).
  const la::CsrMatrix m = la::FromTriplets(
      3, 3,
      {{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 2.0}, {1, 2, -1.0},
       {2, 1, -1.0}, {2, 2, 2.0}});
  auto eigen = la::SmallestEigenpairs(m, 3, 4.0);
  ASSERT_TRUE(eigen.ok()) << eigen.status().ToString();
  const double sqrt2 = std::sqrt(2.0);
  EXPECT_NEAR(eigen->values[0], 2.0 - sqrt2, 1e-9);
  EXPECT_NEAR(eigen->values[1], 2.0, 1e-9);
  EXPECT_NEAR(eigen->values[2], 2.0 + sqrt2, 1e-9);
  // Residual check ||Mv - lambda v|| ~ 0 for every pair.
  for (int j = 0; j < 3; ++j) {
    la::Vector v(3), mv(3);
    for (int64_t i = 0; i < 3; ++i) v[static_cast<size_t>(i)] = eigen->vectors(i, j);
    la::Spmv(m, v.data(), mv.data());
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(mv[static_cast<size_t>(i)],
                  eigen->values[static_cast<size_t>(j)] * v[static_cast<size_t>(i)],
                  1e-8);
    }
  }
}

TEST(LanczosTest, LargeSparseMatchesDenseJacobi) {
  // Big enough to exercise the Lanczos path (dense fallback is <= 96 rows).
  Rng rng(14);
  std::vector<la::Triplet> entries;
  const int64_t n = 150;
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i, i, 1.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < n) {
      const double w = 0.3 * rng.Uniform();
      entries.push_back({i, i + 1, w});
      entries.push_back({i + 1, i, w});
    }
  }
  const la::CsrMatrix m = la::FromTriplets(n, n, std::move(entries));
  auto lanczos = la::SmallestEigenpairs(m, 4, 3.0);
  ASSERT_TRUE(lanczos.ok());

  la::Vector dense_values;
  la::DenseMatrix dense_vectors;
  la::JacobiEigenSymmetric(la::ToDense(m), &dense_values, &dense_vectors);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(lanczos->values[static_cast<size_t>(j)],
                dense_values[static_cast<size_t>(j)], 1e-7);
  }
}

/// Normalized Laplacian of an SBM graph with `blocks` planted clusters: the
/// `blocks` smallest eigenvalues sit well below the spectral bulk.
la::CsrMatrix ClusteredLaplacian(int64_t n, int blocks, Rng* rng) {
  const std::vector<int32_t> labels = data::BalancedLabels(n, blocks, rng);
  const double block_size = static_cast<double>(n) / blocks;
  const double p_in =
      std::min(1.0, (12.0 + 8.0 * rng->Uniform()) / block_size);
  const double p_out = p_in * (0.01 + 0.04 * rng->Uniform()) / blocks;
  return graph::NormalizedLaplacian(
      data::SbmGraph(labels, blocks, p_in, p_out, rng));
}

/// Block-diagonal Laplacian of three disconnected components: two identical
/// copies of one clustered component (so every eigenvalue of it is repeated)
/// after a third that absorbs the n mod 3 remainder (identical to the copies
/// when 3 divides n). Eigenvalue 0 has multiplicity at least 3, which
/// single-vector Lanczos can only resolve through deflated restarts.
la::CsrMatrix RepeatedComponentsLaplacian(int64_t n, int blocks, Rng* rng) {
  const int64_t size = n / 3;
  const la::CsrMatrix copy = ClusteredLaplacian(size, blocks, rng);
  const la::CsrMatrix first =
      n % 3 == 0 ? copy : ClusteredLaplacian(size + n % 3, blocks, rng);
  std::vector<la::Triplet> entries;
  int64_t offset = 0;
  for (const la::CsrMatrix* part : {&first, &copy, &copy}) {
    for (int64_t r = 0; r < part->rows; ++r) {
      const int64_t end = part->row_ptr[static_cast<size_t>(r) + 1];
      for (int64_t p = part->row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
        entries.push_back({offset + r,
                           offset + part->col_idx[static_cast<size_t>(p)],
                           part->values[static_cast<size_t>(p)]});
      }
    }
    offset += part->rows;
  }
  return la::FromTriplets(n, n, std::move(entries));
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

/// One oracle case: orthonormal output (||V^T V - I||_inf <= 1e-10), every
/// residual within the solver tolerance, dense-Jacobi eigenvalues for small
/// n, and — when `check_threads` (n spanning several orthogonalization
/// chunks) — identical bits at 1, 2, 4 and 8 pool threads.
void RunLanczosOracleCase(uint64_t seed, int64_t n, bool disconnected,
                          bool check_threads) {
  Rng rng(seed ^ (static_cast<uint64_t>(n) << 1) ^ (disconnected ? 1 : 0));
  const int k = static_cast<int>(rng.UniformInt(2, 8));
  const int blocks = k + 1 + static_cast<int>(rng.UniformInt(0, 3));
  const std::string fixture =
      "SGLA_LANCZOS_ORACLE_SEED=" + std::to_string(seed) +
      " n=" + std::to_string(n) + " k=" + std::to_string(k) +
      " blocks=" + std::to_string(blocks) +
      (disconnected ? " repeated-components" : " clustered");
  SCOPED_TRACE(fixture);
  const la::CsrMatrix m = disconnected
                              ? RepeatedComponentsLaplacian(n, blocks, &rng)
                              : ClusteredLaplacian(n, blocks, &rng);
  const double sigma = 2.0;  // normalized-Laplacian spectrum bound
  // The default subspace, max(2k + 24, 48), is an early-exit budget: on
  // the near-degenerate planted clusters below some pairs stop short of the
  // tolerance and are served as best leftovers (the documented design). A
  // 96-vector basis converges every case, so the residual bound holds, and
  // it doubles the rows each reorthogonalization sweep projects out.
  la::LanczosOptions options;
  options.max_subspace = 96;
  const double tolerance = options.tolerance * sigma;  // the solver's own

  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(1);
  auto eigen = la::SmallestEigenpairs(m, k, sigma, options);
  ASSERT_TRUE(eigen.ok()) << eigen.status().ToString();
  ASSERT_EQ(eigen->vectors.rows(), n);
  ASSERT_EQ(eigen->vectors.cols(), k);

  double gram_error = 0.0;  // max row sum of |V^T V - I|
  for (int a = 0; a < k; ++a) {
    double row_sum = 0.0;
    for (int b = 0; b < k; ++b) {
      double dot = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        dot += eigen->vectors(i, a) * eigen->vectors(i, b);
      }
      row_sum += std::fabs(dot - (a == b ? 1.0 : 0.0));
    }
    gram_error = std::max(gram_error, row_sum);
  }
  EXPECT_LE(gram_error, 1e-10) << fixture << ": ||V^T V - I||_inf";

  la::Vector v(static_cast<size_t>(n)), mv(static_cast<size_t>(n));
  for (int j = 0; j < k; ++j) {
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = eigen->vectors(i, j);
    }
    la::Spmv(m, v.data(), mv.data());
    la::Axpy(-eigen->values[static_cast<size_t>(j)], v.data(), mv.data(), n);
    EXPECT_LE(la::Norm2(mv.data(), n), tolerance)
        << fixture << ": residual of pair " << j;
  }

  if (n <= 600) {
    la::Vector dense_values;
    la::DenseMatrix dense_vectors;
    la::JacobiEigenSymmetric(la::ToDense(m), &dense_values, &dense_vectors);
    for (int j = 0; j < k; ++j) {
      EXPECT_NEAR(eigen->values[static_cast<size_t>(j)],
                  dense_values[static_cast<size_t>(j)], 1e-7)
          << fixture << ": eigenvalue " << j << " vs dense Jacobi";
    }
  }

  if (!check_threads) return;
  ASSERT_GE(util::ThreadPool::NumChunks(0, n, la::kOrthoGrain), 3) << fixture;
  for (int threads : {2, 4, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    auto again = la::SmallestEigenpairs(m, k, sigma, options);
    ASSERT_TRUE(again.ok()) << fixture << ": " << again.status().ToString();
    EXPECT_EQ(again->values, eigen->values)
        << fixture << ": eigenvalues differ at threads=" << threads;
    EXPECT_EQ(again->vectors.data(), eigen->vectors.data())
        << fixture << ": eigenvectors differ at threads=" << threads;
  }
}

TEST(LanczosTest, SeededRandomOracle) {
  // SGLA_LANCZOS_ORACLE_SEED replays one seed across every size and kind.
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("SGLA_LANCZOS_ORACLE_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    seeds = {20261017, 20261018};
  }
  // Around one orthogonalization chunk (kOrthoGrain = 2048) and its ragged
  // multiples, plus one tiny Lanczos-path size and one large one. The
  // thread sweep runs at n = 6145: three full chunks and a one-element tail.
  for (uint64_t seed : seeds) {
    for (int64_t n : {97, 2047, 2048, 2049, 6145, 20000}) {
      for (bool disconnected : {false, true}) {
        RunLanczosOracleCase(seed, n, disconnected,
                             /*check_threads=*/n == 6145);
      }
    }
  }
}

/// Residual every objective evaluation solves lambda_1..lambda_{k+1} to
/// (core::SpectralObjective), and the accuracy it must buy.
constexpr double kObjectiveResidual = 3e-4;
constexpr double kObjectiveAccuracy = 2e-4;

/// The spectral terms of the objective h (la/ knows no weights):
/// g_k = lambda_k / lambda_{k+1} minus lambda_2, from k + 1 ascending values.
double SpectralTerms(const la::Vector& lambda, int k) {
  const double lk = std::max(0.0, lambda[static_cast<size_t>(k) - 1]);
  const double lk1 = std::max(0.0, lambda[static_cast<size_t>(k)]);
  return std::min(lk / std::max(lk1, 1e-12), 1.0) - std::max(0.0, lambda[1]);
}

/// Solves the k + 1 smallest pairs of `m` at the objective's residual and
/// expects every value, and the spectral terms, within kObjectiveAccuracy
/// of `reference`.
void ExpectObjectiveAccuracy(const la::CsrMatrix& m, int k,
                             const la::LanczosOptions& options,
                             const la::DenseMatrix* start,
                             const la::Vector& reference,
                             const std::string& what) {
  la::LanczosWorkspace ws;
  la::Eigenpairs eigen;
  ASSERT_TRUE(la::SmallestEigenpairsInto(la::CsrSpmvOperator(m), k + 1, 2.0,
                                         options, &ws, &eigen, nullptr, start)
                  .ok())
      << what;
  for (int j = 0; j <= k; ++j) {
    EXPECT_NEAR(eigen.values[static_cast<size_t>(j)],
                reference[static_cast<size_t>(j)], kObjectiveAccuracy)
        << what << ": lambda_" << j + 1;
  }
  EXPECT_NEAR(SpectralTerms(eigen.values, k), SpectralTerms(reference, k),
              kObjectiveAccuracy)
      << what << ": h";
}

/// Near-degenerate clustered case, shaped like an objective evaluation:
/// k + 1 wanted pairs of an aggregate of two views over the same balanced
/// planted clusters of one density, at least k + 1 of them, so the wanted
/// cluster eigenvalues nearly coincide. Values at the objective's residual
/// — cold from two seeds, and started from the Ritz vectors of a nearby
/// aggregate — must match a converged reference (every pair to 1e-8)
/// within kObjectiveAccuracy.
void RunObjectiveAccuracyCase(uint64_t seed, int64_t n) {
  Rng rng(seed ^ (static_cast<uint64_t>(n) << 1) ^ 0xacc);
  const int k = static_cast<int>(rng.UniformInt(2, 6));
  const int blocks = k + 1 + static_cast<int>(rng.UniformInt(0, 2));
  const std::string fixture =
      "SGLA_LANCZOS_ORACLE_SEED=" + std::to_string(seed) +
      " n=" + std::to_string(n) + " k=" + std::to_string(k) +
      " blocks=" + std::to_string(blocks) + " near-degenerate";
  SCOPED_TRACE(fixture);
  const std::vector<int32_t> labels = data::BalancedLabels(n, blocks, &rng);
  const double p_in =
      (12.0 + 8.0 * rng.Uniform()) * blocks / static_cast<double>(n);
  const la::CsrMatrix a = graph::NormalizedLaplacian(
      data::SbmGraph(labels, blocks, p_in, p_in * 0.02, &rng));
  const la::CsrMatrix b = graph::NormalizedLaplacian(
      data::SbmGraph(labels, blocks, p_in, p_in * 0.04, &rng));
  const la::CsrMatrix m = la::WeightedSum({&a, &b}, {0.6, 0.4});
  const la::CsrMatrix nearby = la::WeightedSum({&a, &b}, {0.55, 0.45});

  la::LanczosOptions converged;
  converged.tolerance = 1e-8 / 2.0;
  converged.max_subspace = 160;
  auto reference = la::SmallestEigenpairs(m, k + 1, 2.0, converged);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  la::Vector v(static_cast<size_t>(n)), mv(static_cast<size_t>(n));
  for (int j = 0; j <= k; ++j) {
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = reference->vectors(i, j);
    }
    la::Spmv(m, v.data(), mv.data());
    la::Axpy(-reference->values[static_cast<size_t>(j)], v.data(), mv.data(),
             n);
    ASSERT_LE(la::Norm2(mv.data(), n), 1e-8) << "reference pair " << j;
  }

  la::LanczosOptions options;
  options.tolerance = kObjectiveResidual / 2.0;
  for (uint64_t lanczos_seed : {options.seed, seed + 1}) {
    options.seed = lanczos_seed;
    ExpectObjectiveAccuracy(m, k, options, nullptr, reference->values,
                            "cold, seed " + std::to_string(lanczos_seed));
  }
  auto previous = la::SmallestEigenpairs(nearby, k + 1, 2.0, options);
  ASSERT_TRUE(previous.ok());
  ExpectObjectiveAccuracy(m, k, options, &previous->vectors,
                          reference->values, "started from a nearby solve");
}

TEST(LanczosTest, ObjectiveResidualMeetsConvergedReference) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("SGLA_LANCZOS_ORACLE_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    seeds = {20261017, 20261018};
  }
  for (uint64_t seed : seeds) {
    for (int64_t n : {6145, 12289}) RunObjectiveAccuracyCase(seed, n);
  }
}

/// The threads x shards x ISA determinism gate (sgla_bitdump, and the
/// largest sharding_test oracle case) runs at n = 2570; that n must span
/// several orthogonalization chunks so the gate exercises the chunk-ordered
/// merge of the reorthogonalization dots.
TEST(LanczosTest, BitdumpSizeSpansSeveralOrthogonalizationChunks) {
  EXPECT_GE(util::ThreadPool::NumChunks(0, 2570, la::kOrthoGrain), 2);
}

/// Satellite: every compiled-and-runnable ISA path must produce correct SpMV
/// results at remainder-lane sizes, and two identical calls must produce
/// identical bits (reductions are a pure function of the operands within one
/// ISA).
TEST(SimdTest, SpmvRemainderLanesPerIsa) {
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    for (int64_t n : kLaneSizes) {
      Rng rng(100 + n);
      const double density = std::min(1.0, 8.0 / static_cast<double>(n));
      const la::CsrMatrix m = RandomSparse(n, n, density, &rng);
      la::Vector x(static_cast<size_t>(n));
      for (double& v : x) v = rng.Gaussian();
      la::Vector y(static_cast<size_t>(n), -1.0);
      la::Spmv(m, x.data(), y.data());
      const la::DenseMatrix dense = la::ToDense(m);
      for (int64_t i = 0; i < n; ++i) {
        double expected = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          expected += dense(i, j) * x[static_cast<size_t>(j)];
        }
        EXPECT_NEAR(y[static_cast<size_t>(i)], expected, 1e-10)
            << la::simd::IsaName(isa) << " n=" << n << " row " << i;
      }
      la::Vector again(static_cast<size_t>(n), 7.0);
      la::Spmv(m, x.data(), again.data());
      EXPECT_EQ(y, again) << la::simd::IsaName(isa) << " n=" << n
                          << ": SpMV not bit-stable within one ISA";
    }
  }
}

/// Satellite: the SELL-C-sigma form must agree with the CSR SpMV on every
/// ISA — numerically everywhere, and bit-for-bit under scalar (the scalar
/// SELL kernel walks each row's entries in CSR order, skipping padding).
TEST(SimdTest, SellSpmvMatchesCsrPerIsa) {
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    for (int64_t n : kLaneSizes) {
      Rng rng(200 + n);
      const double density = std::min(1.0, 8.0 / static_cast<double>(n));
      const la::CsrMatrix m = RandomSparse(n, n, density, &rng);
      la::SellMatrix sell;
      la::BuildSellPattern(m, &sell);
      la::FillSellValues(m.values, &sell);
      la::Vector x(static_cast<size_t>(n));
      for (double& v : x) v = rng.Gaussian();
      la::Vector y_csr(static_cast<size_t>(n), -1.0);
      la::Vector y_sell(static_cast<size_t>(n), -2.0);
      la::Spmv(m, x.data(), y_csr.data());
      la::SellSpmv(sell, x.data(), y_sell.data());
      for (int64_t i = 0; i < n; ++i) {
        if (isa == la::simd::Isa::kScalar) {
          EXPECT_EQ(y_sell[static_cast<size_t>(i)],
                    y_csr[static_cast<size_t>(i)])
              << "scalar SELL must be bit-identical to CSR, n=" << n
              << " row " << i;
        } else {
          EXPECT_NEAR(y_sell[static_cast<size_t>(i)],
                      y_csr[static_cast<size_t>(i)], 1e-10)
              << la::simd::IsaName(isa) << " n=" << n << " row " << i;
        }
      }
    }
  }
}

/// Satellite: element-wise kernels (axpy, scale, sigma_sub, scatter_axpy)
/// must be bit-identical to scalar on EVERY ISA path — each output element
/// is one separately-rounded mul + add, never an FMA (see la/simd_table.h).
TEST(SimdTest, ElementWiseKernelsBitIdenticalAcrossIsas) {
  for (int64_t n : kLaneSizes) {
    Rng rng(300 + n);
    la::Vector x(static_cast<size_t>(n)), y0(static_cast<size_t>(n));
    for (double& v : x) v = rng.Gaussian();
    for (double& v : y0) v = rng.Gaussian();
    std::vector<int64_t> map(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) map[static_cast<size_t>(i)] = 2 * i;

    // Scalar reference pass.
    la::Vector axpy_ref, scale_ref, sig_ref, scat_ref;
    {
      ScopedIsa pin(la::simd::Isa::kScalar);
      const la::simd::KernelTable* t = la::simd::ActiveTable();
      axpy_ref = y0;
      t->axpy(1.7, x.data(), axpy_ref.data(), n);
      scale_ref = y0;
      t->scale(0.3, scale_ref.data(), n);
      sig_ref = y0;
      t->sigma_sub(2.0, x.data(), sig_ref.data(), n);
      scat_ref.assign(static_cast<size_t>(2 * n), 0.5);
      t->scatter_axpy(0.9, x.data(), map.data(), n, scat_ref.data());
    }
    for (la::simd::Isa isa : la::simd::AvailableIsas()) {
      if (isa == la::simd::Isa::kScalar) continue;
      ScopedIsa pin(isa);
      const la::simd::KernelTable* t = la::simd::ActiveTable();
      la::Vector out = y0;
      t->axpy(1.7, x.data(), out.data(), n);
      EXPECT_EQ(out, axpy_ref) << la::simd::IsaName(isa) << " axpy n=" << n;
      out = y0;
      t->scale(0.3, out.data(), n);
      EXPECT_EQ(out, scale_ref) << la::simd::IsaName(isa) << " scale n=" << n;
      out = y0;
      t->sigma_sub(2.0, x.data(), out.data(), n);
      EXPECT_EQ(out, sig_ref) << la::simd::IsaName(isa)
                              << " sigma_sub n=" << n;
      out.assign(static_cast<size_t>(2 * n), 0.5);
      t->scatter_axpy(0.9, x.data(), map.data(), n, out.data());
      EXPECT_EQ(out, scat_ref) << la::simd::IsaName(isa)
                               << " scatter_axpy n=" << n;
    }
  }
}

/// Satellite: reduction kernels must be numerically right and bit-stable
/// within each ISA at every remainder-lane size.
TEST(SimdTest, ReductionKernelsPerIsa) {
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    const la::simd::KernelTable* t = la::simd::ActiveTable();
    for (int64_t n : kLaneSizes) {
      Rng rng(400 + n);
      la::Vector x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
      for (double& v : x) v = rng.Gaussian();
      for (double& v : y) v = rng.Gaussian();
      long double dot_ref = 0.0L, dist_ref = 0.0L;
      for (int64_t i = 0; i < n; ++i) {
        const size_t s = static_cast<size_t>(i);
        dot_ref += static_cast<long double>(x[s]) * y[s];
        const long double d = static_cast<long double>(x[s]) - y[s];
        dist_ref += d * d;
      }
      const double dot = t->dot(x.data(), y.data(), n);
      const double dist = t->squared_distance(x.data(), y.data(), n);
      const double tol = 1e-12 * static_cast<double>(n) + 1e-12;
      EXPECT_NEAR(dot, static_cast<double>(dot_ref), tol)
          << la::simd::IsaName(isa) << " dot n=" << n;
      EXPECT_NEAR(dist, static_cast<double>(dist_ref), tol)
          << la::simd::IsaName(isa) << " squared_distance n=" << n;
      EXPECT_EQ(dot, t->dot(x.data(), y.data(), n));
      EXPECT_EQ(dist, t->squared_distance(x.data(), y.data(), n));
    }
  }
}

TEST(SvdTest, RecoversLowRankMatrix) {
  Rng rng(15);
  la::DenseMatrix u(40, 3), v(3, 20);
  for (auto& value : u.data()) value = rng.Gaussian();
  for (auto& value : v.data()) value = rng.Gaussian();
  const la::DenseMatrix m = la::MatMul(u, v);  // rank 3 by construction
  auto svd = la::TruncatedSvd(m, 5);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd->singular_values[2], 1e-6);
  EXPECT_LT(svd->singular_values[3], 1e-6 * svd->singular_values[0]);
}

}  // namespace
}  // namespace sgla
