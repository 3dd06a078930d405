// NormalizedLaplacian invariants: symmetry, PSD-ness, the D^{1/2}1 null
// vector, unit diagonal, spectrum within [0, 2]; the direct-CSR build
// against the triplet build it replaced, bit for bit, at 1 and 4 threads;
// KNN graph sanity on well-separated blobs; the flat-heap KNN against a
// copy of the vector-of-vectors implementation it replaced, edge for edge.
#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "graph/graph.h"
#include "graph/knn.h"
#include "graph/laplacian.h"
#include "la/lanczos.h"
#include "la/sparse.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace {

graph::Graph TestGraph() {
  return graph::Graph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 1.0}, {3, 4, 1.0}, {4, 5, 0.5},
          {2, 3, 0.25}});
}

TEST(LaplacianTest, SymmetricWithUnitDiagonal) {
  const la::CsrMatrix l = graph::NormalizedLaplacian(TestGraph());
  const la::DenseMatrix d = la::ToDense(l);
  for (int64_t i = 0; i < d.rows(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 1.0);
    for (int64_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d(i, j), d(j, i), 1e-14);
    }
  }
}

TEST(LaplacianTest, SqrtDegreeVectorIsInNullSpace) {
  const graph::Graph g = TestGraph();
  const la::CsrMatrix l = graph::NormalizedLaplacian(g);
  // Row sums of L weighted by sqrt(degree): L * D^{1/2} 1 = 0.
  std::vector<double> degree(6, 0.0);
  for (const graph::Edge& e : g.edges()) {
    degree[static_cast<size_t>(e.u)] += e.weight;
    degree[static_cast<size_t>(e.v)] += e.weight;
  }
  la::Vector x(6), y(6);
  for (int i = 0; i < 6; ++i) {
    x[static_cast<size_t>(i)] = std::sqrt(degree[static_cast<size_t>(i)]);
  }
  la::Spmv(l, x.data(), y.data());
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(y[static_cast<size_t>(i)], 0.0, 1e-12);
  }
}

TEST(LaplacianTest, PsdWithSpectrumInZeroTwo) {
  Rng rng(21);
  std::vector<int32_t> labels = data::BalancedLabels(80, 3, &rng);
  const graph::Graph g = data::SbmGraph(labels, 3, 0.3, 0.05, &rng);
  const la::CsrMatrix l = graph::NormalizedLaplacian(g);
  auto eigen = la::SmallestEigenpairs(l, 80, 2.0);
  ASSERT_TRUE(eigen.ok());
  EXPECT_GE(eigen->values.front(), -1e-9);              // PSD
  EXPECT_NEAR(eigen->values.front(), 0.0, 1e-9);        // lambda_1 = 0
  EXPECT_LE(eigen->values.back(), 2.0 + 1e-9);          // normalized bound
  // Random quadratic forms are non-negative too.
  la::Vector x(80), y(80);
  for (int trial = 0; trial < 5; ++trial) {
    for (double& v : x) v = rng.Gaussian();
    la::Spmv(l, x.data(), y.data());
    EXPECT_GE(la::Dot(x.data(), y.data(), 80), -1e-9);
  }
}

TEST(LaplacianTest, DisconnectedComponentsGiveZeroEigenvalues) {
  // Two disjoint triangles: lambda_1 = lambda_2 = 0, lambda_3 > 0.
  const graph::Graph g = graph::Graph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0},
          {3, 4, 1.0}, {4, 5, 1.0}, {5, 3, 1.0}});
  auto eigen = la::SmallestEigenpairs(graph::NormalizedLaplacian(g), 3, 2.0);
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], 0.0, 1e-10);
  EXPECT_NEAR(eigen->values[1], 0.0, 1e-10);
  EXPECT_GT(eigen->values[2], 0.5);
}

TEST(LaplacianTest, LargeDisconnectedGraphKeepsEigenvalueMultiplicity) {
  // Two disjoint SBM components, large enough for the Lanczos path (> 96
  // nodes): lambda_1 = lambda_2 = 0 exactly. Single-vector Lanczos without
  // deflated restarts collapses the repeated zero to multiplicity 1.
  Rng rng(24);
  std::vector<int32_t> labels = data::BalancedLabels(150, 2, &rng);
  const graph::Graph g = data::SbmGraph(labels, 2, 0.2, 0.0, &rng);
  auto eigen = la::SmallestEigenpairs(graph::NormalizedLaplacian(g), 3, 2.0);
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], 0.0, 1e-8);
  EXPECT_NEAR(eigen->values[1], 0.0, 1e-8);
  EXPECT_GT(eigen->values[2], 0.05);
}

// ---------------------------------------------------------------------------
// Direct-CSR build vs the triplet build it replaced. TripletAdjacency and
// TripletLaplacian are copies of the former implementation: symmetrized
// triplets -> FromTriplets (global sort + coalesce) -> normalize -> negated
// triplets plus a unit diagonal -> FromTriplets again.
// ---------------------------------------------------------------------------

la::CsrMatrix TripletAdjacency(const graph::Graph& g) {
  std::vector<la::Triplet> entries;
  for (const graph::Edge& e : g.edges()) {
    if (e.u == e.v) continue;
    entries.push_back({e.u, e.v, e.weight});
    entries.push_back({e.v, e.u, e.weight});
  }
  la::CsrMatrix a =
      la::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(entries));
  std::vector<double> degrees(static_cast<size_t>(g.num_nodes()), 0.0);
  for (int64_t r = 0; r < a.rows; ++r) {
    for (int64_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      degrees[r] += a.values[p];
    }
  }
  std::vector<double> inv_sqrt(degrees.size(), 0.0);
  for (size_t i = 0; i < degrees.size(); ++i) {
    if (degrees[i] > 0.0) inv_sqrt[i] = 1.0 / std::sqrt(degrees[i]);
  }
  for (int64_t r = 0; r < a.rows; ++r) {
    for (int64_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      a.values[p] *= inv_sqrt[r] * inv_sqrt[a.col_idx[p]];
    }
  }
  return a;
}

la::CsrMatrix TripletLaplacian(const graph::Graph& g) {
  const la::CsrMatrix a = TripletAdjacency(g);
  std::vector<la::Triplet> entries;
  for (int64_t r = 0; r < a.rows; ++r) {
    for (int64_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      entries.push_back({r, a.col_idx[p], -a.values[p]});
    }
    if (a.row_ptr[r + 1] > a.row_ptr[r]) entries.push_back({r, r, 1.0});
  }
  return la::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(entries));
}

/// The Laplacian with every (row, col) sum defined in edge-list order: each
/// sum starts at 0.0 and adds its copies as the edge list meets them. For
/// three or more copies this is the only defined order (the triplet build's
/// std::sort leaves it unspecified).
la::CsrMatrix EdgeOrderLaplacian(const graph::Graph& g) {
  std::map<std::pair<int64_t, int64_t>, double> sums;
  for (const graph::Edge& e : g.edges()) {
    if (e.u == e.v) continue;
    sums.emplace(std::make_pair(e.u, e.v), 0.0).first->second += e.weight;
    sums.emplace(std::make_pair(e.v, e.u), 0.0).first->second += e.weight;
  }
  std::vector<double> degrees(static_cast<size_t>(g.num_nodes()), 0.0);
  for (const auto& [rc, a] : sums) degrees[rc.first] += a;
  std::vector<double> inv_sqrt(degrees.size(), 0.0);
  for (size_t i = 0; i < degrees.size(); ++i) {
    if (degrees[i] > 0.0) inv_sqrt[i] = 1.0 / std::sqrt(degrees[i]);
  }
  std::vector<la::Triplet> entries;
  std::vector<bool> has_entry(degrees.size(), false);
  for (const auto& [rc, a] : sums) {
    entries.push_back(
        {rc.first, rc.second, -(a * (inv_sqrt[rc.first] * inv_sqrt[rc.second]))});
    has_entry[rc.first] = true;
  }
  for (int64_t i = 0; i < g.num_nodes(); ++i) {
    if (has_entry[i]) entries.push_back({i, i, 1.0});
  }
  // One triplet per (row, col): FromTriplets only orders and adds 0.0.
  return la::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(entries));
}

/// A random multigraph on n nodes with ~4 edges per node: ~10% isolated
/// nodes, self loops, zero weights, one hub (a row longer than the
/// insertion-sort cutoff), and parallel copies of a pair in either
/// orientation, at most `max_copies` edges per unordered pair.
graph::Graph RandomMultigraph(int64_t n, int max_copies, Rng* rng) {
  std::vector<int64_t> connected;
  for (int64_t i = 0; i < n; ++i) {
    if (rng->Uniform() >= 0.1) connected.push_back(i);
  }
  graph::Graph g(n);
  if (connected.empty()) return g;
  std::map<std::pair<int64_t, int64_t>, int> copies;
  const auto pick = [&]() {
    return connected[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(connected.size()) - 1))];
  };
  for (int64_t i = 0; i < 4 * n; ++i) {
    int64_t u = pick();
    int64_t v = pick();
    const double roll = rng->Uniform();
    if (roll < 0.05) {
      v = u;  // self loop
    } else if (roll < 0.15) {
      u = connected.front();  // the hub
    } else if (roll < 0.35 && g.num_edges() > 0) {
      // Another copy of an earlier edge, in a random orientation.
      const graph::Edge& e = g.edges()[static_cast<size_t>(
          rng->UniformInt(0, g.num_edges() - 1))];
      u = e.u;
      v = e.v;
      if (rng->Uniform() < 0.5) std::swap(u, v);
    }
    int& count = copies[{std::min(u, v), std::max(u, v)}];
    if (u != v && count >= max_copies) continue;
    ++count;
    g.AddEdge(u, v, rng->Uniform() < 0.1 ? 0.0 : 0.01 + 2.0 * rng->Uniform());
  }
  return g;
}

/// Same shape, same pattern and the same value bits (memcmp, so -0.0 and
/// +0.0 differ).
void ExpectBitIdentical(const la::CsrMatrix& got, const la::CsrMatrix& want) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.cols, want.cols);
  ASSERT_EQ(got.row_ptr, want.row_ptr);
  ASSERT_EQ(got.col_idx, want.col_idx);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (size_t p = 0; p < got.values.size(); ++p) {
    ASSERT_EQ(std::memcmp(&got.values[p], &want.values[p], sizeof(double)), 0)
        << "entry " << p << ": " << got.values[p] << " vs " << want.values[p];
  }
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

TEST(LaplacianTest, DirectCsrBuildMatchesTripletReference) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    for (int64_t n : {1, 97, 2047, 2048, 2049, 6145}) {
      const uint64_t seed = 9000 + static_cast<uint64_t>(n);
      SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                   std::to_string(threads));
      Rng rng(seed);
      const graph::Graph g = RandomMultigraph(n, /*max_copies=*/2, &rng);
      ExpectBitIdentical(graph::NormalizedLaplacian(g), TripletLaplacian(g));
      ExpectBitIdentical(graph::NormalizedAdjacency(g), TripletAdjacency(g));
    }
  }
}

TEST(LaplacianTest, ParallelCopiesCoalesceInEdgeListOrder) {
  // Three or more copies of a pair: the pattern still equals the triplet
  // build's, and every value is the edge-list-order sum, bit for bit.
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    for (int64_t n : {97, 2049}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                   std::to_string(threads));
      Rng rng(9100 + static_cast<uint64_t>(n));
      const graph::Graph g = RandomMultigraph(n, /*max_copies=*/6, &rng);
      const la::CsrMatrix got = graph::NormalizedLaplacian(g);
      const la::CsrMatrix triplet = TripletLaplacian(g);
      EXPECT_EQ(got.row_ptr, triplet.row_ptr);
      EXPECT_EQ(got.col_idx, triplet.col_idx);
      ExpectBitIdentical(got, EdgeOrderLaplacian(g));
    }
  }
}

TEST(KnnTest, ConnectsWithinBlobsOnSeparatedData) {
  Rng rng(22);
  std::vector<int32_t> labels = data::BalancedLabels(120, 3, &rng);
  la::DenseMatrix x = data::GaussianAttributes(labels, 3, 8, 8.0, 0.3, &rng);
  graph::KnnOptions options;
  options.k = 5;
  const graph::Graph g = graph::KnnGraph(x, options);
  EXPECT_EQ(g.num_nodes(), 120);
  EXPECT_GE(g.num_edges(), 120 * 5 / 2);
  int64_t cross = 0;
  for (const graph::Edge& e : g.edges()) {
    if (labels[static_cast<size_t>(e.u)] != labels[static_cast<size_t>(e.v)]) {
      ++cross;
    }
  }
  // With separation 8 >> noise 0.3, essentially every edge stays in-blob.
  EXPECT_LT(static_cast<double>(cross), 0.05 * static_cast<double>(g.num_edges()));
}

TEST(KnnTest, ApproximatePathCoversExactNeighborsMostly) {
  Rng rng(23);
  std::vector<int32_t> labels = data::BalancedLabels(300, 3, &rng);
  la::DenseMatrix x = data::GaussianAttributes(labels, 3, 6, 4.0, 0.8, &rng);
  graph::KnnOptions exact;
  exact.k = 6;
  exact.exact_threshold = 1 << 30;
  graph::KnnOptions approx = exact;
  approx.exact_threshold = 1;  // force the RP-forest path
  const graph::Graph ge = graph::KnnGraph(x, exact);
  const graph::Graph ga = graph::KnnGraph(x, approx);
  std::map<std::pair<int64_t, int64_t>, bool> exact_edges;
  for (const graph::Edge& e : ge.edges()) {
    exact_edges[{std::min(e.u, e.v), std::max(e.u, e.v)}] = true;
  }
  int64_t recalled = 0;
  for (const graph::Edge& e : ga.edges()) {
    if (exact_edges.count({std::min(e.u, e.v), std::max(e.u, e.v)}) > 0) {
      ++recalled;
    }
  }
  // The forest should recover a solid majority of true neighbor pairs.
  EXPECT_GT(static_cast<double>(recalled),
            0.5 * static_cast<double>(ge.num_edges()));
}

// The KNN graph as built before the flat heaps: one growing vector per node
// per tree, a duplicate scan before every offer, fresh vectors per RP
// split, the trees merged one whole tree after another and the edges
// symmetrized through a std::set. Kept as the oracle the flat-heap build
// must match exactly.
namespace reference {

using Candidate = std::pair<double, int64_t>;

class NeighborHeap {
 public:
  NeighborHeap(int64_t n, int k) : k_(k), heaps_(static_cast<size_t>(n)) {}

  void Offer(int64_t node, int64_t neighbor, double dist2) {
    auto& heap = heaps_[static_cast<size_t>(node)];
    for (const Candidate& c : heap) {
      if (c.second == neighbor) return;
    }
    if (static_cast<int>(heap.size()) < k_) {
      heap.push_back({dist2, neighbor});
      std::push_heap(heap.begin(), heap.end());
    } else if (dist2 < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist2, neighbor};
      std::push_heap(heap.begin(), heap.end());
    }
  }

  const std::vector<Candidate>& Of(int64_t node) const {
    return heaps_[static_cast<size_t>(node)];
  }

 private:
  int k_;
  std::vector<std::vector<Candidate>> heaps_;
};

void BruteForceBlock(const la::DenseMatrix& points,
                     const std::vector<int64_t>& block, NeighborHeap* heap) {
  const int64_t d = points.cols();
  for (size_t a = 0; a < block.size(); ++a) {
    for (size_t b = a + 1; b < block.size(); ++b) {
      const int64_t i = block[a];
      const int64_t j = block[b];
      const double dist2 =
          la::SquaredDistance(points.Row(i), points.Row(j), d);
      heap->Offer(i, j, dist2);
      heap->Offer(j, i, dist2);
    }
  }
}

void RpTreeSplit(const la::DenseMatrix& points, std::vector<int64_t> nodes,
                 int leaf_size, Rng* rng, NeighborHeap* heap) {
  if (static_cast<int>(nodes.size()) <= leaf_size) {
    BruteForceBlock(points, nodes, heap);
    return;
  }
  const int64_t d = points.cols();
  la::Vector direction(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) {
    direction[static_cast<size_t>(j)] = rng->Gaussian();
  }
  std::vector<double> projection(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    projection[i] = la::Dot(points.Row(nodes[i]), direction.data(), d);
  }
  std::vector<double> sorted = projection;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<int64_t> left, right;
  for (size_t i = 0; i < nodes.size(); ++i) {
    (projection[i] < median ? left : right).push_back(nodes[i]);
  }
  if (left.empty() || right.empty()) {
    left.assign(nodes.begin(), nodes.begin() + nodes.size() / 2);
    right.assign(nodes.begin() + nodes.size() / 2, nodes.end());
  }
  RpTreeSplit(points, std::move(left), leaf_size, rng, heap);
  RpTreeSplit(points, std::move(right), leaf_size, rng, heap);
}

// Serial throughout: the pool-parallel original was bit-identical to it.
std::vector<std::pair<int64_t, int64_t>> KnnEdges(
    const la::DenseMatrix& points, const graph::KnnOptions& options) {
  const int64_t n = points.rows();
  NeighborHeap heap(n, options.k);
  if (n <= options.exact_threshold) {
    std::vector<int64_t> all(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
    BruteForceBlock(points, all, &heap);
  } else {
    std::vector<NeighborHeap> tree_heaps;
    for (int t = 0; t < options.trees; ++t) {
      tree_heaps.emplace_back(n, options.k);
      Rng tree_rng(options.seed +
                   0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1));
      std::vector<int64_t> all(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
      RpTreeSplit(points, std::move(all), options.leaf_size, &tree_rng,
                  &tree_heaps.back());
    }
    for (int t = 0; t < options.trees; ++t) {
      for (int64_t i = 0; i < n; ++i) {
        for (const Candidate& c : tree_heaps[static_cast<size_t>(t)].Of(i)) {
          heap.Offer(i, c.second, c.first);
        }
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i < n; ++i) {
    for (const Candidate& c : heap.Of(i)) {
      edges.insert({std::min(i, c.second), std::max(i, c.second)});
    }
  }
  return {edges.begin(), edges.end()};
}

}  // namespace reference

std::vector<std::pair<int64_t, int64_t>> EdgePairs(const graph::Graph& g) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (const graph::Edge& e : g.edges()) {
    EXPECT_EQ(e.weight, 1.0);
    edges.push_back({e.u, e.v});
  }
  return edges;
}

// Small integer coordinates and exact duplicate rows: many distances tie,
// including at every heap's k-th boundary.
la::DenseMatrix TiedPoints(int64_t n, uint64_t seed) {
  Rng rng(seed);
  const int64_t d = 5;
  la::DenseMatrix x(n, d);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0 && rng.UniformInt(0, 3) == 0) {
      const int64_t source = rng.UniformInt(0, i - 1);
      for (int64_t j = 0; j < d; ++j) x(i, j) = x(source, j);
    } else {
      for (int64_t j = 0; j < d; ++j) {
        x(i, j) = static_cast<double>(rng.UniformInt(-2, 2));
      }
    }
  }
  return x;
}

void ExpectMatchesReference(const la::DenseMatrix& x,
                            const graph::KnnOptions& options) {
  SCOPED_TRACE("n=" + std::to_string(x.rows()) +
               " k=" + std::to_string(options.k) +
               " leaf_size=" + std::to_string(options.leaf_size) +
               " trees=" + std::to_string(options.trees) +
               " exact_threshold=" + std::to_string(options.exact_threshold));
  const auto want = reference::KnnEdges(x, options);
  // One thread runs every calling context on the same serial schedule; at
  // four, the build runs across the pool at top level, inline under an
  // InlineScope, and inline again from inside a worker's chunk.
  util::ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(EdgePairs(graph::KnnGraph(x, options)), want) << "1 thread";
  util::ThreadPool::SetGlobalThreads(4);
  EXPECT_EQ(EdgePairs(graph::KnnGraph(x, options)), want) << "top level";
  {
    util::ThreadPool::InlineScope inline_scope;
    EXPECT_EQ(EdgePairs(graph::KnnGraph(x, options)), want) << "inline scope";
  }
  util::ThreadPool::Global().ParallelFor(0, 2, 1, [&](int64_t lo, int64_t) {
    if (lo != 0) return;
    EXPECT_TRUE(util::ThreadPool::InParallelRegion());
    EXPECT_EQ(EdgePairs(graph::KnnGraph(x, options)), want)
        << "inside a ParallelFor chunk";
  });
}

TEST(KnnTest, FlatForestMatchesReference) {
  ThreadCountGuard guard;
  for (int64_t n : {1, 2, 11, 2047, 2048, 2049, 8193}) {
    const la::DenseMatrix x = TiedPoints(n, 7000 + static_cast<uint64_t>(n));
    for (int64_t k : {int64_t{1}, int64_t{10}, n - 1, n + 5}) {
      if (k < 1) continue;
      // k >= n - 1 leaves every heap unbounded by k: each reference offer
      // scans up to n - 1 (exact) or trees x (leaf_size - 1) (forest)
      // candidates. Past 11 nodes those runs stay on narrow leaves.
      const bool wide_k = k >= n - 1 && n > 11;
      // The exact path ignores leaf_size and trees; exact_threshold = 0
      // sends the small inputs through the forest as well.
      for (int64_t threshold : {int64_t{2048}, int64_t{0}}) {
        const bool exact = n <= threshold;
        if (threshold == 0 && n > 11) continue;
        if (exact && wide_k) continue;
        for (int leaf_size : {1, 2, 7, 96}) {
          for (int trees : {1, 3, 8}) {
            if (exact && (leaf_size != 96 || trees != 8)) continue;
            if (wide_k && leaf_size > 7) continue;
            graph::KnnOptions options;
            options.k = static_cast<int>(k);
            options.leaf_size = leaf_size;
            options.trees = trees;
            options.exact_threshold = threshold;
            ExpectMatchesReference(x, options);
          }
        }
      }
    }
  }
}

TEST(KnnTest, HugeKEqualsAllOtherNodes) {
  // k is clamped to n - 1 before any heap is sized: INT_MAX allocates no
  // more than k = n - 1 does and builds the same graph.
  const la::DenseMatrix x = TiedPoints(300, 77);
  for (int64_t threshold : {int64_t{1}, int64_t{2048}}) {
    graph::KnnOptions huge;
    huge.k = INT_MAX;
    huge.exact_threshold = threshold;
    graph::KnnOptions all = huge;
    all.k = 299;
    EXPECT_EQ(EdgePairs(graph::KnnGraph(x, huge)),
              EdgePairs(graph::KnnGraph(x, all)));
  }
}

}  // namespace
}  // namespace sgla
