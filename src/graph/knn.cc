#include "graph/knn.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace graph {
namespace {

/// (squared distance, neighbor), ordered lexicographically like the
/// std::pair it stands for: the heap layout follows this exact order. No
/// default member initializers, so a heap array is not zero-filled (and its
/// pages are first touched by the task that fills them).
struct Candidate {
  double dist2;
  int64_t neighbor;

  bool operator<(const Candidate& o) const {
    return dist2 < o.dist2 || (!(o.dist2 < dist2) && neighbor < o.neighbor);
  }
};

/// Bounded max-heaps of the `width` nearest candidates of every node, held
/// flat: node i's heap is the first Size(i) of the `width` slots at
/// i * width.
class NeighborHeaps {
 public:
  NeighborHeaps(int64_t n, int64_t width)
      : width_(width),
        slots_(new Candidate[static_cast<size_t>(n * width)]),
        sizes_(static_cast<size_t>(n), 0) {}

  /// Offers a neighbor the node has not been offered before.
  void OfferNew(int64_t node, int64_t neighbor, double dist2) {
    Candidate* heap = slots_.get() + node * width_;
    int64_t& size = sizes_[static_cast<size_t>(node)];
    if (size < width_) {
      heap[size++] = {dist2, neighbor};
      std::push_heap(heap, heap + size);
    } else if (dist2 < heap[0].dist2) {
      std::pop_heap(heap, heap + size);
      heap[size - 1] = {dist2, neighbor};
      std::push_heap(heap, heap + size);
    }
  }

  const Candidate* Heap(int64_t node) const {
    return slots_.get() + node * width_;
  }
  int64_t Size(int64_t node) const { return sizes_[static_cast<size_t>(node)]; }

 private:
  const int64_t width_;
  std::unique_ptr<Candidate[]> slots_;
  std::vector<int64_t> sizes_;
};

/// Offers every pair of `block` to both endpoints, in (a, b) pair order.
/// Each ordered pair is offered once.
void BruteForceBlock(const la::DenseMatrix& points, const int64_t* block,
                     int64_t size, NeighborHeaps* heaps) {
  const int64_t d = points.cols();
  for (int64_t a = 0; a < size; ++a) {
    for (int64_t b = a + 1; b < size; ++b) {
      const int64_t i = block[a];
      const int64_t j = block[b];
      const double dist2 =
          la::SquaredDistance(points.Row(i), points.Row(j), d);
      heaps->OfferNew(i, j, dist2);
      heaps->OfferNew(j, i, dist2);
    }
  }
}

/// Builds one RP tree: splits the node order by random hyperplanes until the
/// ranges are at most `leaf_size`, then brute-forces each leaf into `heaps`.
/// Ranges are split in place, in depth-first order (left before right, as the
/// RNG draws directions); a split is stable — the left side, then the right
/// side, each in input order — and one whose projections all fall on one
/// side (many ties) halves the range instead. The leaves partition the
/// nodes, so a tree offers every ordered pair at most once.
void BuildRpTree(const la::DenseMatrix& points, int leaf_size, Rng* rng,
                 NeighborHeaps* heaps) {
  const int64_t n = points.rows();
  const int64_t d = points.cols();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::vector<int64_t> right(static_cast<size_t>(n));
  std::vector<double> projection(static_cast<size_t>(n));
  std::vector<double> sorted(static_cast<size_t>(n));
  std::vector<double> direction(static_cast<size_t>(d));
  std::vector<std::pair<int64_t, int64_t>> pending = {{0, n}};
  while (!pending.empty()) {
    const auto [lo, hi] = pending.back();
    pending.pop_back();
    const int64_t size = hi - lo;
    if (size <= leaf_size) {
      BruteForceBlock(points, order.data() + lo, size, heaps);
      continue;
    }
    for (double& x : direction) x = rng->Gaussian();
    for (int64_t i = lo; i < hi; ++i) {
      projection[static_cast<size_t>(i)] = la::Dot(
          points.Row(order[static_cast<size_t>(i)]), direction.data(), d);
    }
    std::copy(projection.begin() + lo, projection.begin() + hi,
              sorted.begin() + lo);
    std::nth_element(sorted.begin() + lo, sorted.begin() + lo + size / 2,
                     sorted.begin() + hi);
    const double median = sorted[static_cast<size_t>(lo + size / 2)];

    int64_t mid = lo;
    int64_t num_right = 0;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t node = order[static_cast<size_t>(i)];
      if (projection[static_cast<size_t>(i)] < median) {
        order[static_cast<size_t>(mid++)] = node;
      } else {
        right[static_cast<size_t>(num_right++)] = node;
      }
    }
    std::copy(right.begin(), right.begin() + num_right, order.begin() + mid);
    // All on one side leaves the order as it was; split it evenly.
    if (mid == lo || mid == hi) mid = lo + size / 2;
    pending.push_back({mid, hi});
    pending.push_back({lo, mid});
  }
}

}  // namespace

Status ValidateKnnOptions(const KnnOptions& options) {
  if (options.k < 1) return InvalidArgument("knn k must be at least 1");
  if (options.trees < 1 || options.trees > kMaxKnnTrees) {
    return InvalidArgument("knn trees must be in [1, " +
                           std::to_string(kMaxKnnTrees) + "]");
  }
  if (options.leaf_size < 1) {
    return InvalidArgument("knn leaf_size must be at least 1");
  }
  if (options.exact_threshold < 0) {
    return InvalidArgument("knn exact_threshold must not be negative");
  }
  return OkStatus();
}

Graph KnnGraph(const la::DenseMatrix& points, const KnnOptions& options) {
  const Status valid = ValidateKnnOptions(options);
  SGLA_CHECK(valid.ok()) << valid.message();
  const int64_t n = points.rows();
  util::ThreadPool& pool = util::ThreadPool::Global();
  // A node has at most n - 1 candidates, so no heap needs more slots than
  // that: clamping changes no output, and a huge k allocates no extra slots.
  const int64_t k = std::min<int64_t>(options.k, std::max<int64_t>(n - 1, 0));

  std::unique_ptr<NeighborHeaps> heaps;
  if (n <= options.exact_threshold) {
    heaps = std::make_unique<NeighborHeaps>(n, k);
    // The full scan costs twice the distance evaluations of the pair loop,
    // so it only wins wall-clock with three or more threads.
    if (pool.num_threads() > 2 && !util::ThreadPool::InParallelRegion()) {
      // Row-parallel exact scan: node i only touches its own heap, and
      // candidates arrive in ascending j — the same per-node offer order as
      // the serial pair loop below (j < i arrives while j's outer loop runs,
      // j > i while i's does), so the heaps are bit-identical to it.
      const int64_t d = points.cols();
      pool.ParallelFor(0, n, 32, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            if (j == i) continue;
            heaps->OfferNew(
                i, j, la::SquaredDistance(points.Row(i), points.Row(j), d));
          }
        }
      });
    } else {
      // Serial path keeps the half-the-distances pair loop.
      std::vector<int64_t> all(static_cast<size_t>(n));
      std::iota(all.begin(), all.end(), int64_t{0});
      BruteForceBlock(points, all.data(), n, heaps.get());
    }
  } else {
    // RP-forest, one task per tree. Each tree draws from its own RNG stream,
    // split off the seed with a golden-ratio stride (the Rng constructor
    // splitmixes it, so nearby stream ids decorrelate), which makes the
    // trees fully independent of each other and of scheduling. A leaf
    // offers a node at most leaf_size - 1 candidates, which bounds the
    // per-tree heaps; the forest offers at most trees times that.
    const int64_t leaf_pairs = options.leaf_size - 1;
    const int64_t tree_width = std::min(k, leaf_pairs);
    std::vector<std::unique_ptr<NeighborHeaps>> tree_heaps(
        static_cast<size_t>(options.trees));
    pool.ParallelFor(0, options.trees, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) {
        Rng tree_rng(options.seed +
                     0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1));
        auto& tree = tree_heaps[static_cast<size_t>(t)];
        tree = std::make_unique<NeighborHeaps>(n, tree_width);
        BuildRpTree(points, options.leaf_size, &tree_rng, tree.get());
      }
    });
    // Cross-tree merge: node i is offered its candidates in (tree, heap
    // slot) order, a fixed sequence, so the shared heap's dedup/eviction
    // decisions are reproducible. It and the symmetrization below stay on
    // the calling thread. A row-parallel form has the same bits and ran
    // faster alone, but when the pool ran one job at a time it cost the
    // concurrent re-solves of update_stream 10.7%; on the multi-job pool it
    // is not measured yet.
    //
    // Different trees re-offer the same pair, and duplicates would crowd
    // out genuine neighbors, so node i takes each neighbor only at its
    // first offer: offered[j] == i marks j as seen. Dropping a repeat
    // changes no heap: a repeat carries the same distance, and a heap only
    // fills and its max only falls, so a neighbor that was rejected or
    // evicted once would be rejected again, and one that was kept would be
    // a duplicate.
    heaps = std::make_unique<NeighborHeaps>(
        n, std::min(k, leaf_pairs * options.trees));
    std::vector<int64_t> offered(static_cast<size_t>(n), -1);
    for (int64_t i = 0; i < n; ++i) {
      for (const auto& tree : tree_heaps) {
        const Candidate* heap = tree->Heap(i);
        for (int64_t s = 0; s < tree->Size(i); ++s) {
          const int64_t j = heap[s].neighbor;
          if (offered[static_cast<size_t>(j)] == i) continue;
          offered[static_cast<size_t>(j)] = i;
          heaps->OfferNew(i, j, heap[s].dist2);
        }
      }
    }
  }

  // Union-symmetrize: i~j if j is in i's top-k or vice versa. Every pair is
  // bucketed under its smaller endpoint; sorting and deduplicating each
  // bucket lists the edges in ascending (u, v) order, each once.
  std::vector<int64_t> bucket_end(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    const Candidate* heap = heaps->Heap(i);
    for (int64_t s = 0; s < heaps->Size(i); ++s) {
      ++bucket_end[static_cast<size_t>(std::min(i, heap[s].neighbor)) + 1];
    }
  }
  std::partial_sum(bucket_end.begin(), bucket_end.end(), bucket_end.begin());
  std::vector<int64_t> fill(bucket_end.begin(), bucket_end.end() - 1);
  std::vector<int64_t> larger(static_cast<size_t>(bucket_end.back()));
  for (int64_t i = 0; i < n; ++i) {
    const Candidate* heap = heaps->Heap(i);
    for (int64_t s = 0; s < heaps->Size(i); ++s) {
      const int64_t j = heap[s].neighbor;
      larger[static_cast<size_t>(fill[static_cast<size_t>(std::min(i, j))]++)] =
          std::max(i, j);
    }
  }
  heaps.reset();
  std::vector<Edge> edges;
  edges.reserve(larger.size());
  for (int64_t u = 0; u < n; ++u) {
    const auto begin = larger.begin() + bucket_end[static_cast<size_t>(u)];
    const auto end = larger.begin() + bucket_end[static_cast<size_t>(u) + 1];
    std::sort(begin, end);
    for (auto v = begin, last = std::unique(begin, end); v != last; ++v) {
      edges.push_back({u, *v, 1.0});
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace graph
}  // namespace sgla
