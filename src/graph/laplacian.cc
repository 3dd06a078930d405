#include "graph/laplacian.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace graph {
namespace {

/// Rows per ThreadPool chunk of the row-parallel passes. Every row is
/// written independently, so the output is the same at any thread count.
constexpr int64_t kRowGrain = 512;
/// Rows up to this length sort by insertion; longer ones by std::sort on
/// (column, position) keys, which bounds a hub row's cost. The SBM views of
/// the wall-clock benchmark have ~20 entries a row, and on them insertion
/// sort halves the build (BM_NormalizedLaplacian/8000, one thread, 4 vCPU
/// AVX-512: 7.3-8.3 ms, against 13.1-14.0 ms with the keyed sort for every
/// row).
constexpr int64_t kInsertionSortMax = 32;

struct ColValue {
  int64_t col;
  double value;
};

/// The symmetrized adjacency in row-segmented form: row r's coalesced
/// entries, sorted by column, are entries[start[r], start[r] + count[r]),
/// where start is the uncoalesced row_ptr (both orientations of every
/// non-loop edge) — coalescing compacts each row within its own segment.
struct Adjacency {
  std::vector<int64_t> start;   ///< size n + 1, uncoalesced offsets
  std::vector<int64_t> count;   ///< size n, coalesced row lengths
  std::vector<ColValue> entries;
  std::vector<double> inv_sqrt;  ///< 1/sqrt(degree), 0 for degree <= 0
};

struct KeyedEntry {
  int64_t col;
  int64_t position;  ///< index in the row before sorting: a unique tie-break
  double value;
};

/// Sorts one row by column, stably: copies of one (row, col) keep their
/// edge-list order, which is the order the coalescing sum adds them in.
/// Long rows go through `scratch` (reused across a chunk's rows) because
/// std::stable_sort would allocate a buffer per row.
void SortRow(ColValue* begin, ColValue* end,
             std::vector<KeyedEntry>* scratch) {
  if (end - begin <= kInsertionSortMax) {
    for (ColValue* i = begin + 1; i < end; ++i) {
      const ColValue x = *i;
      ColValue* j = i;
      for (; j > begin && x.col < (j - 1)->col; --j) *j = *(j - 1);
      *j = x;
    }
    return;
  }
  scratch->clear();
  for (ColValue* p = begin; p < end; ++p) {
    scratch->push_back({p->col, p - begin, p->value});
  }
  std::sort(scratch->begin(), scratch->end(),
            [](const KeyedEntry& a, const KeyedEntry& b) {
              return a.col != b.col ? a.col < b.col : a.position < b.position;
            });
  for (const KeyedEntry& e : *scratch) *begin++ = {e.col, e.value};
}

/// Counts each row's entries, scatters both orientations of every edge in
/// edge-list order, then row-parallel: sorts each row by column, coalesces
/// duplicate columns (each sum starts at 0.0 and adds the copies in
/// edge-list order), and sums the degree over the coalesced row in column
/// order.
Adjacency BuildAdjacency(const Graph& g) {
  const int64_t n = g.num_nodes();
  Adjacency adj;
  adj.start.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : g.edges()) {
    SGLA_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n)
        << "edge endpoint out of range";
    if (e.u == e.v) continue;
    ++adj.start[static_cast<size_t>(e.u) + 1];
    ++adj.start[static_cast<size_t>(e.v) + 1];
  }
  for (int64_t r = 0; r < n; ++r) {
    adj.start[static_cast<size_t>(r) + 1] += adj.start[static_cast<size_t>(r)];
  }
  adj.entries.resize(static_cast<size_t>(adj.start[static_cast<size_t>(n)]));
  std::vector<int64_t> cursor(adj.start.begin(), adj.start.end() - 1);
  for (const Edge& e : g.edges()) {
    if (e.u == e.v) continue;
    adj.entries[static_cast<size_t>(cursor[static_cast<size_t>(e.u)]++)] = {
        e.v, e.weight};
    adj.entries[static_cast<size_t>(cursor[static_cast<size_t>(e.v)]++)] = {
        e.u, e.weight};
  }

  adj.count.assign(static_cast<size_t>(n), 0);
  adj.inv_sqrt.assign(static_cast<size_t>(n), 0.0);
  util::ThreadPool::Global().ParallelFor(
      0, n, kRowGrain, [&adj](int64_t lo, int64_t hi) {
        std::vector<KeyedEntry> scratch;
        for (int64_t r = lo; r < hi; ++r) {
          ColValue* row = adj.entries.data() + adj.start[static_cast<size_t>(r)];
          ColValue* end =
              adj.entries.data() + adj.start[static_cast<size_t>(r) + 1];
          SortRow(row, end, &scratch);
          int64_t out = 0;
          double degree = 0.0;
          for (ColValue* p = row; p < end;) {
            const int64_t col = p->col;
            double sum = 0.0;
            for (; p < end && p->col == col; ++p) sum += p->value;
            row[out++] = {col, sum};
            degree += sum;
          }
          adj.count[static_cast<size_t>(r)] = out;
          if (degree > 0.0) {
            adj.inv_sqrt[static_cast<size_t>(r)] = 1.0 / std::sqrt(degree);
          }
        }
      });
  return adj;
}

/// Row-parallel second pass: writes a_rc * (inv_sqrt[r] * inv_sqrt[c]) — or,
/// for the Laplacian, 0.0 - that product (the value the original
/// triplet-coalescing build produced: -0.0 becomes +0.0) with a 1.0
/// diagonal at its sorted position on every row that has an off-diagonal
/// entry.
la::CsrMatrix Normalize(const Adjacency& adj, int64_t n, bool laplacian) {
  la::CsrMatrix m;
  m.rows = n;
  m.cols = n;
  m.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t count = adj.count[static_cast<size_t>(r)];
    m.row_ptr[static_cast<size_t>(r) + 1] =
        m.row_ptr[static_cast<size_t>(r)] + count +
        (laplacian && count > 0 ? 1 : 0);
  }
  m.col_idx.resize(static_cast<size_t>(m.row_ptr[static_cast<size_t>(n)]));
  m.values.resize(m.col_idx.size());
  util::ThreadPool::Global().ParallelFor(
      0, n, kRowGrain, [&adj, &m, laplacian](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const ColValue* row =
              adj.entries.data() + adj.start[static_cast<size_t>(r)];
          const int64_t count = adj.count[static_cast<size_t>(r)];
          const double inv_r = adj.inv_sqrt[static_cast<size_t>(r)];
          int64_t out = m.row_ptr[static_cast<size_t>(r)];
          bool diagonal = !laplacian || count == 0;  // already placed
          for (int64_t p = 0; p < count; ++p) {
            const int64_t col = row[p].col;
            if (!diagonal && col > r) {
              m.col_idx[static_cast<size_t>(out)] = r;
              m.values[static_cast<size_t>(out++)] = 1.0;
              diagonal = true;
            }
            const double a =
                row[p].value *
                (inv_r * adj.inv_sqrt[static_cast<size_t>(col)]);
            m.col_idx[static_cast<size_t>(out)] = col;
            m.values[static_cast<size_t>(out++)] = laplacian ? 0.0 + -a : a;
          }
          if (!diagonal) {
            m.col_idx[static_cast<size_t>(out)] = r;
            m.values[static_cast<size_t>(out)] = 1.0;
          }
        }
      });
  return m;
}

}  // namespace

la::CsrMatrix NormalizedAdjacency(const Graph& g) {
  return Normalize(BuildAdjacency(g), g.num_nodes(), /*laplacian=*/false);
}

la::CsrMatrix NormalizedLaplacian(const Graph& g) {
  return Normalize(BuildAdjacency(g), g.num_nodes(), /*laplacian=*/true);
}

}  // namespace graph
}  // namespace sgla
