#include "coarse/coarsen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "coarse/affinity.h"
#include "graph/graph.h"
#include "graph/laplacian.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace coarse {
namespace {

/// Row grain of the parallel passes: fixed, so the chunk partition — and
/// with it every accumulation order — is independent of the thread count.
constexpr int64_t kRowGrain = 512;
/// Coarse rows are ~10x fewer; a smaller grain keeps the pool busy.
constexpr int64_t kCoarseGrain = 256;

}  // namespace

std::vector<int64_t> PatternMultiplicity(
    const la::CsrMatrix& union_pattern,
    const std::vector<la::CsrMatrix>& views, const std::vector<bool>* rows) {
  std::vector<int64_t> mult(union_pattern.col_idx.size(), 0);
  util::ThreadPool::Global().ParallelFor(
      0, union_pattern.rows, kRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (rows != nullptr && !(*rows)[i]) continue;
          const int64_t p_end = union_pattern.row_ptr[i + 1];
          for (const la::CsrMatrix& view : views) {
            // Two-pointer merge: the view row is a sorted subset of the
            // union row by construction.
            int64_t p = union_pattern.row_ptr[i];
            for (int64_t q = view.row_ptr[i]; q < view.row_ptr[i + 1]; ++q) {
              const int64_t col = view.col_idx[q];
              while (p < p_end && union_pattern.col_idx[p] < col) ++p;
              if (p < p_end && union_pattern.col_idx[p] == col) ++mult[p];
            }
          }
        }
      });
  return mult;
}

// Raw multiplicities at level 0 are nearly constant ({1..views}), so heavy-
// edge matching on them degenerates to index-order tie-breaking, which
// happily merges across cluster boundaries; shared neighborhoods separate
// intra- from inter-cluster pairs by a wide margin at every level. Integer
// arithmetic over patterns only, so the score — and with it the plan — is
// untouched by value-only deltas. Pure function of the level graph (no
// matching state), hence safely parallel per row.
std::vector<int64_t> EdgeAffinity(const LevelGraph& g,
                                  const std::vector<bool>* rows) {
  // Slot of column `c` in row `r`, or -1 when the row has none.
  auto find_slot = [&g](int64_t r, int64_t c) -> int64_t {
    const auto first = g.col.begin() + g.row_ptr[r];
    const auto last = g.col.begin() + g.row_ptr[r + 1];
    const auto it = std::lower_bound(first, last, c);
    return it != last && *it == c ? it - g.col.begin() : -1;
  };
  std::vector<int64_t> score(g.col.size(), 0);
  // ~64 chunks at every level: the contracted levels have few rows, and
  // with mirroring the low-index rows carry most of the work, so a fixed
  // 512-row grain would leave threads idle. Integer sums make the result
  // independent of the partition.
  const int64_t grain = std::max<int64_t>(32, g.rows / 64);
  util::ThreadPool::Global().ParallelFor(
      0, g.rows, grain, [&](int64_t lo, int64_t hi) {
        // wu[t] = w(u,t) for the current row u, 0 elsewhere. Allocated on
        // the chunk's first scored row: a restricted pass skips most chunks.
        std::vector<int64_t> wu;
        for (int64_t u = lo; u < hi; ++u) {
          if (rows != nullptr && !(*rows)[u]) continue;
          if (wu.empty()) wu.assign(static_cast<size_t>(g.rows), 0);
          const int64_t begin = g.row_ptr[u];
          const int64_t end = g.row_ptr[u + 1];
          for (int64_t a = begin; a < end; ++a) wu[g.col[a]] = g.weight[a];
          wu[u] = 0;  // t != u
          for (int64_t p = begin; p < end; ++p) {
            const int64_t v = g.col[p];
            if (v == u || (rows != nullptr && !(*rows)[v])) continue;
            // The common-neighborhood sum is symmetric in (u, v), so the
            // row of min(u, v) computes it once and writes both slots; a
            // slot whose mirror is missing (asymmetric pattern) is computed
            // by its own row.
            const int64_t mirror = find_slot(v, u);
            if (v < u && mirror >= 0) continue;
            const int64_t w_uv = wu[v];
            wu[v] = 0;  // t != v
            // Columns of row v outside row u read wu == 0, and weights are
            // non-negative, so they add min(0, w) == 0: the pass needs no
            // membership test.
            int64_t common = 0;
            for (int64_t b = g.row_ptr[v]; b < g.row_ptr[v + 1]; ++b) {
              common += std::min(wu[g.col[b]], g.weight[b]);
            }
            wu[v] = w_uv;
            score[p] = g.weight[p] + common;
            // Row v skips slot (v, u) (its mirror exists), so this pass is
            // its only writer.
            if (v > u && mirror >= 0) {
              score[mirror] = g.weight[mirror] + common;
            }
          }
          for (int64_t a = begin; a < end; ++a) wu[g.col[a]] = 0;
        }
      });
  return score;
}

namespace {

LevelGraph LevelFromUnion(const la::CsrMatrix& union_pattern,
                          std::vector<int64_t> mult) {
  LevelGraph g;
  g.rows = union_pattern.rows;
  g.row_ptr = union_pattern.row_ptr;
  g.col = union_pattern.col_idx;
  g.weight = std::move(mult);
  return g;
}

/// Greedy heavy-edge matching in ascending vertex order on the affinity
/// scores; ties go to the smallest neighbor index (CSR columns ascend, so
/// the first maximum wins). With `rows`, only those rows are visited or
/// matched. At most `max_merges` pairs form. Returns match[u] = u's
/// partner, u itself for a visited singleton, -1 for a row never visited.
std::vector<int64_t> GreedyMatch(const LevelGraph& g,
                                 const std::vector<bool>* rows,
                                 int64_t max_merges) {
  const std::vector<int64_t> score = EdgeAffinity(g, rows);
  std::vector<int64_t> match(static_cast<size_t>(g.rows), -1);
  int64_t merges = 0;
  for (int64_t u = 0; u < g.rows && merges < max_merges; ++u) {
    if (match[u] >= 0 || (rows != nullptr && !(*rows)[u])) continue;
    int64_t best = -1;
    int64_t best_w = 0;
    for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
      const int64_t v = g.col[p];
      if (v == u || match[v] >= 0 || (rows != nullptr && !(*rows)[v])) {
        continue;
      }
      if (score[p] > best_w) {
        best = v;
        best_w = score[p];
      }
    }
    match[u] = best >= 0 ? best : u;
    if (best >= 0) {
      match[best] = u;
      ++merges;
    }
  }
  return match;
}

/// One level of BuildCoarsePlan. At most `max_merges` pairs form — a full
/// level halves the graph, so an uncapped final level would overshoot the
/// target ratio by up to 2x (and can push the coarse graph under the dense-
/// eigensolver threshold); the cap turns it into a partial level that lands
/// on the target exactly, leaving later-visited rows as singletons. Writes
/// the level's fine -> coarse map (ids by first appearance) and returns the
/// coarse row count.
int64_t MatchLevel(const LevelGraph& g, int64_t max_merges,
                   std::vector<int64_t>* map) {
  const std::vector<int64_t> match = GreedyMatch(g, nullptr, max_merges);
  map->assign(static_cast<size_t>(g.rows), -1);
  int64_t next = 0;
  for (int64_t u = 0; u < g.rows; ++u) {
    if ((*map)[u] >= 0) continue;
    (*map)[u] = next;
    if (match[u] >= 0 && match[u] != u) (*map)[match[u]] = next;
    ++next;
  }
  return next;
}

/// Members of each coarse row in ascending fine order (counting sort of
/// `map`, fine row -> coarse row).
void BuildMembers(const std::vector<int64_t>& map, int64_t coarse_rows,
                  std::vector<int64_t>* members_ptr,
                  std::vector<int64_t>* members) {
  members_ptr->assign(static_cast<size_t>(coarse_rows) + 1, 0);
  for (int64_t c : map) ++(*members_ptr)[c + 1];
  for (int64_t c = 0; c < coarse_rows; ++c) {
    (*members_ptr)[c + 1] += (*members_ptr)[c];
  }
  members->resize(map.size());
  std::vector<int64_t> cursor(members_ptr->begin(), members_ptr->end() - 1);
  for (size_t i = 0; i < map.size(); ++i) {
    (*members)[cursor[map[i]]++] = static_cast<int64_t>(i);
  }
}

/// Contracts a level along `map`, summing multiplicities; self-edges drop.
/// Row-parallel over coarse rows in fixed-grain chunks, each chunk writing
/// its own output, concatenated in chunk order (as ContractView does). Each
/// coarse row accumulates in a fixed order (members ascending, slots
/// ascending) over integers, so the result is independent of thread count.
LevelGraph ContractLevel(const LevelGraph& g, const std::vector<int64_t>& map,
                         int64_t coarse_rows) {
  std::vector<int64_t> members_ptr, members;
  BuildMembers(map, coarse_rows, &members_ptr, &members);
  struct Part {
    std::vector<int64_t> col;
    std::vector<int64_t> weight;
  };
  std::vector<Part> parts(static_cast<size_t>(
      util::ThreadPool::NumChunks(0, coarse_rows, kCoarseGrain)));
  LevelGraph out;
  out.rows = coarse_rows;
  out.row_ptr.assign(static_cast<size_t>(coarse_rows) + 1, 0);
  util::ThreadPool::Global().ParallelForChunks(
      0, coarse_rows, kCoarseGrain,
      [&](int64_t chunk, int64_t lo, int64_t hi) {
        Part& part = parts[chunk];
        std::vector<int64_t> accum(static_cast<size_t>(coarse_rows), 0);
        std::vector<int64_t> touched;
        for (int64_t dst = lo; dst < hi; ++dst) {
          touched.clear();
          for (int64_t m = members_ptr[dst]; m < members_ptr[dst + 1]; ++m) {
            const int64_t u = members[m];
            for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
              const int64_t other = map[g.col[p]];
              if (other == dst) continue;
              if (accum[other] == 0) touched.push_back(other);
              accum[other] += g.weight[p];
            }
          }
          std::sort(touched.begin(), touched.end());
          for (int64_t other : touched) {
            part.col.push_back(other);
            part.weight.push_back(accum[other]);
            accum[other] = 0;
          }
          // Row length for now; prefix-summed once every chunk is done.
          out.row_ptr[dst + 1] = static_cast<int64_t>(touched.size());
        }
      });
  for (int64_t i = 0; i < coarse_rows; ++i) {
    out.row_ptr[i + 1] += out.row_ptr[i];
  }
  out.col.reserve(static_cast<size_t>(out.row_ptr.back()));
  out.weight.reserve(static_cast<size_t>(out.row_ptr.back()));
  for (const Part& part : parts) {
    out.col.insert(out.col.end(), part.col.begin(), part.col.end());
    out.weight.insert(out.weight.end(), part.weight.begin(),
                      part.weight.end());
  }
  return out;
}

void FillClusterSizes(CoarsePlan* plan) {
  plan->cluster_size.assign(static_cast<size_t>(plan->coarse_rows), 0);
  for (int64_t i = 0; i < plan->fine_rows; ++i) {
    ++plan->cluster_size[plan->fine_to_coarse[i]];
  }
}

}  // namespace

CoarsePlan BuildCoarsePlan(const la::CsrMatrix& union_pattern,
                           const std::vector<la::CsrMatrix>& views,
                           const CoarsenOptions& options) {
  const int64_t n = union_pattern.rows;
  CoarsePlan plan;
  plan.fine_rows = n;
  plan.coarse_rows = n;
  plan.fine_to_coarse.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) plan.fine_to_coarse[i] = i;
  const int64_t target =
      options.ratio > 0.0
          ? std::max<int64_t>(
                static_cast<int64_t>(
                    std::ceil(options.ratio * static_cast<double>(n))),
                options.min_coarse_rows)
          : n;
  if (options.ratio <= 0.0 || n <= target) {
    FillClusterSizes(&plan);
    return plan;
  }
  LevelGraph g = LevelFromUnion(union_pattern,
                                PatternMultiplicity(union_pattern, views));
  int64_t current_rows = n;
  std::vector<int64_t> map;
  while (current_rows > target) {
    const int64_t next = MatchLevel(g, current_rows - target, &map);
    // Shrink of less than 5%: the matching has saturated (e.g. a near-empty
    // union); forcing more levels would only burn time.
    if (next * 20 > current_rows * 19) break;
    for (int64_t i = 0; i < n; ++i) {
      plan.fine_to_coarse[i] = map[plan.fine_to_coarse[i]];
    }
    current_rows = next;
    if (current_rows <= target) break;
    g = ContractLevel(g, map, next);
  }
  plan.coarse_rows = current_rows;
  FillClusterSizes(&plan);
  return plan;
}

void RepairCoarsePlan(const la::CsrMatrix& union_pattern,
                      const std::vector<la::CsrMatrix>& views,
                      const std::vector<bool>& changed_rows,
                      CoarsePlan* plan) {
  const int64_t n = plan->fine_rows;
  SGLA_CHECK(union_pattern.rows == n &&
             static_cast<int64_t>(changed_rows.size()) == n)
      << "RepairCoarsePlan shape mismatch";
  std::vector<bool> dirty(static_cast<size_t>(plan->coarse_rows), false);
  bool any = false;
  for (int64_t i = 0; i < n; ++i) {
    if (changed_rows[i]) {
      dirty[plan->fine_to_coarse[i]] = true;
      any = true;
    }
  }
  if (!any) return;
  std::vector<bool> candidate(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    candidate[i] = dirty[plan->fine_to_coarse[i]];
  }
  // One greedy heavy-edge level among the dissolved rows only — same
  // affinity scores, visit order and tie-break as BuildCoarsePlan's level 0.
  // The matching reads only slots whose two ends are both candidates, so
  // multiplicities and scores are computed for candidate rows alone.
  const std::vector<int64_t> match = GreedyMatch(
      LevelFromUnion(union_pattern,
                     PatternMultiplicity(union_pattern, views, &candidate)),
      &candidate, n);
  // Renumber every cluster by first fine-row appearance: untouched clusters
  // keep their membership (under fresh ids), dissolved rows get their pair
  // representative's id.
  std::vector<int64_t> clean_id(static_cast<size_t>(plan->coarse_rows), -1);
  std::vector<int64_t> pair_id(static_cast<size_t>(n), -1);
  std::vector<int64_t> fresh(static_cast<size_t>(n));
  int64_t next = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t& id = candidate[i] ? pair_id[std::min(i, match[i])]
                               : clean_id[plan->fine_to_coarse[i]];
    if (id < 0) id = next++;
    fresh[i] = id;
  }
  plan->fine_to_coarse = std::move(fresh);
  plan->coarse_rows = next;
  FillClusterSizes(plan);
}

la::CsrMatrix ContractView(const la::CsrMatrix& fine, const CoarsePlan& plan) {
  SGLA_CHECK(fine.rows == plan.fine_rows) << "ContractView shape mismatch";
  std::vector<int64_t> members_ptr, members;
  BuildMembers(plan.fine_to_coarse, plan.coarse_rows, &members_ptr, &members);
  // Per coarse row, accumulate inter-cluster similarity in ascending
  // (member, slot) order — fixed per row, so the chunk partition cannot
  // change any floating-point sum. Each chunk brings its own scratch;
  // allocation here is registration-time cost, not solve-path cost.
  std::vector<std::vector<graph::Edge>> row_edges(
      static_cast<size_t>(plan.coarse_rows));
  util::ThreadPool::Global().ParallelFor(
      0, plan.coarse_rows, kCoarseGrain, [&](int64_t lo, int64_t hi) {
        std::vector<double> accum(static_cast<size_t>(plan.coarse_rows), 0.0);
        std::vector<int64_t> touched;
        for (int64_t dst = lo; dst < hi; ++dst) {
          touched.clear();
          for (int64_t m = members_ptr[dst]; m < members_ptr[dst + 1]; ++m) {
            const int64_t i = members[m];
            for (int64_t p = fine.row_ptr[i]; p < fine.row_ptr[i + 1]; ++p) {
              const int64_t other = plan.fine_to_coarse[fine.col_idx[p]];
              if (other == dst) continue;
              // Off-diagonal Laplacian entries are -similarity; clamp keeps
              // hostile positive off-diagonals from becoming negative edges.
              const double s = std::max(0.0, -fine.values[p]);
              if (s == 0.0) continue;
              if (accum[other] == 0.0) touched.push_back(other);
              accum[other] += s;
            }
          }
          std::sort(touched.begin(), touched.end());
          for (int64_t other : touched) {
            // The fine Laplacian is symmetric, so each undirected coarse
            // edge is seen (with the same total) from both endpoint rows;
            // emit it once, from the smaller id.
            if (other > dst) {
              row_edges[dst].push_back({dst, other, accum[other]});
            }
            accum[other] = 0.0;
          }
        }
      });
  std::vector<graph::Edge> edges;
  for (const std::vector<graph::Edge>& row : row_edges) {
    edges.insert(edges.end(), row.begin(), row.end());
  }
  return graph::NormalizedLaplacian(
      graph::Graph::FromEdges(plan.coarse_rows, std::move(edges)));
}

la::DenseMatrix AverageRows(const la::DenseMatrix& fine,
                            const CoarsePlan& plan) {
  SGLA_CHECK(fine.rows() == plan.fine_rows) << "AverageRows shape mismatch";
  std::vector<int64_t> members_ptr, members;
  BuildMembers(plan.fine_to_coarse, plan.coarse_rows, &members_ptr, &members);
  la::DenseMatrix out(plan.coarse_rows, fine.cols());
  util::ThreadPool::Global().ParallelFor(
      0, plan.coarse_rows, kCoarseGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t dst = lo; dst < hi; ++dst) {
          double* orow = out.Row(dst);
          for (int64_t m = members_ptr[dst]; m < members_ptr[dst + 1]; ++m) {
            const double* frow = fine.Row(members[m]);
            for (int64_t c = 0; c < fine.cols(); ++c) orow[c] += frow[c];
          }
          const double inv = 1.0 / static_cast<double>(plan.cluster_size[dst]);
          for (int64_t c = 0; c < fine.cols(); ++c) orow[c] *= inv;
        }
      });
  return out;
}

void ProlongateLabels(const CoarsePlan& plan,
                      const std::vector<int32_t>& coarse_labels,
                      std::vector<int32_t>* fine) {
  SGLA_CHECK(static_cast<int64_t>(coarse_labels.size()) == plan.coarse_rows)
      << "ProlongateLabels size mismatch";
  fine->resize(static_cast<size_t>(plan.fine_rows));
  util::ThreadPool::Global().ParallelFor(
      0, plan.fine_rows, kRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          (*fine)[i] = coarse_labels[plan.fine_to_coarse[i]];
        }
      });
}

}  // namespace coarse
}  // namespace sgla
