#ifndef SGLA_UTIL_SHARDING_H_
#define SGLA_UTIL_SHARDING_H_

#include <cstdint>
#include <functional>

#include "util/task_queue.h"
#include "util/thread_pool.h"

namespace sgla {
namespace util {

/// Every shard boundary produced by the serving layer is a multiple of this
/// (except the final boundary, which is the row count). 512 is a common
/// multiple of every row-kernel chunk grain (512 for SpMV/aggregate, 256 for
/// k-means, 128 for dense SpMV), so each fixed chunk of every kernel lies
/// entirely inside one shard and per-chunk reduction partials are the same
/// whether chunks run on the pool or inside shard jobs. See DESIGN.md,
/// "Sharding".
constexpr int64_t kShardAlign = 512;

/// A contiguous row partition plus the queue its shard jobs run on. This is
/// a non-owning view: `boundaries` (num_shards + 1 ascending offsets,
/// boundaries[0] == 0) and `queue` must outlive any Run() call. Shard-aware
/// kernels (core::LaplacianAggregator's aggregation and SpMV, k-means
/// assignment) take one of these and dispatch one job per shard instead of
/// chunking through the global ThreadPool, so concurrent solves on different
/// graphs interleave fairly on the shared queue workers.
struct ShardContext {
  const int64_t* boundaries = nullptr;
  int num_shards = 0;
  /// Null: shards run serially on the caller, ascending — same bits, no
  /// queue needed (tests, single-threaded tools).
  TaskQueue* queue = nullptr;

  int64_t begin(int shard) const { return boundaries[shard]; }
  int64_t end(int shard) const { return boundaries[shard + 1]; }
  int64_t rows() const { return boundaries[num_shards]; }

  /// Runs fn(shard, row_begin, row_end) once per shard and returns when all
  /// shards finished. With one shard the body runs on the caller as is, so
  /// the kernels it invokes chunk through the global ThreadPool exactly like
  /// an unsharded call. With several, each job runs under
  /// ThreadPool::InlineScope, so every kernel the body invokes executes
  /// inline on that thread (the shard is the unit of parallelism). Safe for
  /// concurrent Run() calls on one queue.
  template <typename Fn>
  void Run(Fn&& fn) const {
    if (num_shards == 1) {
      fn(0, begin(0), end(0));
      return;
    }
    if (queue == nullptr) {
      ThreadPool::InlineScope inline_scope;
      for (int s = 0; s < num_shards; ++s) fn(s, begin(s), end(s));
      return;
    }
    queue->RunBatch(num_shards, [&fn, this](int64_t s) {
      ThreadPool::InlineScope inline_scope;
      fn(static_cast<int>(s), begin(static_cast<int>(s)),
         end(static_cast<int>(s)));
    });
  }
};

}  // namespace util
}  // namespace sgla

#endif  // SGLA_UTIL_SHARDING_H_
