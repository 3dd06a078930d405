#ifndef SGLA_SERVE_SHARD_PLAN_H_
#define SGLA_SERVE_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "util/sharding.h"
#include "util/task_queue.h"

namespace sgla {
namespace serve {

/// A deterministic contiguous row partition of one graph's n rows into K
/// shards. Boundaries are derived from the same fixed-chunk arithmetic the
/// ThreadPool uses — the rows split into ceil(n / grain) chunks of `grain`
/// rows (the last one ragged), and shard s takes chunks
/// [floor(C*s/K), floor(C*(s+1)/K)) — so every boundary except the last is
/// a multiple of `grain`, every kernel chunk lies entirely inside one shard,
/// and the partition depends only on (n, K, grain): never on thread counts,
/// queue sizes, or scheduling. This is what keeps sharded execution
/// bit-identical to the unsharded path (see DESIGN.md, "Sharding").
struct ShardPlan {
  int64_t rows = 0;
  int64_t grain = 0;
  /// num_shards() + 1 ascending offsets; boundaries[0] == 0 and
  /// boundaries.back() == rows. Always at least one shard for rows > 0.
  std::vector<int64_t> boundaries;

  int num_shards() const { return static_cast<int>(boundaries.size()) - 1; }
  int64_t shard_begin(int s) const {
    return boundaries[static_cast<size_t>(s)];
  }
  int64_t shard_end(int s) const {
    return boundaries[static_cast<size_t>(s) + 1];
  }

  /// Non-owning execution view over this plan (see util::ShardContext); the
  /// plan must outlive it.
  util::ShardContext Context(util::TaskQueue* queue) const {
    util::ShardContext ctx;
    ctx.boundaries = boundaries.data();
    ctx.num_shards = num_shards();
    ctx.queue = queue;
    return ctx;
  }
};

/// Builds the plan for `rows` rows into (at most) `num_shards` shards at the
/// given grain. The shard count is clamped to [1, number of chunks], so
/// small graphs quietly collapse to fewer (possibly one) shards instead of
/// producing empty ones; a 1-shard plan runs every kernel pool-parallel on
/// the caller.
ShardPlan MakeShardPlan(int64_t rows, int num_shards,
                        int64_t grain = util::kShardAlign);

}  // namespace serve
}  // namespace sgla

#endif  // SGLA_SERVE_SHARD_PLAN_H_
