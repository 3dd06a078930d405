#ifndef SGLA_SERVE_GRAPH_REGISTRY_H_
#define SGLA_SERVE_GRAPH_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "coarse/coarsen.h"
#include "core/aggregator.h"
#include "core/mvag.h"
#include "core/view_laplacian.h"
#include "graph/knn.h"
#include "la/sparse.h"
#include "serve/graph_delta.h"
#include "serve/shard_plan.h"
#include "util/status.h"

namespace sgla {
namespace serve {

/// Registration-time knobs.
struct RegisterOptions {
  graph::KnnOptions knn;  ///< attribute-view KNN construction
  /// Row shards to partition the graph into. 1 (default) runs every hot
  /// kernel of its solves chunked through the global ThreadPool; K > 1
  /// row-partitions them into K contiguous shards, each one chunk of a pool
  /// job over the one union pattern, with the kernels inside a shard
  /// running inline — bit-identical output. Clamped to the chunk count, so
  /// small graphs quietly stay at one shard.
  int shards = 1;
  /// Keep a working copy of the MultiViewGraph so UpdateGraph can apply
  /// deltas (default). Costs roughly the registration-time graph footprint
  /// again; read-only deployments set false to decline, and UpdateGraph
  /// then fails with FailedPrecondition like a RegisterViews entry.
  bool updatable = true;
  /// Coarse-companion reduction ratio for the tiered serving path (see
  /// DESIGN.md "Tiered serving"): the first fast solve of an epoch builds a
  /// multilevel heavy-edge coarsening of the union pattern targeting
  /// ~ratio * n coarse rows, and quality=fast solves run on it. 0 disables
  /// the companion (fast requests then quietly serve exact). Tiny graphs,
  /// and graphs whose matching cannot shrink them, skip the companion too.
  double coarsen_ratio = 0.1;
  /// Serve every solve of this graph in robust mode by default (see
  /// core::ObjectiveOptions::robust and DESIGN.md "View lifecycle & robust
  /// mode"): the objective adds a cross-view agreement penalty that
  /// down-weights views whose Laplacian disagrees with the consensus
  /// spectrum. Individual requests can also opt in per solve
  /// (SolveRequest::robust); the flags OR together.
  bool robust_views = false;
};

/// Coarse serving companion of a registered graph: the prolongation plan
/// (multilevel heavy-edge matching over the union pattern), the contracted
/// per-view Laplacians on the coarse node set, and an aggregator over them.
/// Immutable and shared exactly like the entry that owns it; quality=fast
/// solves run the unmodified SGLA pipeline against `aggregator` in a
/// coarse-sized workspace and prolongate the result. Coarse graphs are never
/// sharded — they are small by construction.
struct CoarseGraphEntry {
  coarse::CoarsePlan plan;
  std::vector<la::CsrMatrix> views;
  /// Built after `views` is in place (keeps a pointer into this struct);
  /// like GraphEntry, the companion only lives behind the entry shared_ptr
  /// and never moves.
  std::unique_ptr<core::LaplacianAggregator> aggregator;
  /// Fine rows whose structure changed in the deltas repaired into `plan`
  /// since it was last built from scratch, summed per delta (0 for a fresh
  /// plan). UpdateGraph re-coarsens from scratch once this passes its churn
  /// limit, so repeated repairs cannot drift the plan away from what a
  /// fresh coarsening would build.
  int64_t churn = 0;
};

/// The coarse companion slot of a GraphEntry: built on first use, at most
/// once, then shared by every reader. Registration, recovery and updates
/// only arm the build (`Defer`); the first dereference — the engine's tier
/// resolution for a fast request, or any caller of get()/->/*/bool
/// or a nullptr comparison — runs it, and concurrent first readers wait for
/// that one build and see the same pointer. A companion an update
/// maintained from its predecessor's arrives already built (`Install`).
/// get() returns null when the graph has no companion (coarsening off, tiny
/// graph, no reduction).
class CoarseCompanion {
 public:
  using Builder = std::function<std::unique_ptr<const CoarseGraphEntry>()>;

  CoarseCompanion() = default;
  CoarseCompanion(const CoarseCompanion&) = delete;
  CoarseCompanion& operator=(const CoarseCompanion&) = delete;

  /// Arms the lazy build. Only before the owning entry is published.
  void Defer(Builder build) { build_ = std::move(build); }
  /// Installs an already-built companion. Only before the owning entry is
  /// published.
  void Install(std::unique_ptr<const CoarseGraphEntry> companion);

  /// The companion, building it on the first call.
  const CoarseGraphEntry* get() const;
  /// True once the companion has been built (or installed). Never builds,
  /// and never waits for a build in progress, so UpdateGraph can check it
  /// without stalling behind a first fast request.
  bool built() const { return built_.load(std::memory_order_acquire); }

  const CoarseGraphEntry* operator->() const { return get(); }
  const CoarseGraphEntry& operator*() const { return *get(); }
  explicit operator bool() const { return get() != nullptr; }
  friend bool operator==(const CoarseCompanion& c, std::nullptr_t) {
    return c.get() == nullptr;
  }
  friend bool operator!=(const CoarseCompanion& c, std::nullptr_t) {
    return c.get() != nullptr;
  }

 private:
  mutable std::mutex mutex_;  ///< serializes the one build
  mutable Builder build_;     ///< released once it has run
  mutable std::unique_ptr<const CoarseGraphEntry> companion_;
  mutable std::atomic<bool> built_{false};
};

/// Immutable per-graph serving state, built once at registration: the view
/// Laplacians and the aggregator holding their union sparsity pattern and
/// the graph's row partition. Every solve on the graph reads this and only
/// this — no solve mutates it (the coarse companion is built once, on first
/// use, behind its own lock) — so any number of concurrent solves may share
/// one entry.
struct GraphEntry {
  std::string id;
  /// Generation number: 0 at registration, +1 per applied UpdateGraph delta.
  /// Entries are immutable — an update publishes a *new* entry under the
  /// same id; solves that hold the old epoch's snapshot finish on it.
  int64_t epoch = 0;
  int64_t num_nodes = 0;
  int num_clusters = 0;  ///< default k for requests that don't set one
  /// EVERY current view of the graph, masked ones included (global view
  /// order: graph views first). Masked views keep their precomputed
  /// Laplacians here so UnmaskView is a cheap epoch flip, no KNN re-run.
  std::vector<la::CsrMatrix> views;
  /// Stable per-view identity, parallel to `views`: assigned at registration
  /// (and by AddView) and carried unchanged across epochs, so the active-set
  /// signature below distinguishes "view 2 was removed" from "view 2 was
  /// replaced by a different view at the same index".
  std::vector<uint64_t> view_uids;
  /// Activity mask, parallel to `views`; all-true at registration, flipped
  /// by MaskView/UnmaskView deltas.
  std::vector<bool> active;
  /// Order-sensitive FNV-1a fold of the ACTIVE view uids — the active-set
  /// epoch stamp. Checkpoints persist it (Restore cross-checks it against
  /// the rebuilt entry) and bitdump prints it as the active-set
  /// fingerprint.
  uint64_t views_signature = 0;
  /// Compacted active-view Laplacians, populated ONLY when some view is
  /// masked; empty otherwise (then `views` itself is the serving set, as
  /// before this field existed). Serving through a genuinely compacted
  /// vector — not zero weights over the full union — keeps the union
  /// pattern, SIMD lane layout, and therefore every solve bit-identical to
  /// registering the active subset from scratch.
  std::vector<la::CsrMatrix> active_views;
  /// Serving index -> index into `views`; parallel to serving_views().
  /// Identity (and left empty) when nothing is masked.
  std::vector<int> active_to_global;
  /// Registration default for SolveRequest::robust (RegisterOptions).
  bool robust_views = false;

  /// The views solves run on: the compacted active subset when any view is
  /// masked, otherwise all views.
  const std::vector<la::CsrMatrix>& serving_views() const {
    return active_views.empty() ? views : active_views;
  }
  int num_active_views() const {
    return static_cast<int>(active_views.empty() ? views.size()
                                                 : active_views.size());
  }

  /// Built after `views` is in place (it keeps a pointer into the entry);
  /// entries are therefore handed out only behind shared_ptr and never moved.
  /// Aggregates serving_views() — the compacted subset when masked — over
  /// the row partition RegisterOptions::shards asked for (one shard unless
  /// the graph was registered with shards > 1 and is large enough to split).
  std::unique_ptr<core::LaplacianAggregator> aggregator;
  /// The ratio the entry was registered with, carried across epochs so
  /// UpdateGraph can rebuild the companion consistently. 0 when disabled.
  double coarsen_ratio = 0.0;
  /// This epoch's attribute matrices (global attribute-view order), pinned
  /// so a companion built long after later epochs were published still
  /// contracts this epoch's rows. Epochs that touch no attribute view share
  /// their predecessor's pointer. Null when the graph has no attribute
  /// views, no update source (RegisterViews) or can never get a companion.
  std::shared_ptr<const std::vector<la::DenseMatrix>> attributes;
  /// Built from this epoch's state on first fast use (see
  /// CoarseCompanion), unless UpdateGraph maintained it from the previous
  /// epoch's built companion. Null iff the graph was registered with
  /// coarsen_ratio = 0, is tiny, or the matching achieved no reduction.
  CoarseCompanion coarse;
};

/// Mutable per-graph state a persist checkpoint must capture beyond the
/// MultiViewGraph itself: the epoch counter, the stable view identities and
/// activity mask, and the uid allocator position. Restore() installs it in
/// place of the registration defaults so a recovered entry is
/// indistinguishable from the pre-crash one (see src/persist/).
struct RestoreState {
  int64_t epoch = 0;
  std::vector<uint64_t> view_uids;  ///< empty = registration default 1..V
  std::vector<bool> active;         ///< empty = all active
  uint64_t next_view_uid = 0;       ///< 0 = V + 1
  /// Expected active-set signature; 0 skips the check. A mismatch means the
  /// checkpoint and the rebuilt state disagree — Restore fails rather than
  /// serve a graph that contradicts its own checkpoint.
  uint64_t views_signature = 0;
};

/// Checks `state` against a graph of `num_views` views and fills in the
/// registration defaults it leaves empty (uids 1..V, every view active, next
/// uid V + 1). Fails with InvalidArgument when the uid count or the mask
/// size disagrees with the view count, when every view is masked, or when a
/// non-zero `views_signature` contradicts the uids and mask. Restore runs it
/// on every entry it publishes; WAL recovery runs it on each checkpoint
/// before the first record applies.
Status ResolveRestoreState(const std::string& id, size_t num_views,
                           RestoreState* state);

/// Carries a graph's view identities across one applied delta: a carried
/// view keeps its uid, an added view takes `*next_view_uid` (which then
/// advances), and the activity mask becomes `effects.active`. UpdateGraph
/// and WAL recovery both advance a graph through this one rule.
void AdvanceViewIdentity(const DeltaEffects& effects,
                         std::vector<uint64_t>* view_uids,
                         std::vector<bool>* active, uint64_t* next_view_uid);

/// A consistent copy of one graph's update source plus the entry snapshot it
/// corresponds to, taken under the per-id update lock (so no delta lands
/// between the two). What Engine::Checkpoint persists.
struct SourceSnapshot {
  core::MultiViewGraph mvag;
  graph::KnnOptions knn;
  uint64_t next_view_uid = 0;
  std::shared_ptr<const GraphEntry> entry;
};

/// Registers/evicts MultiViewGraphs by id and hands out shared snapshots.
/// Eviction only unlinks the entry from the map: solves that already hold
/// the shared_ptr keep a fully valid graph until they finish (no
/// use-after-evict by construction), and the entry is destroyed when the
/// last holder drops it. All methods are thread-safe; the expensive
/// per-graph precomputation (KNN graphs, Laplacians, union pattern) runs
/// outside the registry lock.
class GraphRegistry {
 public:
  /// Precomputes view Laplacians (attribute views through `knn`) and the
  /// union pattern — sharded per `options.shards` — then publishes the
  /// entry. Fails on duplicate id.
  Result<std::shared_ptr<const GraphEntry>> Register(
      const std::string& id, const core::MultiViewGraph& mvag,
      const RegisterOptions& options);
  Result<std::shared_ptr<const GraphEntry>> Register(
      const std::string& id, const core::MultiViewGraph& mvag,
      const graph::KnnOptions& knn = {});

  /// Registers already-computed view Laplacians (callers that precompute or
  /// share views across registries). Fails on duplicate id or empty views.
  Result<std::shared_ptr<const GraphEntry>> RegisterViews(
      const std::string& id, std::vector<la::CsrMatrix> views,
      int num_clusters, const RegisterOptions& options = {});

  /// Applies a delta to a graph registered through one of the
  /// MultiViewGraph overloads (RegisterViews entries carry no source graph
  /// and fail with FailedPrecondition) and publishes the next epoch behind
  /// the same copy-on-write snapshot scheme: in-flight solves keep their
  /// epoch, the next Find() sees the new one. Per id, updates serialize on
  /// an internal mutex; an update that loses a race against Evict (or
  /// evict + re-register) fails with NotFound / FailedPrecondition without
  /// publishing anything.
  ///
  /// Cost scales with what the delta touched: only affected views'
  /// Laplacians are recomputed (attribute rows re-run that view's KNN), and
  /// the new epoch's aggregators are built from the previous ones on the
  /// same row partition: when no view changes sparsity they share the
  /// previous pattern object — same pattern_id, so bound solve workspaces
  /// skip rebinding entirely — and otherwise only the rows whose pattern
  /// changed re-merge (see core::LaplacianAggregator). An empty delta
  /// returns the current entry without bumping the epoch.
  ///
  /// Lifecycle deltas (AddView/RemoveView/MaskView/UnmaskView), and any
  /// delta applied while some view is masked, rebuild the serving
  /// aggregator from scratch over the active view subset and leave the
  /// coarse companion to a lazy build — exactly what registering that
  /// subset fresh would build, so masked/removed-view solves are
  /// bit-identical to a fresh registration of the subset.
  ///
  /// AddView precomputes the Laplacian (and, for attribute views, the KNN
  /// graph) of just the new view; MaskView keeps the view's Laplacian so a
  /// later UnmaskView recomputes nothing.
  ///
  /// The coarse companion is maintained only when the previous epoch's was
  /// already built (value-only carry, in-place repair, or a rebuild once
  /// the structural churn since its last from-scratch build passes 5% of
  /// the rows); otherwise the new epoch builds it lazily too.
  Result<std::shared_ptr<const GraphEntry>> UpdateGraph(
      const std::string& id, const GraphDelta& delta);

  /// Register() with the checkpointed mutable state installed instead of the
  /// registration defaults (Register is Restore with a default state): the
  /// entry comes back at `state.epoch` with the given view uids, activity
  /// mask and uid allocator, and the serving aggregator is built from
  /// scratch over the active subset (the coarse companion builds lazily) —
  /// what a fresh registration of that subset builds, which every updated
  /// epoch equals, so recovered solves are bit-identical to the pre-crash
  /// process. Fails on duplicate id or on state that contradicts the graph
  /// (see ResolveRestoreState).
  Result<std::shared_ptr<const GraphEntry>> Restore(
      const std::string& id, const core::MultiViewGraph& mvag,
      const RegisterOptions& options, const RestoreState& state);

  /// A consistent (mvag, entry) pair for `id`, taken under the per-id update
  /// lock so no delta can land between copying the graph and snapshotting
  /// the entry. Fails like UpdateGraph on RegisterViews / updatable=false
  /// entries (there is no source to snapshot).
  Result<SourceSnapshot> SnapshotSource(const std::string& id) const;

  /// Unlinks the entry; returns false if the id was not registered. The id
  /// becomes immediately re-registrable.
  bool Evict(const std::string& id);

  /// The entry for `id`, or nullptr. Holding the returned pointer keeps the
  /// graph alive across a concurrent Evict.
  std::shared_ptr<const GraphEntry> Find(const std::string& id) const;

  std::vector<std::string> Ids() const;
  size_t size() const;

 private:
  /// Mutable per-id update state, kept only for graphs registered with a
  /// MultiViewGraph source. `mvag` is the registry's own working copy the
  /// deltas accumulate into; `mutex` serializes UpdateGraph calls per id
  /// (the registry map lock is never held across the expensive rebuild).
  struct GraphSource {
    core::MultiViewGraph mvag;
    graph::KnnOptions knn;
    /// Next view uid AddView hands out (registration consumed 1..V).
    /// Mutated only under `mutex`, like `mvag`.
    uint64_t next_view_uid = 1;
    std::mutex mutex;
  };

  /// `mvag` (may be null for RegisterViews entries) supplies the attribute
  /// rows the lazy coarse build re-runs KNN on (averaged per coarse row,
  /// with `options.knn`). `state` is resolved against the entry's views and
  /// installed as its epoch / uids / activity mask (see Restore).
  Result<std::shared_ptr<const GraphEntry>> Publish(
      std::shared_ptr<GraphEntry> entry, const RegisterOptions& options,
      std::shared_ptr<GraphSource> source, const core::MultiViewGraph* mvag,
      RestoreState state);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const GraphEntry>> graphs_;
  /// Update sources, same keys as graphs_ (absent for RegisterViews
  /// entries); under mutex_. Values are shared so UpdateGraph can work on a
  /// source after dropping the map lock.
  std::unordered_map<std::string, std::shared_ptr<GraphSource>> sources_;
};

}  // namespace serve
}  // namespace sgla

#endif  // SGLA_SERVE_GRAPH_REGISTRY_H_
