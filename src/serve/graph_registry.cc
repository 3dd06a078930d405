#include "serve/graph_registry.h"

#include <cstdint>
#include <string>
#include <utility>

#include "util/thread_pool.h"

namespace sgla {
namespace serve {
namespace {

// Coarse-companion policy. Once the structurally-changed fine rows summed
// over the deltas since a plan was last built from scratch pass this
// fraction of the rows, UpdateGraph abandons localized plan repair and
// re-coarsens from scratch (a repaired plan stays valid but drifts from what
// a fresh matching would build); below the row floor, no companion is built
// — the exact solve is already cheap there.
constexpr double kCoarseChurnThreshold = 0.05;
constexpr int64_t kMinCoarsenFineRows = 64;

// Serving indexes columns and SELL slots in 32 bits (la::SellMatrix), so a
// graph must fit them: at most INT32_MAX nodes, and few enough view entries
// that the padded SELL form (at most kSellLanes slots per union entry, and
// the union holds at most the views' summed entries) does too.
Status CheckIndexRange(const std::string& id, int64_t num_nodes,
                       const std::vector<la::CsrMatrix>* views) {
  if (num_nodes > INT32_MAX) {
    return InvalidArgument("graph '" + id + "' has " +
                           std::to_string(num_nodes) +
                           " nodes; at most INT32_MAX are supported");
  }
  int64_t entries = 0;
  for (size_t v = 0; views != nullptr && v < views->size(); ++v) {
    entries += (*views)[v].nnz();
  }
  if (entries > INT32_MAX / la::kSellLanes) {
    return InvalidArgument("graph '" + id + "' has " +
                           std::to_string(entries) +
                           " Laplacian entries, past the 32-bit index range");
  }
  return OkStatus();
}

// Order-sensitive FNV-1a fold of the active view uids — the active-set
// epoch stamp (GraphEntry::views_signature). Masking, unmasking, adding, or
// removing a view all change it; pure edits and the epoch counter do not.
uint64_t ActiveViewsSignature(const std::vector<uint64_t>& uids,
                              const std::vector<bool>& active) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t v = 0; v < uids.size(); ++v) {
    if (!active.empty() && !active[v]) continue;
    uint64_t x = uids[v];
    for (int b = 0; b < 8; ++b) {
      hash ^= x & 0xffu;
      hash *= 1099511628211ull;
      x >>= 8;
    }
  }
  return hash;
}

// Fills the entry's serving-subset state (active_views, active_to_global,
// views_signature) from views/view_uids/active. The compacted vectors stay
// empty when everything is active — serving then reads `views` directly,
// exactly the pre-lifecycle layout.
void BuildActiveState(GraphEntry* entry) {
  entry->views_signature =
      ActiveViewsSignature(entry->view_uids, entry->active);
  entry->active_views.clear();
  entry->active_to_global.clear();
  bool all_active = true;
  for (size_t v = 0; v < entry->active.size(); ++v) {
    all_active = all_active && entry->active[v];
  }
  if (all_active) return;
  for (size_t v = 0; v < entry->views.size(); ++v) {
    if (!entry->active[v]) continue;
    entry->active_views.push_back(entry->views[v]);
    entry->active_to_global.push_back(static_cast<int>(v));
  }
}

// Contracts serving view `v` of `entry` onto the coarse node set. Graph
// views contract directly (Galerkin similarity + re-normalize); attribute
// views average the entry's pinned attribute rows per cluster and re-run
// that view's KNN on the coarse attributes, so the coarse view reflects
// coarse-level neighborhoods instead of a contraction of fine KNN edges.
// Without pinned attributes (RegisterViews, or a graph without attribute
// views) every view contracts directly.
Result<la::CsrMatrix> ContractOneView(const GraphEntry& entry,
                                      const coarse::CoarsePlan& plan,
                                      const graph::KnnOptions& knn, size_t v) {
  const size_t global = entry.active_to_global.empty()
                            ? v
                            : static_cast<size_t>(entry.active_to_global[v]);
  // Global view order is graph views first, attribute views last.
  const size_t num_graph_views =
      entry.views.size() -
      (entry.attributes == nullptr ? 0 : entry.attributes->size());
  if (global < num_graph_views) {
    return coarse::ContractView(entry.serving_views()[v], plan);
  }
  const la::DenseMatrix& attributes =
      (*entry.attributes)[global - num_graph_views];
  core::MultiViewGraph coarse_mvag(plan.coarse_rows, 0);
  coarse_mvag.AddAttributeView(coarse::AverageRows(attributes, plan));
  return core::ComputeViewLaplacian(coarse_mvag, 0, knn);
}

// The graph-view Laplacians of an update epoch build inline on the writing
// thread (ThreadPool::InlineScope: same chunks, same bits), not on the
// kernel pool. When the pool still ran one job at a time, pool-parallel
// builds here made the concurrent re-solves on update_stream 35-145%
// slower. The pool now runs jobs side by side, but a faster writer also
// packs more writes into each re-solve there, so whether the pool pays
// again is not measured yet. An attribute view's KNN keeps the pool, as
// before (inline, it doubled an attribute write). Registration and
// recovery, which no solve of the graph overlaps, build on the pool.
Result<la::CsrMatrix> EpochViewLaplacian(const core::MultiViewGraph& mvag,
                                         size_t view,
                                         const graph::KnnOptions& knn) {
  if (view >= mvag.graph_views().size()) {
    return core::ComputeViewLaplacian(mvag, static_cast<int>(view), knn);
  }
  util::ThreadPool::InlineScope inline_build;
  return core::ComputeViewLaplacian(mvag, static_cast<int>(view), knn);
}

// Builds the coarse companion for `entry` from scratch, or null when
// coarsening is off, the graph is too small, or the matching achieved no
// reduction. The companion is best-effort: a view that fails to contract
// (degenerate coarse KNN) drops the companion rather than the registration.
// Contracts the SERVING views — with a masked entry the companion covers the
// active subset only, matching what a fresh registration of that subset
// would build.
std::unique_ptr<const CoarseGraphEntry> BuildCoarseEntry(
    const GraphEntry& entry, const graph::KnnOptions& knn) {
  if (entry.coarsen_ratio <= 0.0 || entry.num_nodes < kMinCoarsenFineRows) {
    return nullptr;
  }
  const std::vector<la::CsrMatrix>& fine = entry.serving_views();
  coarse::CoarsenOptions options;
  options.ratio = entry.coarsen_ratio;
  std::unique_ptr<CoarseGraphEntry> companion(new CoarseGraphEntry);
  companion->plan = coarse::BuildCoarsePlan(entry.aggregator->pattern(),
                                            fine, options);
  if (companion->plan.coarse_rows >= entry.num_nodes ||
      companion->plan.coarse_rows < 2) {
    return nullptr;
  }
  companion->views.reserve(fine.size());
  for (size_t v = 0; v < fine.size(); ++v) {
    auto view = ContractOneView(entry, companion->plan, knn, v);
    if (!view.ok()) return nullptr;
    companion->views.push_back(std::move(*view));
  }
  companion->aggregator.reset(new core::LaplacianAggregator(&companion->views));
  return std::unique_ptr<const CoarseGraphEntry>(companion.release());
}

// A copy of `mvag`'s attribute matrices for `entry` to pin, or null when no
// companion build of the entry would ever read one.
std::shared_ptr<const std::vector<la::DenseMatrix>> PinAttributes(
    const GraphEntry& entry, const core::MultiViewGraph& mvag) {
  if (entry.coarsen_ratio <= 0.0 || entry.num_nodes < kMinCoarsenFineRows ||
      mvag.attribute_views().empty()) {
    return nullptr;
  }
  return std::make_shared<const std::vector<la::DenseMatrix>>(
      mvag.attribute_views());
}

// Arms `entry`'s companion to build from the entry's own state on first use.
// The raw pointer is safe: the slot lives inside the entry, and entries never
// move.
void DeferCoarse(GraphEntry* entry, const graph::KnnOptions& knn) {
  const GraphEntry* owner = entry;
  entry->coarse.Defer([owner, knn] { return BuildCoarseEntry(*owner, knn); });
}

}  // namespace

void CoarseCompanion::Install(
    std::unique_ptr<const CoarseGraphEntry> companion) {
  build_ = nullptr;
  companion_ = std::move(companion);
  built_.store(true, std::memory_order_release);
}

const CoarseGraphEntry* CoarseCompanion::get() const {
  if (!built_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!built_.load(std::memory_order_relaxed)) {
      if (build_) companion_ = build_();
      build_ = nullptr;
      built_.store(true, std::memory_order_release);
    }
  }
  return companion_.get();
}

Status ResolveRestoreState(const std::string& id, size_t num_views,
                           RestoreState* state) {
  if (state->view_uids.empty()) {
    state->view_uids.resize(num_views);
    for (size_t v = 0; v < num_views; ++v) {
      state->view_uids[v] = static_cast<uint64_t>(v) + 1;
    }
  } else if (state->view_uids.size() != num_views) {
    return InvalidArgument("restore state for '" + id + "' carries " +
                           std::to_string(state->view_uids.size()) +
                           " view uids for " + std::to_string(num_views) +
                           " views");
  }
  if (state->active.empty()) {
    state->active.assign(num_views, true);
  } else if (state->active.size() != num_views) {
    return InvalidArgument("restore state for '" + id +
                           "' activity mask does not match the view count");
  }
  bool any_active = false;
  for (size_t v = 0; v < num_views; ++v) {
    any_active = any_active || state->active[v];
  }
  if (!any_active) {
    return InvalidArgument("restore state for '" + id + "' masks every view");
  }
  if (state->next_view_uid == 0) state->next_view_uid = num_views + 1;
  if (state->views_signature != 0 &&
      state->views_signature !=
          ActiveViewsSignature(state->view_uids, state->active)) {
    return InvalidArgument("restore state for '" + id +
                           "' active-set signature mismatch");
  }
  return OkStatus();
}

void AdvanceViewIdentity(const DeltaEffects& effects,
                         std::vector<uint64_t>* view_uids,
                         std::vector<bool>* active, uint64_t* next_view_uid) {
  std::vector<uint64_t> uids(effects.carried_from.size());
  for (size_t v = 0; v < uids.size(); ++v) {
    const int from = effects.carried_from[v];
    uids[v] = from >= 0 ? (*view_uids)[static_cast<size_t>(from)]
                        : (*next_view_uid)++;
  }
  *view_uids = std::move(uids);
  *active = effects.active;
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Publish(
    std::shared_ptr<GraphEntry> entry, const RegisterOptions& options,
    std::shared_ptr<GraphSource> source, const core::MultiViewGraph* mvag,
    RestoreState state) {
  // Contradictory state rejects rather than serving a graph whose lifecycle
  // stamps would lie; a default state resolves to the registration one.
  Status resolved = ResolveRestoreState(entry->id, entry->views.size(), &state);
  if (!resolved.ok()) return resolved;
  Status in_range = CheckIndexRange(entry->id, entry->num_nodes, &entry->views);
  if (!in_range.ok()) return in_range;
  entry->epoch = state.epoch;
  entry->view_uids = std::move(state.view_uids);
  entry->active = std::move(state.active);
  entry->robust_views = options.robust_views;
  BuildActiveState(entry.get());
  if (source != nullptr) source->next_view_uid = state.next_view_uid;
  const std::vector<la::CsrMatrix>* serving =
      entry->active_views.empty() ? &entry->views : &entry->active_views;
  entry->aggregator = std::make_unique<core::LaplacianAggregator>(
      serving, entry->num_nodes > 0
                   ? MakeShardPlan(entry->num_nodes, options.shards).boundaries
                   : std::vector<int64_t>());
  entry->coarsen_ratio = options.coarsen_ratio > 0.0 ? options.coarsen_ratio
                                                     : 0.0;
  if (mvag != nullptr) entry->attributes = PinAttributes(*entry, *mvag);
  DeferCoarse(entry.get(), options.knn);
  std::shared_ptr<const GraphEntry> published = std::move(entry);
  std::lock_guard<std::mutex> lock(mutex_);
  auto inserted = graphs_.emplace(published->id, published);
  if (!inserted.second) {
    return FailedPrecondition("graph '" + published->id +
                              "' is already registered (evict it first)");
  }
  // The update source rides along only when registration itself succeeded
  // (and only for the MultiViewGraph overloads, which pass one).
  if (source != nullptr) sources_[published->id] = std::move(source);
  return published;
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Register(
    const std::string& id, const core::MultiViewGraph& mvag,
    const RegisterOptions& options) {
  return Restore(id, mvag, options, RestoreState());
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Register(
    const std::string& id, const core::MultiViewGraph& mvag,
    const graph::KnnOptions& knn) {
  RegisterOptions options;
  options.knn = knn;
  return Register(id, mvag, options);
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Restore(
    const std::string& id, const core::MultiViewGraph& mvag,
    const RegisterOptions& options, const RestoreState& state) {
  // Rejected before any per-node allocation.
  Status in_range = CheckIndexRange(id, mvag.num_nodes(), nullptr);
  if (!in_range.ok()) return in_range;
  // The expensive part (KNN construction, Laplacians, union pattern) runs
  // before the lock, so registration never stalls concurrent Find/Evict.
  auto views = core::ComputeViewLaplacians(mvag, options.knn);
  if (!views.ok()) return views.status();
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->num_nodes = mvag.num_nodes();
  entry->num_clusters = mvag.num_clusters();
  entry->views = std::move(*views);
  // The working copy UpdateGraph deltas accumulate into. Roughly doubles
  // the registration-time graph footprint, in exchange for updates that
  // touch only what a delta changed; options.updatable = false declines.
  // Publish sets its uid allocator.
  std::shared_ptr<GraphSource> source;
  if (options.updatable) {
    source = std::make_shared<GraphSource>();
    source->mvag = mvag;
    source->knn = options.knn;
  }
  return Publish(std::move(entry), options, std::move(source), &mvag, state);
}

Result<SourceSnapshot> GraphRegistry::SnapshotSource(
    const std::string& id) const {
  std::shared_ptr<GraphSource> source;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("graph '" + id + "' is not registered");
    }
    auto sit = sources_.find(id);
    if (sit == sources_.end()) {
      return FailedPrecondition(
          "graph '" + id +
          "' carries no update source (RegisterViews entry or "
          "updatable=false); nothing to snapshot");
    }
    source = sit->second;
  }
  // The per-id update lock makes the (mvag, entry) pair consistent: no delta
  // can apply between copying the graph and re-reading the entry. The entry
  // re-fetch below mirrors UpdateGraph's evict/replace race check.
  std::lock_guard<std::mutex> update_lock(source->mutex);
  SourceSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    auto sit = sources_.find(id);
    if (it == graphs_.end() || sit == sources_.end() ||
        sit->second != source) {
      return NotFound("graph '" + id +
                      "' was evicted or replaced during the snapshot");
    }
    snapshot.entry = it->second;
  }
  snapshot.mvag = source->mvag;
  snapshot.knn = source->knn;
  snapshot.next_view_uid = source->next_view_uid;
  return snapshot;
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::RegisterViews(
    const std::string& id, std::vector<la::CsrMatrix> views,
    int num_clusters, const RegisterOptions& options) {
  if (views.empty()) {
    return InvalidArgument("RegisterViews needs at least one view");
  }
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->num_nodes = views[0].rows;
  entry->num_clusters = num_clusters;
  entry->views = std::move(views);
  return Publish(std::move(entry), options, nullptr, nullptr, RestoreState());
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::UpdateGraph(
    const std::string& id, const GraphDelta& delta) {
  std::shared_ptr<GraphSource> source;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("graph '" + id + "' is not registered");
    }
    auto sit = sources_.find(id);
    if (sit == sources_.end()) {
      return FailedPrecondition(
          "graph '" + id +
          "' carries no update source (RegisterViews entry or "
          "updatable=false); evict and re-register to change it");
    }
    source = sit->second;
  }

  // Updates serialize per id; the registry map lock is never held across
  // the delta application or the rebuild below.
  std::lock_guard<std::mutex> update_lock(source->mutex);

  // Re-fetch the entry now that we own the update lock: a concurrent update
  // may have published a newer epoch while we waited, and deltas always
  // apply on the latest. A concurrent evict (or evict + re-register, which
  // installs a fresh source) fails the update instead of resurrecting the
  // id with stale state.
  std::shared_ptr<const GraphEntry> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    auto sit = sources_.find(id);
    if (it == graphs_.end() || sit == sources_.end() ||
        sit->second != source) {
      return NotFound("graph '" + id +
                      "' was evicted or replaced during the update");
    }
    old = it->second;
  }
  if (delta.empty()) return old;

  // Validate-then-apply: a rejected delta leaves the source untouched. The
  // published entry's activity mask is authoritative here — we hold the
  // update lock, so no other epoch can flip it concurrently.
  DeltaEffects effects;
  Status applied = ApplyDelta(&source->mvag, delta, old->active, &effects);
  if (!applied.ok()) return applied;
  const std::vector<bool>& affected = effects.affected;

  bool was_masked = false;
  for (size_t v = 0; v < old->active.size(); ++v) {
    was_masked = was_masked || !old->active[v];
  }

  // Copy-on-write next epoch: unaffected views are carried over bitwise
  // (cheap copies, and the precondition for pattern reuse), affected views
  // recompute — attribute rows re-run that one view's KNN, nothing else.
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->epoch = old->epoch + 1;
  entry->num_nodes = old->num_nodes;
  entry->num_clusters = old->num_clusters;
  entry->coarsen_ratio = old->coarsen_ratio;
  entry->robust_views = old->robust_views;
  entry->view_uids = old->view_uids;
  entry->active = old->active;
  AdvanceViewIdentity(effects, &entry->view_uids, &entry->active,
                      &source->next_view_uid);

  if (effects.lifecycle || was_masked) {
    // View-lifecycle epoch (or an edit while some view is masked): the view
    // set changed shape, so the per-row patch below does not apply —
    // rebuild the serving state from scratch over the active subset, which
    // is exactly what registering that subset fresh would build (the
    // bit-identity contract for masked/removed-view solves). Carried,
    // unedited views copy their Laplacians bitwise; masked views stay
    // resident so UnmaskView is a flip, not a KNN re-run.
    const size_t post = effects.carried_from.size();
    entry->views.resize(post);
    for (size_t v = 0; v < post; ++v) {
      const int from = effects.carried_from[v];
      if (from >= 0 && !affected[v]) {
        entry->views[v] = old->views[static_cast<size_t>(from)];
        continue;
      }
      auto laplacian = EpochViewLaplacian(source->mvag, v, source->knn);
      if (!laplacian.ok()) return laplacian.status();
      entry->views[v] = std::move(*laplacian);
    }
    BuildActiveState(entry.get());
    const std::vector<la::CsrMatrix>* serving =
        entry->active_views.empty() ? &entry->views : &entry->active_views;
    // Same node count, same shard option: the carried partition is exactly
    // what MakeShardPlan would rebuild, so fresh-registration bit-identity
    // holds.
    entry->aggregator = std::make_unique<core::LaplacianAggregator>(
        serving, old->aggregator->boundaries());
    entry->attributes = PinAttributes(*entry, source->mvag);
    DeferCoarse(entry.get(), source->knn);

    std::shared_ptr<const GraphEntry> published = std::move(entry);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end() || it->second != old) {
      return NotFound("graph '" + id +
                      "' was evicted or replaced during the update");
    }
    it->second = published;
    return published;
  }

  entry->views.resize(old->views.size());
  entry->views_signature = old->views_signature;  // same uids, all active
  // Attribute rows the entry pins: a delta that edits no attribute view
  // shares the previous epoch's.
  bool attributes_touched = false;
  const size_t num_graph_views = source->mvag.graph_views().size();
  for (size_t v = 0; v < affected.size(); ++v) {
    if (!affected[v]) {
      entry->views[v] = old->views[v];
      continue;
    }
    attributes_touched = attributes_touched || v >= num_graph_views;
    auto laplacian = EpochViewLaplacian(source->mvag, v, source->knn);
    // Unreachable after validation; if it ever fires the source may lead the
    // published epoch — evict and re-register to resynchronize.
    if (!laplacian.ok()) return laplacian.status();
    entry->views[v] = std::move(*laplacian);
  }

  // Same view set, same row partition: the new aggregator diffs every
  // view's row patterns against the previous epoch's. With none changed it
  // shares the previous pattern object under the *same* pattern_id, so
  // session workspaces bound to the previous epoch re-scatter values
  // without rebinding; otherwise only the changed rows re-merge.
  entry->aggregator = std::make_unique<core::LaplacianAggregator>(
      &entry->views, old->aggregator->boundaries(), old->aggregator.get());
  // The fine rows whose *structural* slots changed in some view, and their
  // count (churn). The coarse plan is a pure function of structure, so
  // these rows are exactly the ones that can invalidate it.
  const std::vector<int64_t>& changed = entry->aggregator->changed_rows();
  const int64_t churn = static_cast<int64_t>(changed.size());

  entry->attributes = attributes_touched
                          ? PinAttributes(*entry, source->mvag)
                          : old->attributes;

  // Coarse companion maintenance (DESIGN.md "Tiered serving"). Only a
  // companion that was already built is maintained; an unbuilt one stays
  // lazy (`built()` never builds, unlike a nullptr comparison). Value-only
  // deltas provably preserve the plan, so only the touched views
  // re-contract — and the coarse aggregator shares or patches its
  // predecessor's pattern like the fine one. Localized structural churn
  // repairs the affected clusters in place; once the churn summed since the
  // plan was last built from scratch passes the limit, it re-coarsens from
  // scratch (which also makes update-then-solve equal
  // re-register-then-solve on that epoch).
  const CoarseGraphEntry* old_coarse =
      old->coarse.built() ? old->coarse.get() : nullptr;
  if (old_coarse == nullptr) {
    DeferCoarse(entry.get(), source->knn);
  } else {
    const double churn_limit =
        kCoarseChurnThreshold * static_cast<double>(entry->num_nodes);
    const int64_t total_churn = old_coarse->churn + churn;
    std::unique_ptr<CoarseGraphEntry> companion;
    if (static_cast<double>(total_churn) <= churn_limit) {
      companion.reset(new CoarseGraphEntry);
      companion->plan = old_coarse->plan;
      companion->churn = total_churn;
      const bool plan_unchanged = churn == 0;
      if (!plan_unchanged) {
        std::vector<bool> changed_rows(static_cast<size_t>(entry->num_nodes),
                                       false);
        for (int64_t r : changed) changed_rows[static_cast<size_t>(r)] = true;
        coarse::RepairCoarsePlan(entry->aggregator->pattern(), entry->views,
                                 changed_rows, &companion->plan);
      }
      companion->views = old_coarse->views;
      for (size_t v = 0; v < entry->views.size(); ++v) {
        // A repaired plan changes the coarse node set, so every view must
        // re-contract; an unchanged plan re-contracts only touched views.
        if (plan_unchanged && !affected[v]) continue;
        auto view = ContractOneView(*entry, companion->plan, source->knn, v);
        if (!view.ok()) {
          companion.reset();
          break;
        }
        companion->views[v] = std::move(*view);
      }
      if (companion != nullptr) {
        // A repair that kept the coarse row count still diffs against the
        // previous coarse views; one that changed it merges every row.
        const bool same_rows =
            companion->plan.coarse_rows == old_coarse->plan.coarse_rows;
        companion->aggregator.reset(new core::LaplacianAggregator(
            &companion->views, {},
            same_rows ? old_coarse->aggregator.get() : nullptr));
      }
    }
    if (companion != nullptr) {
      entry->coarse.Install(std::move(companion));
    } else {
      entry->coarse.Install(BuildCoarseEntry(*entry, source->knn));
    }
  }

  // Publish iff the entry we built on is still current (compare-and-swap on
  // the snapshot): losing the race to Evict — with or without a re-register
  // — must not resurrect the graph.
  std::shared_ptr<const GraphEntry> published = std::move(entry);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(id);
  if (it == graphs_.end() || it->second != old) {
    return NotFound("graph '" + id +
                    "' was evicted or replaced during the update");
  }
  it->second = published;
  return published;
}

bool GraphRegistry::Evict(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  sources_.erase(id);
  return graphs_.erase(id) > 0;
}

std::shared_ptr<const GraphEntry> GraphRegistry::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(id);
  return it == graphs_.end() ? nullptr : it->second;
}

std::vector<std::string> GraphRegistry::Ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(graphs_.size());
  for (const auto& entry : graphs_) ids.push_back(entry.first);
  return ids;
}

size_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

}  // namespace serve
}  // namespace sgla
