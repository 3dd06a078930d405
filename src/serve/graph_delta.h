#ifndef SGLA_SERVE_GRAPH_DELTA_H_
#define SGLA_SERVE_GRAPH_DELTA_H_

#include <cstdint>
#include <vector>

#include "core/mvag.h"
#include "la/dense.h"
#include "util/status.h"

namespace sgla {
namespace serve {

/// Add-or-replace one undirected edge: an existing (u, v) edge (either
/// orientation, parallel duplicates included) is replaced by a single edge
/// with the new weight; a missing one is inserted. Weight changes keep the
/// view's sparsity pattern (as long as degrees stay positive), so a delta of
/// pure upserts on existing edges takes the value-only fast path.
struct EdgeUpsert {
  int64_t u = 0;
  int64_t v = 0;
  double weight = 1.0;
};

/// Remove every (u, v) edge, both orientations. Removals (and upserts that
/// insert) change the view's sparsity pattern and trigger a pattern rebuild
/// of the affected shards.
struct EdgeRemoval {
  int64_t u = 0;
  int64_t v = 0;
};

/// Edits to one graph view (index among the MVAG's graph views).
struct GraphViewDelta {
  int view = 0;
  std::vector<EdgeUpsert> upserts;
  std::vector<EdgeRemoval> removals;
};

/// Replaces one attribute row (index among the MVAG's attribute views). The
/// view's KNN graph — and therefore its Laplacian — is recomputed, which
/// generally changes the view pattern.
struct AttributeRowUpdate {
  int view = 0;
  int64_t row = 0;
  la::Vector values;  ///< the new attribute row, size = view columns
};

/// A complete new view appended to the graph (the AddView lifecycle op).
/// Graph additions append after the existing graph views; attribute
/// additions after the existing attribute views — the global view order
/// (graph views first) is preserved, so adding a graph view shifts every
/// attribute view's global index up by one. Added views start active.
struct ViewAddition {
  bool attribute = false;
  graph::Graph graph;          ///< attribute == false; must match num_nodes
  la::DenseMatrix attributes;  ///< attribute == true; rows must = num_nodes
};

/// A batch of edits to one registered multi-view graph. Applied atomically
/// by GraphRegistry::UpdateGraph: in-flight solves keep the pre-delta
/// snapshot, the next solve sees all of it.
///
/// Lifecycle ops (`add_views`, `remove_views`, `mask_views`,
/// `unmask_views`) change the graph's *view set*; the index lists address
/// views by their PRE-delta global index (graph views first, then attribute
/// views), regardless of what else the delta removes or adds. Within one
/// delta, edits apply first, then mask/unmask flips, then removals, then
/// additions. Masking keeps the view's data and precomputed Laplacian —
/// UnmaskView is a cheap flip back — while RemoveView drops the view for
/// good. A delta may not leave the graph without views, or without at least
/// one ACTIVE view, and may not both mask and unmask one index.
struct GraphDelta {
  std::vector<GraphViewDelta> graph_views;
  std::vector<AttributeRowUpdate> attribute_rows;
  std::vector<ViewAddition> add_views;
  std::vector<int> remove_views;  ///< pre-delta global view indices
  std::vector<int> mask_views;    ///< pre-delta global view indices
  std::vector<int> unmask_views;  ///< pre-delta global view indices

  bool has_lifecycle() const {
    return !add_views.empty() || !remove_views.empty() ||
           !mask_views.empty() || !unmask_views.empty();
  }
  bool empty() const {
    return graph_views.empty() && attribute_rows.empty() && !has_lifecycle();
  }
};

/// What a delta did to the view set, in POST-delta global view order.
struct DeltaEffects {
  /// Views whose Laplacians must be recomputed: edited survivors and every
  /// added view. Masked views still update here — they keep full state so
  /// UnmaskView restores the *current* view, not a stale one.
  std::vector<bool> affected;
  /// Post-delta view -> pre-delta global index it was carried from, or -1
  /// for a view this delta added.
  std::vector<int> carried_from;
  /// Post-delta active mask (pre-delta activity, with this delta's
  /// mask/unmask flips applied; added views are active).
  std::vector<bool> active;
  /// Any lifecycle op was present (registry epochs rebuild serving state
  /// from scratch instead of patching the previous epoch's).
  bool lifecycle = false;
};

/// Validates `delta` against `mvag` (view indices, endpoints, row bounds,
/// attribute widths, lifecycle invariants) and only then applies every edit
/// and lifecycle op in place — a failed validation mutates nothing.
/// `active_before` is the pre-delta activity mask (empty = all active);
/// `effects` reports the post-delta view set.
Status ApplyDelta(core::MultiViewGraph* mvag, const GraphDelta& delta,
                  const std::vector<bool>& active_before,
                  DeltaEffects* effects);

/// Legacy form: all views active before; `affected_views` receives
/// DeltaEffects::affected (post-delta view order).
Status ApplyDelta(core::MultiViewGraph* mvag, const GraphDelta& delta,
                  std::vector<bool>* affected_views);

}  // namespace serve
}  // namespace sgla

#endif  // SGLA_SERVE_GRAPH_DELTA_H_
