#ifndef SGLA_SERVE_ENGINE_H_
#define SGLA_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "core/integration.h"
#include "embed/netmf.h"
#include "persist/store.h"
#include "serve/graph_registry.h"
#include "util/status.h"
#include "util/task_queue.h"

namespace sgla {
namespace serve {

/// What to produce from the integrated Laplacian.
enum class SolveMode {
  kCluster,  ///< NJW spectral clustering labels
  kEmbed,    ///< NetMF embedding of the integrated Laplacian
};

/// Which weight search to run.
enum class Algorithm {
  kSgla,      ///< full derivative-free search (one eigensolve per step)
  kSglaPlus,  ///< surrogate sampling (constant number of eigensolves)
};

/// Serving tier of a solve (see DESIGN.md "Tiered serving").
enum class Quality {
  /// Full-resolution solve on the registered views — today's exact path,
  /// bit-identical at any thread/shard count.
  kExact,
  /// The whole pipeline (weight search + clustering/embedding) runs on the
  /// graph's coarse companion and the result prolongates back to fine rows:
  /// labels copy through the prolongation map, embeddings row-gather.
  /// Roughly an order of magnitude cheaper at the default coarsen_ratio;
  /// approximate by construction (response.integration.laplacian is
  /// coarse-sized). The first fast request of a graph epoch builds the
  /// companion (GraphEntry::coarse) and pays for it; later ones reuse it.
  /// Entries without a companion quietly serve exact.
  kFast,
};

struct SolveRequest {
  std::string graph_id;
  SolveMode mode = SolveMode::kCluster;
  Algorithm algorithm = Algorithm::kSgla;
  /// Cluster count k of the spectral objective (and of the kCluster
  /// backend); 0 = the graph's registered default. The kEmbed output
  /// dimensionality is `netmf.dim`, not k.
  int k = 0;
  /// Serving tier. Tier participates in the coalescing key, so a fast solve
  /// can never mask, or be masked by, an exact one.
  Quality quality = Quality::kExact;
  /// Run the robust (corrupted-view-resistant) objective: the weight search
  /// adds the cross-view agreement penalty
  /// (core::ObjectiveOptions::robust), down-weighting views whose spectra
  /// disagree with the median view. ORed with the graph's registration-time
  /// RegisterOptions::robust_views; the effective flag joins the coalescing
  /// key, so robust and plain solves never coalesce.
  bool robust = false;
  /// `options.base` configures kSgla; the full struct configures kSglaPlus.
  core::SglaPlusOptions options;
  cluster::KMeansOptions kmeans;  ///< kCluster backend
  embed::NetMfOptions netmf;      ///< kEmbed backend
};

/// Per-response solve instrumentation.
struct SolveStats {
  int64_t graph_epoch = 0;    ///< entry epoch the solve ran against
  int64_t lanczos_iterations = 0;  ///< basis vectors built across the solve
  /// The tier that actually served the request: kExact for exact solves and
  /// for fast requests that fell back (no coarse companion).
  Quality tier_served = Quality::kExact;
  /// Basis vectors of the clustering embedding eigensolve (0 for kEmbed).
  int64_t embedding_lanczos_iterations = 0;
  /// View-lifecycle visibility: how many views the solve actually served
  /// over (the active subset) out of the entry's resident total — equal
  /// unless some view is masked.
  int32_t active_views = 0;
  int32_t total_views = 0;
};

struct SolveResponse {
  std::string graph_id;
  core::IntegrationResult integration;
  std::vector<int32_t> labels;   ///< kCluster
  la::DenseMatrix embedding;     ///< kEmbed
  SolveStats stats;
};

struct EngineOptions {
  /// Concurrent solve sessions. Each session worker owns one reusable
  /// workspace; kernel-level parallelism inside a solve still comes from the
  /// shared deterministic ThreadPool.
  int num_sessions = 2;
  /// Admission bound: maximum accepted-but-unfinished solves across
  /// Submit/TrySubmit. 0 (default) keeps today's unbounded behavior; > 0
  /// makes both submission paths reject with RESOURCE_EXHAUSTED once the
  /// bound is reached — typed backpressure instead of an ever-growing
  /// TaskQueue backlog. Coalesced joins ride an already-admitted solve and
  /// are never rejected by this bound.
  int64_t max_pending = 0;
  /// Durability root (see DESIGN.md "Durability & recovery"). Empty
  /// (default) keeps the engine purely in-memory. Non-empty: construction
  /// recovers the registry from the directory's checkpoints + WAL
  /// (recovery_status() reports how that went), and every RegisterGraph /
  /// UpdateGraph / EvictGraph is durable on stable storage before it
  /// returns — a kill -9 at any instant restarts into a state whose solves
  /// are bit-identical to the acknowledged pre-crash state.
  std::string data_dir;
  /// Auto-checkpoint a graph after this many WAL records for it since its
  /// last checkpoint; 0 disables auto-checkpointing (Checkpoint() only).
  int64_t checkpoint_interval = 64;
  /// fsync WAL commits and checkpoint files (default). False is for tests
  /// and tooling that want the format without the disk stalls.
  bool persist_fsync = true;
};

/// Per-call submission knobs for the callback form.
struct SubmitOptions {
  /// Share one physical solve among identical in-flight requests: requests
  /// whose CoalesceKey matches an in-flight coalescable solve get that
  /// solve's response instead of queueing their own. Correct only when
  /// callers also send identical solver options — the RPC front-end
  /// guarantees this by construction (the wire exposes exactly the key
  /// fields; options stay at their defaults).
  bool coalesce = false;
};

/// What identifies interchangeable in-flight solves: every request field the
/// RPC wire carries that can change the answer, with k and robust resolved
/// against the graph (k = 0 means the registered default; robust ORs the
/// registration default).
/// Quality is the *requested* tier: two fast requests coalesce even on a
/// graph that will fall back to exact, and a fast flight never answers an
/// exact request.
struct CoalesceKey {
  std::string graph_id;
  SolveMode mode = SolveMode::kCluster;
  Algorithm algorithm = Algorithm::kSgla;
  int k = 0;
  Quality quality = Quality::kExact;
  bool robust = false;

  bool operator<(const CoalesceKey& other) const {
    return std::tie(graph_id, mode, algorithm, k, quality, robust) <
           std::tie(other.graph_id, other.mode, other.algorithm, other.k,
                    other.quality, other.robust);
  }
};

/// Stateful serving engine over a GraphRegistry: callers submit
/// SolveRequests and get futures; a fixed set of session workers drains the
/// queue. Per-request results are bit-identical to the one-shot
/// core::Sgla/SglaPlus + cluster/embed pipeline on the same views, at any
/// thread count and any request interleaving — solves share only immutable
/// registry state and the (deterministic) kernel pool, and every mutable
/// buffer lives in a per-session workspace that is fully re-initialized per
/// solve. Steady-state objective evaluations inside a warm session allocate
/// zero heap memory (see DESIGN.md "Engine layer").
class Engine {
 public:
  explicit Engine(GraphRegistry* registry, const EngineOptions& options = {});
  /// Drains all pending requests (every future completes) before returning.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a graph on the underlying registry. `options.shards` is the
  /// row-shard knob: 1 (default) runs each solve's kernels chunked through
  /// the global ThreadPool; K > 1 runs each kernel as one pool job with
  /// one chunk per shard — the same code path and bit-identical responses
  /// (asserted in tests).
  Result<std::shared_ptr<const GraphEntry>> RegisterGraph(
      const std::string& id, const core::MultiViewGraph& mvag,
      const RegisterOptions& options = {});

  /// Applies a delta through the registry's copy-on-write epoch scheme (see
  /// GraphRegistry::UpdateGraph): in-flight solves finish on their snapshot,
  /// requests submitted afterwards see the new epoch.
  Result<std::shared_ptr<const GraphEntry>> UpdateGraph(
      const std::string& id, const GraphDelta& delta);

  /// Evicts the graph; in-flight solves finish on their snapshot.
  bool EvictGraph(const std::string& id);

  /// Forces a durable checkpoint of one graph now (persistent engines only:
  /// FailedPrecondition without EngineOptions::data_dir). Compacts the
  /// graph's WAL suffix into a fresh checkpoint — and truncates the WAL once
  /// every graph is covered — so the next recovery replays less. Returns the
  /// epoch the checkpoint captured.
  Result<int64_t> Checkpoint(const std::string& id);

  /// OK when persistence is off or recovery succeeded. When construction
  /// found a data_dir it could not recover (corrupt checkpoint, impossible
  /// WAL sequence, I/O failure), the typed error lands here and every
  /// mutating call (RegisterGraph/UpdateGraph/EvictGraph/Checkpoint) returns
  /// it — the engine refuses to build divergent state on top of a directory
  /// it could not read, and never silently serves wrong state.
  const Status& recovery_status() const { return recovery_status_; }
  /// What recovery restored/replayed; zeros when persistence is off.
  const persist::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  /// Enqueues a solve; the future resolves when a session worker finishes
  /// it. The graph snapshot is taken here, at submit time: a graph evicted
  /// (or replaced under the same id) afterwards still serves this request
  /// from the submitted snapshot — an unknown id fails the future with
  /// NotFound immediately, without occupying a session, and a full engine
  /// (EngineOptions::max_pending) fails it with ResourceExhausted the same
  /// way. The future ALWAYS completes: a solve that returns a non-OK Status
  /// resolves with that Status, and a solve that throws resolves by
  /// re-throwing from future.get() (promise->set_exception) — callers never
  /// hang on a failed request, and the session worker survives to serve the
  /// next one.
  std::future<Result<SolveResponse>> Submit(SolveRequest request);

  /// Completion callback of the callback submission form. Invoked exactly
  /// once, on a session worker thread, after the solve finishes — a solve
  /// that throws surfaces as StatusCode::kInternal here (callbacks have no
  /// exception channel). Must not block for long: it runs on the worker
  /// that would otherwise start the next solve.
  using SolveCallback = std::function<void(const Result<SolveResponse>&)>;

  /// Bounded, coalescing, callback submission — the RPC front-end's entry
  /// point. Returns OK iff the request was admitted (the callback will fire
  /// exactly once); otherwise returns the rejection — NotFound for an
  /// unknown id, ResourceExhausted when `max_pending` accepted solves are
  /// already in flight — and the callback never fires. With
  /// `options.coalesce`, a request with the CoalesceKey of an in-flight
  /// coalescable solve joins that solve: its callback receives the shared
  /// response, no new work is queued, and coalesced() ticks instead of
  /// completed(). Quality is part of the key, so a fast solve in flight
  /// never answers an exact request (or vice versa).
  Status TrySubmit(SolveRequest request, SolveCallback done,
                   const SubmitOptions& options = {});

  /// Convenience: enqueue a whole batch, futures in request order.
  std::vector<std::future<Result<SolveResponse>>> SubmitBatch(
      std::vector<SolveRequest> requests);

  /// Synchronous solve through the same queue (submit + wait).
  Result<SolveResponse> Solve(SolveRequest request);

  /// Blocks until every submitted request has completed.
  void Drain();

  int num_sessions() const { return queue_.num_workers(); }
  /// Requests that finished a physical solve — successful, failed-Status,
  /// and thrown alike (a finished request is a finished request; callers
  /// that care about success inspect their own result). Coalesced joins do
  /// not count here: they never ran a solve of their own.
  int64_t completed() const;
  /// Accepted-but-unfinished physical solves (the admission counter).
  int64_t pending() const;
  /// Requests served by joining another request's in-flight solve.
  int64_t coalesced() const;

  /// Test-only fault/latency injection: when set, runs at the top of every
  /// physical solve task on the session worker, before the solve. Tests
  /// block in it (to observe queue depth and coalescing deterministically)
  /// or throw from it (to exercise the exception path). Set it before
  /// serving traffic; it is read unsynchronized on the workers.
  void SetSolveHookForTest(std::function<void(const SolveRequest&)> hook) {
    solve_hook_ = std::move(hook);
  }

 private:
  /// Per-session reusable state; index = session worker id. Per session,
  /// not per graph: `eval` is stamped with the pattern it was last bound to
  /// (a graph's full pattern, or the sampled pattern of an SGLA+
  /// node-sampled solve) and rebound when the session hops to another one,
  /// whatever the graph's shard count.
  struct SessionWorkspace {
    core::EvalWorkspace eval;
    cluster::SpectralWorkspace cluster;
    /// Coarse-tier scratch, sized by the coarse companion (~ratio * n): the
    /// fast tier's whole pipeline runs here, so tiered and exact solves
    /// never fight over one workspace's bound pattern. Coarse solves are
    /// never sharded — companions are small.
    core::EvalWorkspace coarse_eval;
    cluster::SpectralWorkspace coarse_cluster;
    std::vector<int32_t> coarse_labels;  ///< pre-prolongation labels
  };

  Result<SolveResponse> Run(const SolveRequest& request,
                            const GraphEntry& entry, SessionWorkspace* ws);

  /// Run with every escape hatch closed: the test hook and the solve run
  /// under a catch-all; a thrown exception comes back through `thrown`
  /// (result is then a placeholder Internal status). Never throws.
  Result<SolveResponse> RunGuarded(const SolveRequest& request,
                                   const GraphEntry& entry,
                                   SessionWorkspace* ws,
                                   std::exception_ptr* thrown);

  /// One physical in-flight solve that coalesced joiners attach to.
  struct Flight {
    std::vector<SolveCallback> joiners;  ///< under inflight_mutex_
  };

  GraphRegistry* registry_;
  /// Durable front over registry_ (EngineOptions::data_dir); null when
  /// persistence is off OR recovery failed (then recovery_status_ explains
  /// and mutations refuse).
  std::unique_ptr<persist::Store> store_;
  Status recovery_status_;
  persist::RecoveryStats recovery_stats_;
  int64_t max_pending_ = 0;
  std::vector<SessionWorkspace> workspaces_;
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> coalesced_{0};
  std::function<void(const SolveRequest&)> solve_hook_;
  /// Coalescable in-flight solves by key; admission (pending_ vs
  /// max_pending_) is decided under this mutex too, so a join-or-admit
  /// decision is atomic with respect to flight completion.
  std::mutex inflight_mutex_;
  std::map<CoalesceKey, std::shared_ptr<Flight>> inflight_;
  util::TaskQueue queue_;  ///< declared last: destroyed (drained) first
};

}  // namespace serve
}  // namespace sgla

#endif  // SGLA_SERVE_ENGINE_H_
