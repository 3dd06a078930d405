#ifndef SGLA_PERSIST_STORE_H_
#define SGLA_PERSIST_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mvag.h"
#include "persist/wal.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/status.h"

namespace sgla {
namespace persist {

/// One WAL record: a delta applied to (or an evict of) a specific durable
/// registration. `reg_uid` is the Store's persistent registration identity
/// (see CheckpointData::reg_uid) — replay matches records to recovered
/// checkpoints by it, so records from before an evict + re-register can
/// never replay into the replacement.
struct WalRecord {
  enum class Kind : uint8_t { kDelta = 1, kEvict = 2 };
  Kind kind = Kind::kDelta;
  uint64_t reg_uid = 0;
  std::string id;
  /// kDelta: the epoch this delta produced. Replay applies a record iff it
  /// is exactly current epoch + 1 — earlier is a duplicate the checkpoint
  /// already covers, later is a gap and recovery rejects the log.
  int64_t epoch = 0;
  serve::GraphDelta delta;  ///< kDelta only (the shared RPC delta codec)
};

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);
Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size);

struct StoreOptions {
  std::string dir;  ///< checkpoint files + wal.log live here
  bool fsync = true;
  /// Auto-checkpoint a graph once this many WAL records accumulated for it
  /// since its last checkpoint; 0 disables (explicit Checkpoint only).
  int64_t checkpoint_interval = 64;
};

/// What recovery found and did, and where its time went. The three phase
/// times are disjoint parts of Store::Open, so they sum to at most its wall
/// time.
struct RecoveryStats {
  size_t graphs_recovered = 0;   ///< graphs recovery published
  size_t deltas_replayed = 0;    ///< WAL deltas applied to checkpointed graphs
  size_t duplicates_skipped = 0; ///< records at/below their checkpoint epoch
  size_t records_ignored = 0;    ///< records of evicted/replaced registrations
  bool wal_tail_truncated = false;
  double load_ms = 0.0;    ///< reading and decoding the checkpoint files
  double replay_ms = 0.0;  ///< scanning the WAL, applying records to sources
  double build_ms = 0.0;   ///< building each graph's serving state, once
};

/// Durable front of a GraphRegistry: every mutation goes through here and is
/// on stable storage before the call returns. Register writes the epoch-0
/// checkpoint; Update appends a group-committed WAL record; Evict appends an
/// evict record and unlinks the checkpoint (the record covers a crash
/// between the two); Checkpoint compacts a graph's WAL suffix into a fresh
/// checkpoint and truncates the log once every graph is covered.
///
/// Open() recovers: the newest valid checkpoint per graph is loaded and its
/// state validated, the WAL suffix applies record by record to that graph's
/// source (serve::ApplyDelta, the uid rule of serve::AdvanceViewIdentity),
/// and once the scan ends each graph builds its serving state once, at its
/// final epoch, through GraphRegistry::Restore. A recovered engine's solves
/// are bit-identical to the pre-crash process because every updated epoch
/// equals a fresh registration of its graph (DESIGN.md "Replay
/// semantics"). Any corrupt checkpoint or impossible record sequence is a
/// typed error that fails the open (after a bad record, every graph is
/// still published at its last good epoch, and the engine refuses
/// mutations); only the torn WAL tail (bytes whose append never returned)
/// is silently dropped.
class Store {
 public:
  static Result<std::unique_ptr<Store>> Open(const StoreOptions& options,
                                             serve::GraphRegistry* registry);

  Result<std::shared_ptr<const serve::GraphEntry>> Register(
      const std::string& id, const core::MultiViewGraph& mvag,
      const serve::RegisterOptions& options);

  Result<std::shared_ptr<const serve::GraphEntry>> Update(
      const std::string& id, const serve::GraphDelta& delta);

  bool Evict(const std::string& id);

  /// Snapshots the graph consistently (under its update lock), writes the
  /// checkpoint atomically, and rotates the WAL when every tracked graph's
  /// records are covered. Returns the epoch the checkpoint captured.
  Result<int64_t> Checkpoint(const std::string& id);

  const RecoveryStats& recovery() const { return recovery_; }
  /// The live log, for tests observing group-commit batching.
  const Wal* wal() const { return wal_.get(); }

 private:
  Store(const StoreOptions& options, serve::GraphRegistry* registry)
      : options_(options), registry_(registry) {}

  /// A checkpointed graph during recovery: its source and bookkeeping, which
  /// the WAL records advance before the one build (defined in store.cc).
  struct PendingGraph;
  using PendingGraphs = std::map<std::string, PendingGraph>;

  std::string CheckpointPath(const std::string& id, uint64_t reg_uid) const;
  Status Replay(const uint8_t* payload, size_t size, PendingGraphs* pending);

  /// Durable bookkeeping of one live registration.
  struct GraphMeta {
    uint64_t reg_uid = 0;
    int64_t pending = 0;  ///< WAL records since the last checkpoint
    serve::RegisterOptions options;
    /// Serializes (registry update -> WAL enqueue) per graph, so the log's
    /// per-graph record order always matches the epoch order. Shared so a
    /// waiter survives the meta entry being erased by a concurrent evict.
    std::shared_ptr<std::mutex> order;
  };

  const StoreOptions options_;
  serve::GraphRegistry* const registry_;
  RecoveryStats recovery_;
  std::unique_ptr<Wal> wal_;
  /// Serializes Register against Evict (never held across solves; both ops
  /// are rare). Updates take only the per-graph order mutex.
  std::mutex ops_mutex_;
  mutable std::mutex mutex_;  ///< guards graphs_ and next_reg_uid_
  std::unordered_map<std::string, GraphMeta> graphs_;
  uint64_t next_reg_uid_ = 1;
};

}  // namespace persist
}  // namespace sgla

#endif  // SGLA_PERSIST_STORE_H_
