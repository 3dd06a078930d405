#include "persist/store.h"

#include <dirent.h>
#include <errno.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "persist/checkpoint.h"
#include "rpc/messages.h"
#include "rpc/wire.h"
#include "util/stopwatch.h"

namespace sgla {
namespace persist {
namespace {

constexpr const char* kWalFileName = "wal.log";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Status MakeDirs(const std::string& path) {
  // mkdir -p: create each prefix, tolerating the ones that already exist.
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Internal("cannot create directory '" + prefix + "': " +
                      ::strerror(errno));
    }
  }
  return OkStatus();
}

double MsSince(const Stopwatch& watch) { return watch.Seconds() * 1e3; }

}  // namespace

struct Store::PendingGraph {
  CheckpointData checkpoint;  ///< its mvag is the source records apply to
  serve::RestoreState state;  ///< epoch, uids, mask and uid allocator
};

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out) {
  rpc::WireWriter w;
  w.U8(static_cast<uint8_t>(record.kind));
  w.U64(record.reg_uid);
  w.Str(record.id);
  w.I64(record.epoch);
  if (record.kind == WalRecord::Kind::kDelta) {
    rpc::EncodeGraphDelta(record.delta, &w);
  }
  *out = w.TakeBuffer();
}

Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size) {
  rpc::WireReader r(data, size);
  WalRecord record;
  uint8_t kind = 0;
  if (!r.U8(&kind) || !r.U64(&record.reg_uid) || !r.Str(&record.id) ||
      !r.I64(&record.epoch)) {
    return InvalidArgument("corrupt WAL record header");
  }
  if (kind != static_cast<uint8_t>(WalRecord::Kind::kDelta) &&
      kind != static_cast<uint8_t>(WalRecord::Kind::kEvict)) {
    return InvalidArgument("WAL record has unknown kind " +
                           std::to_string(kind));
  }
  record.kind = static_cast<WalRecord::Kind>(kind);
  if (record.kind == WalRecord::Kind::kDelta &&
      !rpc::DecodeGraphDelta(&r, &record.delta)) {
    return InvalidArgument("corrupt WAL delta payload");
  }
  if (!r.Finish()) {
    return InvalidArgument("trailing bytes after WAL record");
  }
  return record;
}

std::string Store::CheckpointPath(const std::string& id,
                                  uint64_t reg_uid) const {
  return options_.dir + "/" + CheckpointFileName(id, reg_uid);
}

Result<std::unique_ptr<Store>> Store::Open(const StoreOptions& options,
                                           serve::GraphRegistry* registry) {
  if (options.dir.empty()) {
    return InvalidArgument("StoreOptions::dir must not be empty");
  }
  Status made = MakeDirs(options.dir);
  if (!made.ok()) return made;

  std::unique_ptr<Store> store(new Store(options, registry));
  Stopwatch phase;

  // Pass 1: scan the checkpoint files. The newest registration (highest
  // reg_uid) wins per id; superseded files — a crash can leave the previous
  // registration's file behind — are removed. Any file that fails its CRC
  // or validation is a typed error that fails recovery: silently dropping a
  // graph would serve wrong state. Leftover .tmp files are the torn halves
  // of atomic replaces that never renamed; they hold nothing acknowledged.
  struct FoundCheckpoint {
    CheckpointData data;
    std::string path;
  };
  std::unordered_map<std::string, FoundCheckpoint> newest;
  {
    DIR* dir = ::opendir(options.dir.c_str());
    if (dir == nullptr) {
      return Internal("cannot open data dir '" + options.dir + "': " +
                      ::strerror(errno));
    }
    std::vector<std::string> names;
    for (struct dirent* entry = ::readdir(dir); entry != nullptr;
         entry = ::readdir(dir)) {
      names.emplace_back(entry->d_name);
    }
    ::closedir(dir);
    // Deterministic recovery regardless of directory iteration order.
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      const std::string path = options.dir + "/" + name;
      if (EndsWith(name, ".tmp")) {
        ::unlink(path.c_str());
        continue;
      }
      if (!EndsWith(name, ".sgck")) continue;
      auto loaded = LoadCheckpoint(path);
      if (!loaded.ok()) return loaded.status();
      // Copy the key out before the move: emplace's argument evaluation
      // order is unspecified, so keying on `loaded->id` directly can read
      // the string after the FoundCheckpoint construction moved it out.
      const std::string graph_id = loaded->id;
      auto it = newest.find(graph_id);
      if (it == newest.end()) {
        newest.emplace(graph_id, FoundCheckpoint{std::move(*loaded), path});
        continue;
      }
      if (loaded->reg_uid > it->second.data.reg_uid) {
        ::unlink(it->second.path.c_str());
        it->second = FoundCheckpoint{std::move(*loaded), path};
      } else {
        ::unlink(path.c_str());
      }
    }
  }

  // Pass 2: validate each winner's epoch/uids/mask/signature against its
  // graph before any record applies — a contradictory checkpoint fails the
  // open here, as it would inside Restore — and hold it as a pending graph.
  PendingGraphs pending;
  for (auto& found : newest) {
    CheckpointData& ck = found.second.data;
    PendingGraph graph;
    graph.state.epoch = ck.epoch;
    graph.state.view_uids = ck.view_uids;
    graph.state.active = ck.active;
    graph.state.next_view_uid = ck.next_view_uid;
    graph.state.views_signature = ck.views_signature;
    Status valid = serve::ResolveRestoreState(
        ck.id, static_cast<size_t>(ck.mvag.num_views()), &graph.state);
    if (!valid.ok()) return valid;
    // Checked; the records below move the active set on.
    graph.state.views_signature = 0;
    GraphMeta meta;
    meta.reg_uid = ck.reg_uid;
    meta.options = ck.options;
    meta.order = std::make_shared<std::mutex>();
    store->graphs_.emplace(ck.id, std::move(meta));
    store->next_reg_uid_ =
        std::max(store->next_reg_uid_, ck.reg_uid + 1);
    graph.checkpoint = std::move(ck);
    pending.emplace(found.first, std::move(graph));
  }
  store->recovery_.load_ms = MsSince(phase);

  // Pass 3: apply the WAL suffix to the pending sources. A record costs its
  // ApplyDelta; no serving state is built yet.
  phase.Restart();
  WalOpenStats wal_stats;
  Wal::Options wal_options;
  wal_options.fsync = options.fsync;
  auto wal = Wal::Open(
      options.dir + "/" + kWalFileName, wal_options,
      [&store, &pending](const uint8_t* payload, size_t size) {
        return store->Replay(payload, size, &pending);
      },
      &wal_stats);
  store->recovery_.replay_ms = MsSince(phase);

  // Pass 4: build every graph once, at its final epoch — also when a record
  // failed: ApplyDelta is validate-then-apply, so each source sits at its
  // last good epoch, and publishing it there is what the failed open
  // serves while the engine refuses mutations.
  phase.Restart();
  Status built = OkStatus();
  for (auto& graph : pending) {
    auto entry = registry->Restore(graph.first, graph.second.checkpoint.mvag,
                                   graph.second.checkpoint.options,
                                   graph.second.state);
    if (!entry.ok()) {
      if (built.ok()) built = entry.status();
      continue;
    }
    ++store->recovery_.graphs_recovered;
  }
  store->recovery_.build_ms = MsSince(phase);
  if (!wal.ok()) return wal.status();
  if (!built.ok()) return built;
  store->wal_ = std::move(*wal);
  store->recovery_.wal_tail_truncated = wal_stats.tail_truncated;
  return store;
}

Status Store::Replay(const uint8_t* payload, size_t size,
                     PendingGraphs* pending) {
  auto record = DecodeWalRecord(payload, size);
  // The frame CRC already passed, so a record that will not decode is not a
  // torn tail — the log is lying, and recovery must say so, not guess.
  if (!record.ok()) return record.status();

  auto it = graphs_.find(record->id);
  const bool matches =
      it != graphs_.end() && it->second.reg_uid == record->reg_uid;
  if (record->kind == WalRecord::Kind::kEvict) {
    if (!matches) {
      ++recovery_.records_ignored;
      return OkStatus();
    }
    // The pre-crash process evicted but died before unlinking the file.
    pending->erase(record->id);
    ::unlink(CheckpointPath(record->id, record->reg_uid).c_str());
    graphs_.erase(it);
    return OkStatus();
  }

  if (!matches) {
    // A record of a registration that was since evicted (its checkpoint is
    // gone) — nothing to apply it to, by design.
    ++recovery_.records_ignored;
    return OkStatus();
  }
  auto graph = pending->find(record->id);
  if (graph == pending->end()) {
    return Internal("WAL replay lost graph '" + record->id + "'");
  }
  serve::RestoreState& state = graph->second.state;
  if (record->epoch <= state.epoch) {
    // The checkpoint already covers this delta (checkpoints do not imply a
    // rotation, so a covered suffix is normal).
    ++recovery_.duplicates_skipped;
    return OkStatus();
  }
  if (record->epoch != state.epoch + 1) {
    return Internal("WAL epoch gap for graph '" + record->id + "': at epoch " +
                    std::to_string(state.epoch) + ", next record is " +
                    std::to_string(record->epoch));
  }
  // Update never logs an empty delta (it bumps no epoch), nor a delta of a
  // graph without an update source (UpdateGraph refuses it).
  if (record->delta.empty() || !graph->second.checkpoint.options.updatable) {
    return Internal("WAL replay de-synchronized on graph '" + record->id +
                    "': the record at epoch " + std::to_string(record->epoch) +
                    " could not have been logged");
  }
  serve::DeltaEffects effects;
  Status applied = serve::ApplyDelta(&graph->second.checkpoint.mvag,
                                     record->delta, state.active, &effects);
  if (!applied.ok()) {
    return Internal("WAL replay failed for graph '" + record->id +
                    "' at epoch " + std::to_string(record->epoch) + ": " +
                    applied.ToString());
  }
  serve::AdvanceViewIdentity(effects, &state.view_uids, &state.active,
                             &state.next_view_uid);
  state.epoch = record->epoch;
  ++it->second.pending;
  ++recovery_.deltas_replayed;
  return OkStatus();
}

Result<std::shared_ptr<const serve::GraphEntry>> Store::Register(
    const std::string& id, const core::MultiViewGraph& mvag,
    const serve::RegisterOptions& options) {
  // Serialized against Evict so a concurrent evict of the same id cannot
  // interleave between the registry publish and the checkpoint write.
  std::lock_guard<std::mutex> ops_lock(ops_mutex_);
  auto entry = registry_->Register(id, mvag, options);
  if (!entry.ok()) return entry;

  uint64_t reg_uid;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reg_uid = next_reg_uid_++;
  }
  CheckpointData ck;
  ck.id = id;
  ck.reg_uid = reg_uid;
  ck.epoch = (*entry)->epoch;
  ck.options = options;
  ck.next_view_uid = (*entry)->views.size() + 1;
  ck.view_uids = (*entry)->view_uids;
  ck.active = (*entry)->active;
  ck.views_signature = (*entry)->views_signature;
  ck.mvag = mvag;
  Status saved = SaveCheckpoint(ck, CheckpointPath(id, reg_uid));
  if (!saved.ok()) {
    // Registration is durable or it did not happen: roll back the registry
    // rather than serve a graph a restart would forget.
    registry_->Evict(id);
    return saved;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GraphMeta meta;
    meta.reg_uid = reg_uid;
    meta.options = options;
    meta.order = std::make_shared<std::mutex>();
    graphs_[id] = std::move(meta);
  }
  return entry;
}

Result<std::shared_ptr<const serve::GraphEntry>> Store::Update(
    const std::string& id, const serve::GraphDelta& delta) {
  std::shared_ptr<std::mutex> order;
  uint64_t reg_uid = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      // Not tracked durably (registered before persistence was configured,
      // or straight on the registry); apply without logging.
      return registry_->UpdateGraph(id, delta);
    }
    order = it->second.order;
    reg_uid = it->second.reg_uid;
  }

  Result<uint64_t> ticket = Status(StatusCode::kInternal, "unset");
  int64_t pending_now = 0;
  std::shared_ptr<const serve::GraphEntry> updated;
  {
    // The per-graph order lock pins (registry epoch assignment -> WAL
    // enqueue) as one step, so the log's record order per graph equals the
    // epoch order replay requires. The durable wait happens outside it —
    // that is where cross-thread group commits form.
    std::lock_guard<std::mutex> order_lock(*order);
    auto entry = registry_->UpdateGraph(id, delta);
    if (!entry.ok()) return entry;
    if (delta.empty()) return entry;  // no epoch bump, nothing to log
    updated = *entry;

    WalRecord record;
    record.kind = WalRecord::Kind::kDelta;
    record.reg_uid = reg_uid;
    record.id = id;
    record.epoch = updated->epoch;
    record.delta = delta;
    std::vector<uint8_t> payload;
    EncodeWalRecord(record, &payload);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = graphs_.find(id);
      if (it == graphs_.end() || it->second.reg_uid != reg_uid) {
        // Evicted while we applied; the evict record supersedes the delta.
        return updated;
      }
      ticket = wal_->Enqueue(payload);
      if (ticket.ok()) pending_now = ++it->second.pending;
    }
  }
  if (!ticket.ok()) return ticket.status();
  Status durable = wal_->Wait(*ticket);
  if (!durable.ok()) return durable;

  if (options_.checkpoint_interval > 0 &&
      pending_now >= options_.checkpoint_interval) {
    // Compaction is best-effort: the deltas are already durable in the log,
    // and a failed checkpoint leaves `pending` high so the next update
    // retries.
    Checkpoint(id);
  }
  return updated;
}

bool Store::Evict(const std::string& id) {
  std::lock_guard<std::mutex> ops_lock(ops_mutex_);
  if (!registry_->Evict(id)) return false;

  uint64_t reg_uid = 0;
  Result<uint64_t> ticket = Status(StatusCode::kInternal, "unset");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) return true;  // was not durably tracked
    reg_uid = it->second.reg_uid;
    WalRecord record;
    record.kind = WalRecord::Kind::kEvict;
    record.reg_uid = reg_uid;
    record.id = id;
    std::vector<uint8_t> payload;
    EncodeWalRecord(record, &payload);
    ticket = wal_->Enqueue(payload);
    graphs_.erase(it);
  }
  // The record lands before the unlink: a crash between the two replays the
  // evict and removes the file then. A sticky WAL error leaves the stale
  // checkpoint behind — recovery then resurrects an evicted graph, which is
  // the conservative failure (never loses data, and the WAL is already
  // refusing all writes loudly).
  if (ticket.ok() && wal_->Wait(*ticket).ok()) {
    ::unlink(CheckpointPath(id, reg_uid).c_str());
  }
  return true;
}

Result<int64_t> Store::Checkpoint(const std::string& id) {
  uint64_t reg_uid = 0;
  int64_t covered = 0;
  serve::RegisterOptions options;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("graph '" + id + "' is not durably tracked");
    }
    reg_uid = it->second.reg_uid;
    options = it->second.options;
    // Records counted now were enqueued before the snapshot below, so the
    // snapshot covers them; records landing after it must stay in
    // `pending`, or Rotate could truncate a record no checkpoint holds.
    covered = it->second.pending;
  }
  auto snapshot = registry_->SnapshotSource(id);
  if (!snapshot.ok()) return snapshot.status();

  CheckpointData ck;
  ck.id = id;
  ck.reg_uid = reg_uid;
  ck.epoch = snapshot->entry->epoch;
  ck.options = options;
  ck.next_view_uid = snapshot->next_view_uid;
  ck.view_uids = snapshot->entry->view_uids;
  ck.active = snapshot->entry->active;
  ck.views_signature = snapshot->entry->views_signature;
  ck.mvag = std::move(snapshot->mvag);
  Status saved = SaveCheckpoint(ck, CheckpointPath(id, reg_uid));
  if (!saved.ok()) return saved;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end() || it->second.reg_uid != reg_uid) {
      // Evicted (or evicted + re-registered) while the file was being
      // written: our rename may have landed after the evict's unlink and
      // resurrected a dead registration's checkpoint. Remove it — recovery
      // must never see a checkpoint the evict record no longer covers.
      ::unlink(CheckpointPath(id, reg_uid).c_str());
      return NotFound("graph '" + id + "' was evicted during checkpoint");
    }
    // Subtract only the records the snapshot provably covers; records
    // enqueued after it keep `pending` non-zero so Rotate cannot truncate
    // them before a later checkpoint holds them.
    it->second.pending = std::max<int64_t>(0, it->second.pending - covered);
    bool all_covered = true;
    for (const auto& graph : graphs_) {
      all_covered = all_covered && graph.second.pending == 0;
    }
    if (all_covered && wal_ != nullptr) {
      // Every tracked graph's records are inside some checkpoint; the log
      // is pure history. Enqueue also runs under mutex_, so nothing can
      // slip in while Rotate drains and truncates (its contract).
      wal_->Rotate();
    }
  }
  return ck.epoch;
}

}  // namespace persist
}  // namespace sgla
