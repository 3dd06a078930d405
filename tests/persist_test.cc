// Durability tests: WAL framing (round-trip, torn tail, bit-flipped CRC,
// group commit), checkpoint encode/decode under hostile bytes (every
// single-byte corruption and every truncation must reject with a typed
// error, never crash), Store recovery semantics (duplicate / gap /
// foreign-registration records), engine-level recovery bit-identity across
// close + reopen including lifecycle deltas, the recovery-failure gate
// (mutations refuse on an unreadable directory), checkpoint compaction,
// recovery phase times, a seeded recovered == uninterrupted oracle, and a
// TSAN hammer racing WAL appends against Solve/Update/Evict/Checkpoint.
#include <dirent.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "graph/graph.h"
#include "graph/knn.h"
#include "persist/checkpoint.h"
#include "persist/store.h"
#include "persist/wal.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/rng.h"

namespace sgla {
namespace {

uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t hash = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v) {
  return Fnv1a(v.data(), v.size() * sizeof(T));
}

uint64_t HashCsr(const la::CsrMatrix& m) {
  uint64_t hash = Fnv1a(m.row_ptr.data(), m.row_ptr.size() * sizeof(int64_t));
  hash = Fnv1a(m.col_idx.data(), m.col_idx.size() * sizeof(int64_t), hash);
  return Fnv1a(m.values.data(), m.values.size() * sizeof(double), hash);
}

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "sgla_persist_XXXXXX";
  EXPECT_NE(mkdtemp(&path[0]), nullptr);
  return path;
}

std::vector<uint8_t> ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

void WriteWhole(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  if (d == nullptr) return names;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(d);
  return names;
}

std::string FindCheckpointFile(const std::string& dir) {
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".sgck") == 0) {
      return dir + "/" + name;
    }
  }
  return "";
}

void PutU32(uint32_t value, uint8_t* out) {
  out[0] = static_cast<uint8_t>(value);
  out[1] = static_cast<uint8_t>(value >> 8);
  out[2] = static_cast<uint8_t>(value >> 16);
  out[3] = static_cast<uint8_t>(value >> 24);
}

/// Appends one correctly-framed record to a closed WAL file, bypassing the
/// Wal class — how the recovery tests plant duplicate / gap / foreign
/// records that a healthy writer would never produce.
void AppendWalFrame(const std::string& path,
                    const std::vector<uint8_t>& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  uint8_t frame[8];
  PutU32(static_cast<uint32_t>(payload.size()), frame);
  PutU32(persist::Crc32(payload.data(), payload.size()), frame + 4);
  out.write(reinterpret_cast<const char*>(frame), sizeof(frame));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  ASSERT_TRUE(out.good());
}

/// Small two-SBM-view + one-attribute-view fixture; deterministic.
core::MultiViewGraph TestFixture(int64_t n = 260) {
  const int k = 3;
  Rng rng(715);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.12, 0.02, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.06, 0.03, &rng));
  la::DenseMatrix attributes(n, 3);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      attributes(i, j) = rng.Gaussian() + 2.0 * labels[i];
    }
  }
  mvag.AddAttributeView(std::move(attributes));
  mvag.set_labels(std::move(labels));
  return mvag;
}

/// Deterministic delta sequence covering every record shape: edge upserts,
/// an attribute row rewrite, mask/unmask, AddView, and an edge removal.
serve::GraphDelta TestDelta(int64_t e, int64_t n = 260) {
  Rng rng(900 + static_cast<uint64_t>(e));
  serve::GraphDelta delta;
  switch (e) {
    case 3:
      delta.mask_views = {1};
      return delta;
    case 4: {
      graph::Graph extra(n);
      for (int64_t m = 0; m < 2 * n; ++m) {
        const int64_t u = rng.UniformInt(0, n - 1);
        const int64_t v = rng.UniformInt(0, n - 1);
        if (u != v) extra.AddEdge(u, v, 1.0);
      }
      serve::ViewAddition addition;
      addition.graph = std::move(extra);
      delta.add_views.push_back(std::move(addition));
      return delta;
    }
    case 5:
      delta.unmask_views = {1};
      return delta;
    case 6: {
      serve::GraphViewDelta edits;
      edits.view = 0;
      edits.removals.push_back({1, 2});  // inserted by the e=1 delta below
      delta.graph_views.push_back(std::move(edits));
      return delta;
    }
    default:
      break;
  }
  if (e % 2 == 0) {
    serve::AttributeRowUpdate row;
    row.view = 0;
    row.row = (e * 37) % n;
    row.values.assign(3, 0.0);
    for (double& value : row.values) value = rng.Gaussian();
    delta.attribute_rows.push_back(std::move(row));
    return delta;
  }
  serve::GraphViewDelta edits;
  edits.view = 0;
  if (e == 1) edits.upserts.push_back({1, 2, 1.5});
  for (int i = 0; i < 2; ++i) {
    const int64_t u = rng.UniformInt(0, n - 1);
    int64_t v = rng.UniformInt(0, n - 1);
    if (u == v) v = (v + 1) % n;
    edits.upserts.push_back({u, v, 0.5 + rng.Uniform()});
  }
  delta.graph_views.push_back(std::move(edits));
  return delta;
}

uint64_t EntryHash(const serve::GraphEntry& entry) {
  uint64_t hash = Fnv1a(&entry.epoch, sizeof(entry.epoch));
  hash = Fnv1a(&entry.views_signature, sizeof(entry.views_signature), hash);
  hash = Fnv1a(entry.view_uids.data(),
               entry.view_uids.size() * sizeof(uint64_t), hash);
  for (size_t v = 0; v < entry.views.size(); ++v) {
    const uint64_t view_hash = HashCsr(entry.views[v]);
    hash = Fnv1a(&view_hash, sizeof(view_hash), hash);
    const uint8_t active = entry.active[v] ? 1 : 0;
    hash = Fnv1a(&active, sizeof(active), hash);
  }
  return hash;
}

uint64_t SolveHash(serve::Engine* engine, const std::string& id) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.options.base.max_evaluations = 8;
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return 0;
  uint64_t hash = HashVector(response->integration.weights);
  hash = Fnv1a(&hash, sizeof(hash),
               HashVector(response->integration.objective_history));
  const uint64_t laplacian = HashCsr(response->integration.laplacian);
  hash = Fnv1a(&laplacian, sizeof(laplacian), hash);
  const uint64_t labels = HashVector(response->labels);
  return Fnv1a(&labels, sizeof(labels), hash);
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(WalTest, Crc32MatchesKnownVector) {
  // The IEEE CRC32 check value: crc32("123456789") == 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(persist::Crc32(reinterpret_cast<const uint8_t*>(data), 9),
            0xCBF43926u);
}

TEST(WalTest, AppendThenReplayRoundTrips) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<uint8_t>> records = {
      {1, 2, 3}, {}, std::vector<uint8_t>(1000, 0xab)};
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(stats.records, 0u);
    for (const auto& record : records) {
      ASSERT_TRUE((*wal)->Append(record).ok());
    }
    EXPECT_EQ((*wal)->records_appended(), records.size());
  }
  persist::WalOpenStats stats;
  std::vector<std::vector<uint8_t>> replayed;
  auto wal = persist::Wal::Open(
      path, {},
      [&](const uint8_t* payload, size_t size) {
        replayed.emplace_back(payload, payload + size);
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(stats.records, records.size());
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(replayed, records);
}

TEST(WalTest, TornTailIsTruncatedOnOpen) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1, 2, 3}).ok());
    ASSERT_TRUE((*wal)->Append({4, 5}).ok());
  }
  // A torn append: a frame header promising more bytes than follow.
  std::vector<uint8_t> bytes = ReadWhole(path);
  const size_t intact = bytes.size();
  bytes.push_back(200);  // len=200, but nothing behind it
  bytes.resize(bytes.size() + 7, 0);
  bytes.push_back(0xee);
  WriteWhole(path, bytes);

  persist::WalOpenStats stats;
  size_t replayed = 0;
  auto wal = persist::Wal::Open(
      path, {},
      [&](const uint8_t*, size_t) {
        ++replayed;
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(replayed, 2u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_GT(stats.truncated_bytes, 0u);
  wal->reset();
  EXPECT_EQ(ReadWhole(path).size(), intact);  // tail physically cut
}

TEST(WalTest, BitFlippedCrcEndsTheValidPrefix) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1, 2, 3}).ok());
    ASSERT_TRUE((*wal)->Append({4, 5, 6}).ok());
  }
  std::vector<uint8_t> bytes = ReadWhole(path);
  bytes.back() ^= 0x01;  // corrupt the last record's payload
  WriteWhole(path, bytes);

  persist::WalOpenStats stats;
  size_t replayed = 0;
  auto wal = persist::Wal::Open(
      path, {},
      [&](const uint8_t*, size_t) {
        ++replayed;
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(replayed, 1u);  // only the record before the corruption
  EXPECT_TRUE(stats.tail_truncated);
}

TEST(WalTest, CorruptHeaderIsATypedErrorNotATruncation) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1}).ok());
  }
  std::vector<uint8_t> bytes = ReadWhole(path);
  bytes[0] ^= 0xff;  // break the magic
  WriteWhole(path, bytes);

  persist::WalOpenStats stats;
  auto wal = persist::Wal::Open(
      path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, ReplayFailureAbortsTheOpen) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1}).ok());
  }
  persist::WalOpenStats stats;
  auto wal = persist::Wal::Open(
      path, {},
      [](const uint8_t*, size_t) { return Internal("replay says no"); },
      &stats);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInternal);
}

TEST(WalTest, GroupCommitBatchesConcurrentAppends) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  persist::WalOpenStats stats;
  auto wal = persist::Wal::Open(
      path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
  ASSERT_TRUE(wal.ok());
  // Enqueue a burst before waiting on any of it: the committer drains
  // whatever accumulated while the previous fsync was in flight, so the
  // burst lands in far fewer commit batches than records.
  const size_t kRecords = 400;
  uint64_t last_ticket = 0;
  for (size_t i = 0; i < kRecords; ++i) {
    auto ticket = (*wal)->Enqueue({static_cast<uint8_t>(i)});
    ASSERT_TRUE(ticket.ok());
    last_ticket = *ticket;
  }
  ASSERT_TRUE((*wal)->Wait(last_ticket).ok());
  EXPECT_EQ((*wal)->records_appended(), kRecords);
  EXPECT_GE((*wal)->commits(), 1u);
  EXPECT_LT((*wal)->commits(), kRecords);
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

persist::CheckpointData MakeCheckpointData() {
  persist::CheckpointData data;
  data.id = "ck";
  data.reg_uid = 7;
  data.epoch = 12;
  data.options.shards = 4;
  data.options.coarsen_ratio = 0.0;
  data.options.robust_views = true;
  data.options.knn.k = 6;
  data.options.knn.seed = 42;
  data.next_view_uid = 9;
  data.view_uids = {1, 2, 5};
  data.active = {true, false, true};
  data.views_signature = 0xdeadbeefcafef00dull;
  data.mvag = TestFixture(40);
  return data;
}

TEST(CheckpointTest, SaveLoadRoundTrips) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + persist::CheckpointFileName("ck", 7);
  const persist::CheckpointData data = MakeCheckpointData();
  ASSERT_TRUE(persist::SaveCheckpoint(data, path).ok());
  auto loaded = persist::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->id, data.id);
  EXPECT_EQ(loaded->reg_uid, data.reg_uid);
  EXPECT_EQ(loaded->epoch, data.epoch);
  EXPECT_EQ(loaded->options.shards, data.options.shards);
  EXPECT_EQ(loaded->options.robust_views, data.options.robust_views);
  EXPECT_EQ(loaded->options.knn.k, data.options.knn.k);
  EXPECT_EQ(loaded->options.knn.seed, data.options.knn.seed);
  EXPECT_EQ(loaded->next_view_uid, data.next_view_uid);
  EXPECT_EQ(loaded->view_uids, data.view_uids);
  EXPECT_EQ(loaded->active, data.active);
  EXPECT_EQ(loaded->views_signature, data.views_signature);
  EXPECT_EQ(loaded->mvag.num_nodes(), data.mvag.num_nodes());
  EXPECT_EQ(loaded->mvag.num_views(), data.mvag.num_views());
}

TEST(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + persist::CheckpointFileName("ck", 7);
  ASSERT_TRUE(persist::SaveCheckpoint(MakeCheckpointData(), path).ok());
  const std::vector<uint8_t> good = ReadWhole(path);
  ASSERT_FALSE(good.empty());
  // Flip one byte at a time (striding to keep the test fast): the header
  // checks or the payload CRC must catch every one of them — a checkpoint
  // either loads exactly as written or rejects with a typed error.
  for (size_t i = 0; i < good.size(); i += 7) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x40;
    WriteWhole(path, bad);
    auto loaded = persist::LoadCheckpoint(path);
    EXPECT_FALSE(loaded.ok()) << "corruption at byte " << i << " undetected";
  }
}

TEST(CheckpointTest, HostileCountsAndTruncationsNeverCrashDecode) {
  std::vector<uint8_t> payload;
  persist::EncodeCheckpoint(MakeCheckpointData(), &payload);
  ASSERT_TRUE(persist::DecodeCheckpoint(payload.data(), payload.size()).ok());
  // Every proper prefix must reject: a count that promises more bytes than
  // remain (the truncation moves the "hostile count" boundary through every
  // field, uid counts and MVAG sizes included) is an error, not a crash or
  // an overallocation.
  for (size_t len = 0; len < payload.size();
       len += (len < 64 ? 1 : 13)) {
    auto decoded = persist::DecodeCheckpoint(payload.data(), len);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
  // Direct hostile count: the payload opens with the id's u32 length;
  // promising 4 GiB of id must reject instead of sizing a string by it.
  std::vector<uint8_t> huge = payload;
  huge[0] = huge[1] = huge[2] = huge[3] = 0xff;
  auto decoded = persist::DecodeCheckpoint(huge.data(), huge.size());
  EXPECT_FALSE(decoded.ok());
}

// Out-of-range KNN options a CRC-valid checkpoint can carry: k = 0 aborts
// KnnGraph, leaf_size = 0 splits without end, a huge tree count allocates a
// heap array per tree.
std::vector<graph::KnnOptions> HostileKnnOptions() {
  std::vector<graph::KnnOptions> hostile(8);
  hostile[0].k = 0;
  hostile[1].k = -5;
  hostile[2].leaf_size = 0;
  hostile[3].leaf_size = -1;
  hostile[4].trees = 0;
  hostile[5].trees = graph::kMaxKnnTrees + 1;
  hostile[6].trees = 1 << 30;
  hostile[7].exact_threshold = -1;
  return hostile;
}

TEST(CheckpointTest, OutOfRangeKnnOptionsAreRejectedByDecode) {
  {
    // The edges of the accepted range decode.
    persist::CheckpointData data = MakeCheckpointData();
    data.options.knn.k = 1;
    data.options.knn.trees = graph::kMaxKnnTrees;
    data.options.knn.leaf_size = 1;
    data.options.knn.exact_threshold = 0;
    std::vector<uint8_t> payload;
    persist::EncodeCheckpoint(data, &payload);
    auto decoded = persist::DecodeCheckpoint(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->options.knn.trees, graph::kMaxKnnTrees);
  }
  for (const graph::KnnOptions& knn : HostileKnnOptions()) {
    persist::CheckpointData data = MakeCheckpointData();
    data.options.knn = knn;
    std::vector<uint8_t> payload;
    persist::EncodeCheckpoint(data, &payload);
    auto decoded = persist::DecodeCheckpoint(payload.data(), payload.size());
    ASSERT_FALSE(decoded.ok()) << "k=" << knn.k << " trees=" << knn.trees
                               << " leaf_size=" << knn.leaf_size
                               << " exact_threshold=" << knn.exact_threshold;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

TEST(WalRecordTest, DeltaRecordRoundTripsIncludingLifecycleOps) {
  persist::WalRecord record;
  record.kind = persist::WalRecord::Kind::kDelta;
  record.reg_uid = 11;
  record.id = "graph-a";
  record.epoch = 42;
  record.delta = TestDelta(4);  // AddView
  record.delta.mask_views = {0};
  std::vector<uint8_t> bytes;
  persist::EncodeWalRecord(record, &bytes);
  auto decoded = persist::DecodeWalRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->reg_uid, record.reg_uid);
  EXPECT_EQ(decoded->id, record.id);
  EXPECT_EQ(decoded->epoch, record.epoch);
  EXPECT_EQ(decoded->delta.add_views.size(), 1u);
  EXPECT_EQ(decoded->delta.mask_views, record.delta.mask_views);
  EXPECT_EQ(decoded->delta.add_views[0].graph.num_edges(),
            record.delta.add_views[0].graph.num_edges());
  // Truncations reject, never crash.
  for (size_t len = 0; len < bytes.size(); len += (len < 32 ? 1 : 17)) {
    EXPECT_FALSE(persist::DecodeWalRecord(bytes.data(), len).ok());
  }
}

// ---------------------------------------------------------------------------
// Store recovery
// ---------------------------------------------------------------------------

TEST(StoreTest, RecoversAcrossReopenBitIdentically) {
  const std::string dir = MakeTempDir();
  uint64_t entry_hash = 0;
  uint64_t solve_hash = 0;
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;  // format coverage, not disk stalls
    options.checkpoint_interval = 0;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok())
        << engine.recovery_status().ToString();
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        engine.RegisterGraph("g", TestFixture(), register_options).ok());
    for (int64_t e = 1; e <= 7; ++e) {
      auto updated = engine.UpdateGraph("g", TestDelta(e));
      ASSERT_TRUE(updated.ok()) << "delta " << e << ": "
                                << updated.status().ToString();
      ASSERT_EQ((*updated)->epoch, e);
    }
    entry_hash = EntryHash(*registry.Find("g"));
    solve_hash = SolveHash(&engine, "g");
  }
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  EXPECT_EQ(engine.recovery_stats().graphs_recovered, 1u);
  EXPECT_EQ(engine.recovery_stats().deltas_replayed, 7u);
  auto entry = registry.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 7);
  // Recovery rebuilds exactly the pre-crash serving state: same views, same
  // uids/activity/signature, and a bit-identical solve.
  EXPECT_EQ(EntryHash(*entry), entry_hash);
  EXPECT_EQ(SolveHash(&engine, "g"), solve_hash);
  // Recovered graphs keep accepting deltas where the log left off.
  auto updated = engine.UpdateGraph("g", TestDelta(8));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ((*updated)->epoch, 8);
}

TEST(StoreTest, DuplicateGapAndForeignRecords) {
  const std::string dir = MakeTempDir();
  persist::WalRecord record;
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    options.checkpoint_interval = 0;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(2)).ok());
  }
  auto checkpoint = persist::LoadCheckpoint(FindCheckpointFile(dir));
  ASSERT_TRUE(checkpoint.ok());
  record.kind = persist::WalRecord::Kind::kDelta;
  record.reg_uid = checkpoint->reg_uid;
  record.id = "g";
  record.delta = TestDelta(1);

  const std::string wal_path = dir + "/wal.log";
  // Duplicate (epoch already applied) and foreign (unknown registration)
  // records are tolerated and counted; recovery still lands on epoch 2.
  {
    record.epoch = 1;
    std::vector<uint8_t> payload;
    persist::EncodeWalRecord(record, &payload);
    AppendWalFrame(wal_path, payload);
    persist::WalRecord foreign = record;
    foreign.reg_uid = 9999;
    foreign.epoch = 3;
    payload.clear();
    persist::EncodeWalRecord(foreign, &payload);
    AppendWalFrame(wal_path, payload);

    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->recovery().duplicates_skipped, 1u);
    EXPECT_EQ((*store)->recovery().records_ignored, 1u);
    ASSERT_NE(registry.Find("g"), nullptr);
    EXPECT_EQ(registry.Find("g")->epoch, 2);
  }
  // An epoch gap means acknowledged records are missing: recovery must
  // reject the directory with a typed error, never serve a hole.
  {
    record.epoch = 9;
    std::vector<uint8_t> payload;
    persist::EncodeWalRecord(record, &payload);
    AppendWalFrame(wal_path, payload);

    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInternal);
  }
}

TEST(StoreTest, EvictUnlinksDurably) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
    EXPECT_TRUE((*store)->Evict("g"));
    EXPECT_EQ(FindCheckpointFile(dir), "");  // checkpoint unlinked
  }
  serve::GraphRegistry registry;
  persist::StoreOptions options;
  options.dir = dir;
  options.fsync = false;
  auto store = persist::Store::Open(options, &registry);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().graphs_recovered, 0u);
  EXPECT_EQ(registry.Find("g"), nullptr);
  // The id is re-registrable, with a fresh registration identity.
  serve::RegisterOptions register_options;
  register_options.coarsen_ratio = 0.0;
  ASSERT_TRUE((*store)->Register("g", TestFixture(), register_options).ok());
}

// A Checkpoint racing an Evict can rename its file after the evict's unlink,
// leaving a stale checkpoint of a dead registration beside the live one.
// Recovery must restore the newest registration (highest reg_uid) and remove
// the stale file — regardless of which the directory scan meets first.
TEST(StoreTest, StaleCheckpointFromADeadRegistrationLosesToNewest) {
  const std::string dir = MakeTempDir();
  std::string stale_path;
  std::vector<uint8_t> stale_bytes;
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    options.checkpoint_interval = 0;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(2)).ok());
    auto compacted = (*store)->Checkpoint("g");
    ASSERT_TRUE(compacted.ok());
    EXPECT_EQ(*compacted, 2);
    // Save the reg_uid-1 file, then evict + re-register + one delta.
    stale_path = FindCheckpointFile(dir);
    ASSERT_NE(stale_path, "");
    stale_bytes = ReadWhole(stale_path);
    EXPECT_TRUE((*store)->Evict("g"));
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
  }
  // Simulate the lost race: the dead registration's checkpoint reappears.
  WriteWhole(stale_path, stale_bytes);
  serve::GraphRegistry registry;
  persist::StoreOptions options;
  options.dir = dir;
  options.fsync = false;
  auto store = persist::Store::Open(options, &registry);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().graphs_recovered, 1u);
  EXPECT_EQ((*store)->recovery().deltas_replayed, 1u);
  auto entry = registry.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 1);  // the live registration, not the stale one
  struct stat st;
  EXPECT_NE(::stat(stale_path.c_str(), &st), 0);  // stale file removed
}

TEST(StoreTest, CheckpointCompactsTheWal) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    options.checkpoint_interval = 3;  // auto-checkpoint every 3 records
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        engine.RegisterGraph("g", TestFixture(), register_options).ok());
    for (int64_t e = 1; e <= 7; ++e) {
      ASSERT_TRUE(engine.UpdateGraph("g", TestDelta(e)).ok());
    }
    // Explicit checkpoint: covers the remaining suffix and truncates.
    auto epoch = engine.Checkpoint("g");
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, 7);
  }
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  // Everything is in the checkpoint; the WAL suffix replays nothing.
  EXPECT_EQ(engine.recovery_stats().deltas_replayed, 0u);
  ASSERT_NE(registry.Find("g"), nullptr);
  EXPECT_EQ(registry.Find("g")->epoch, 7);
}

TEST(StoreTest, RecoveryPhaseTimesAreFilledAndFitTheOpen) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    options.checkpoint_interval = 0;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    for (int64_t e = 1; e <= 3; ++e) {
      ASSERT_TRUE((*store)->Update("g", TestDelta(e)).ok());
    }
  }
  serve::GraphRegistry registry;
  persist::StoreOptions options;
  options.dir = dir;
  options.fsync = false;
  const auto t0 = std::chrono::steady_clock::now();
  auto store = persist::Store::Open(options, &registry);
  const double open_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const persist::RecoveryStats& stats = (*store)->recovery();
  EXPECT_EQ(stats.deltas_replayed, 3u);
  EXPECT_GT(stats.load_ms, 0.0);
  EXPECT_GT(stats.replay_ms, 0.0);
  EXPECT_GT(stats.build_ms, 0.0);
  EXPECT_LE(stats.load_ms + stats.replay_ms + stats.build_ms, open_ms);
}

TEST(StoreTest, CorruptCheckpointFailsRecoveryAndGatesMutations) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        engine.RegisterGraph("g", TestFixture(), register_options).ok());
  }
  const std::string checkpoint_path = FindCheckpointFile(dir);
  ASSERT_NE(checkpoint_path, "");
  std::vector<uint8_t> bytes = ReadWhole(checkpoint_path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteWhole(checkpoint_path, bytes);

  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  serve::Engine engine(&registry, options);
  // Recovery failed; the engine must refuse every mutation with the typed
  // recovery error instead of building divergent state on the directory.
  ASSERT_FALSE(engine.recovery_status().ok());
  EXPECT_EQ(registry.Find("g"), nullptr);
  auto registered = engine.RegisterGraph("g", TestFixture(40), {});
  EXPECT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), engine.recovery_status().code());
  EXPECT_FALSE(engine.UpdateGraph("g", TestDelta(1, 40)).ok());
  EXPECT_FALSE(engine.Checkpoint("g").ok());
}

TEST(StoreTest, CraftedKnnOptionsFailRecoveryWithATypedError) {
  // A checkpoint whose bytes and CRC are intact but whose KNN options are
  // out of range: recovery must report InvalidArgument, not rebuild the
  // attribute view's KNN graph from them.
  for (const graph::KnnOptions& knn : HostileKnnOptions()) {
    const std::string dir = MakeTempDir();
    {
      serve::GraphRegistry registry;
      serve::EngineOptions options;
      options.data_dir = dir;
      options.persist_fsync = false;
      serve::Engine engine(&registry, options);
      ASSERT_TRUE(engine.recovery_status().ok());
      serve::RegisterOptions register_options;
      register_options.coarsen_ratio = 0.0;
      ASSERT_TRUE(
          engine.RegisterGraph("g", TestFixture(60), register_options).ok());
    }
    const std::string checkpoint_path = FindCheckpointFile(dir);
    ASSERT_NE(checkpoint_path, "");
    auto loaded = persist::LoadCheckpoint(checkpoint_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    loaded->options.knn = knn;
    ASSERT_TRUE(persist::SaveCheckpoint(*loaded, checkpoint_path).ok());

    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    serve::Engine engine(&registry, options);
    EXPECT_EQ(engine.recovery_status().code(), StatusCode::kInvalidArgument)
        << engine.recovery_status().ToString();
    EXPECT_EQ(registry.Find("g"), nullptr);
  }
}

TEST(StoreTest, CraftedEdgeEndpointFailsRecoveryWithATypedError) {
  // A checkpoint whose bytes and CRC are intact but whose graph view names
  // a node past the node count: recovery must report InvalidArgument, not
  // abort the process while building the view's adjacency.
  const std::string dir = MakeTempDir();
  const int64_t n = 50;
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    ASSERT_TRUE(engine.RegisterGraph("g", TestFixture(n), {}).ok());
  }
  const std::string checkpoint_path = FindCheckpointFile(dir);
  ASSERT_NE(checkpoint_path, "");
  auto loaded = persist::LoadCheckpoint(checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  loaded->mvag.mutable_graph_view(0)->AddEdge(0, 999, 1.0);
  ASSERT_TRUE(persist::SaveCheckpoint(*loaded, checkpoint_path).ok());

  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  serve::Engine engine(&registry, options);
  EXPECT_EQ(engine.recovery_status().code(), StatusCode::kInvalidArgument)
      << engine.recovery_status().ToString();
  EXPECT_EQ(registry.Find("g"), nullptr);
}

TEST(StoreTest, RegisterRejectsOutOfRangeEdgeEndpoints) {
  for (int64_t bad : {int64_t{-1}, int64_t{50}}) {
    serve::GraphRegistry registry;
    serve::Engine engine(&registry);
    core::MultiViewGraph mvag = TestFixture(50);
    mvag.mutable_graph_view(0)->AddEdge(0, bad, 1.0);
    auto registered = engine.RegisterGraph("g", mvag, {});
    ASSERT_FALSE(registered.ok());
    EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(registry.Find("g"), nullptr);
  }
}

TEST(StoreTest, RegisterRejectsOutOfRangeKnnOptions) {
  for (const graph::KnnOptions& knn : HostileKnnOptions()) {
    serve::GraphRegistry registry;
    serve::Engine engine(&registry);
    serve::RegisterOptions register_options;
    register_options.knn = knn;
    auto registered =
        engine.RegisterGraph("g", TestFixture(60), register_options);
    ASSERT_FALSE(registered.ok());
    EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(registry.Find("g"), nullptr);
  }
}

TEST(StoreTest, CheckpointWithoutDataDirIsFailedPrecondition) {
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  auto epoch = engine.Checkpoint("g");
  ASSERT_FALSE(epoch.ok());
  EXPECT_EQ(epoch.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Seeded recovered == uninterrupted oracle. Each seed draws a graph (two SBM
// views, one attribute view) and 8-40 deltas: value-only re-weights, pattern
// edits, attribute rows, mask/unmask, AddView and RemoveView, with an
// explicit Checkpoint at a random epoch, sometimes an auto-checkpoint
// interval, a reopen mid-stream, and an evict + re-register. A durable
// engine runs the stream beside an in-memory one; after the final reopen the
// recovered entry and its exact SGLA and SGLA+ solves must equal the
// in-memory engine's bit for bit. SGLA_RECOVERY_ORACLE_SEED replays the one
// seed a red run printed.
// ---------------------------------------------------------------------------

enum class StreamOp { kDelta, kCheckpoint, kReopen, kReregister };

struct StreamStep {
  StreamOp op = StreamOp::kDelta;
  serve::GraphDelta delta;  ///< kDelta only
};

struct RecoveryStream {
  core::MultiViewGraph initial;
  std::vector<StreamStep> steps;
  int64_t checkpoint_interval = 0;
};

core::MultiViewGraph RandomFixture(int64_t n, Rng* rng) {
  const int k = 3;
  const std::vector<int32_t> labels = data::BalancedLabels(n, k, rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.08, 0.01, rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.05, 0.02, rng));
  mvag.AddAttributeView(data::GaussianAttributes(labels, k, 4, 3.0, 0.9, rng));
  return mvag;
}

/// One random valid delta against `mvag` with activity mask `active`.
serve::GraphDelta RandomStreamDelta(const core::MultiViewGraph& mvag,
                                    const std::vector<bool>& active,
                                    Rng* rng) {
  const int64_t n = mvag.num_nodes();
  const int num_graphs = static_cast<int>(mvag.graph_views().size());
  const int num_attributes = static_cast<int>(mvag.attribute_views().size());
  const int total = num_graphs + num_attributes;
  int num_active = 0;
  for (bool a : active) num_active += a ? 1 : 0;
  serve::GraphDelta delta;
  for (;;) {
    switch (rng->UniformInt(0, 6)) {
      case 0:    // value-only re-weights of existing edges
      case 1: {  // pattern edit: removals and insertions
        if (num_graphs == 0) break;
        serve::GraphViewDelta edits;
        edits.view = static_cast<int>(rng->UniformInt(0, num_graphs - 1));
        const std::vector<graph::Edge>& edges =
            mvag.graph_views()[static_cast<size_t>(edits.view)].edges();
        if (edges.empty()) break;
        for (int64_t i = rng->UniformInt(1, 6); i > 0; --i) {
          const graph::Edge& e = edges[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
          edits.upserts.push_back({e.u, e.v, 0.2 + 1.5 * rng->Uniform()});
        }
        if (rng->Uniform() < 0.5) {
          const graph::Edge& e = edges[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
          edits.removals.push_back({e.u, e.v});
          const int64_t u = rng->UniformInt(0, n - 1);
          edits.upserts.push_back(
              {u, (u + rng->UniformInt(1, n - 1)) % n, 1.0});
        }
        delta.graph_views.push_back(std::move(edits));
        return delta;
      }
      case 2: {  // attribute row
        if (num_attributes == 0) break;
        serve::AttributeRowUpdate row;
        row.view = static_cast<int>(rng->UniformInt(0, num_attributes - 1));
        row.row = rng->UniformInt(0, n - 1);
        row.values.resize(static_cast<size_t>(
            mvag.attribute_views()[static_cast<size_t>(row.view)].cols()));
        for (double& x : row.values) x = 3.0 * rng->Gaussian();
        delta.attribute_rows.push_back(std::move(row));
        return delta;
      }
      case 3: {  // mask an active view, keeping one active
        if (num_active < 2) break;
        int v = 0;
        do {
          v = static_cast<int>(rng->UniformInt(0, total - 1));
        } while (!active[static_cast<size_t>(v)]);
        delta.mask_views = {v};
        return delta;
      }
      case 4: {  // unmask a masked view
        if (num_active == total) break;
        int v = 0;
        do {
          v = static_cast<int>(rng->UniformInt(0, total - 1));
        } while (active[static_cast<size_t>(v)]);
        delta.unmask_views = {v};
        return delta;
      }
      case 5: {  // AddView, graph or attribute
        if (total >= 5) break;
        serve::ViewAddition addition;
        addition.attribute = rng->Uniform() < 0.5;
        if (addition.attribute) {
          addition.attributes = la::DenseMatrix(n, 3);
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < 3; ++j) {
              addition.attributes(i, j) = rng->Gaussian();
            }
          }
        } else {
          addition.graph = graph::Graph(n);
          for (int64_t m = 0; m < 3 * n; ++m) {
            const int64_t u = rng->UniformInt(0, n - 1);
            addition.graph.AddEdge(u, (u + rng->UniformInt(1, n - 1)) % n,
                                   0.5 + rng->Uniform());
          }
        }
        delta.add_views.push_back(std::move(addition));
        return delta;
      }
      default: {  // RemoveView, keeping one view and one active view
        if (total < 2) break;
        const int v = static_cast<int>(rng->UniformInt(0, total - 1));
        if (active[static_cast<size_t>(v)] && num_active < 2) break;
        delta.remove_views = {v};
        return delta;
      }
    }
  }
}

RecoveryStream MakeRecoveryStream(uint64_t seed) {
  Rng rng(seed);
  const int64_t sizes[] = {120, 197, 263};
  RecoveryStream stream;
  stream.initial = RandomFixture(sizes[seed % 3], &rng);
  stream.checkpoint_interval =
      rng.Uniform() < 0.5 ? 0 : rng.UniformInt(3, 12);
  const int64_t num_deltas = rng.UniformInt(8, 40);
  const int64_t checkpoint_at = rng.UniformInt(1, num_deltas);
  const int64_t reopen_at = rng.UniformInt(1, num_deltas);
  const int64_t reregister_at =
      rng.Uniform() < 0.4 ? rng.UniformInt(1, num_deltas) : -1;
  core::MultiViewGraph mvag = stream.initial;
  std::vector<bool> active(static_cast<size_t>(mvag.num_views()), true);
  for (int64_t d = 1; d <= num_deltas; ++d) {
    StreamStep step;
    step.delta = RandomStreamDelta(mvag, active, &rng);
    serve::DeltaEffects effects;
    EXPECT_TRUE(serve::ApplyDelta(&mvag, step.delta, active, &effects).ok());
    active = effects.active;
    stream.steps.push_back(std::move(step));
    if (d == checkpoint_at) stream.steps.push_back({StreamOp::kCheckpoint, {}});
    if (d == reopen_at) stream.steps.push_back({StreamOp::kReopen, {}});
    if (d == reregister_at) {
      stream.steps.push_back({StreamOp::kReregister, {}});
      mvag = stream.initial;
      active.assign(static_cast<size_t>(mvag.num_views()), true);
    }
  }
  return stream;
}

/// The bits of an exact solve of "g": weights, objective history, labels.
struct SolveBits {
  std::vector<double> weights;
  std::vector<double> history;
  std::vector<int32_t> labels;
};

SolveBits ExactSolveBits(serve::Engine* engine, serve::Algorithm algorithm) {
  serve::SolveRequest request;
  request.graph_id = "g";
  request.algorithm = algorithm;
  request.options.base.max_evaluations = 4;
  request.kmeans.num_init = 1;
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return {};
  return {response->integration.weights,
          response->integration.objective_history, response->labels};
}

void ExpectSameSolve(const SolveBits& got, const SolveBits& want) {
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.history, want.history);
  EXPECT_EQ(got.labels, want.labels);
}

/// A durable engine over its own registry, reopenable on one directory.
struct DurableEngine {
  std::unique_ptr<serve::GraphRegistry> registry;
  std::unique_ptr<serve::Engine> engine;  ///< destroyed before the registry

  void Open(const std::string& dir, int64_t checkpoint_interval) {
    engine.reset();
    registry = std::make_unique<serve::GraphRegistry>();
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    options.checkpoint_interval = checkpoint_interval;
    engine = std::make_unique<serve::Engine>(registry.get(), options);
  }
};

void RunRecoveryOracle(uint64_t seed) {
  const RecoveryStream stream = MakeRecoveryStream(seed);
  const std::string fixture =
      "SGLA_RECOVERY_ORACLE_SEED=" + std::to_string(seed) +
      " n=" + std::to_string(stream.initial.num_nodes()) +
      " steps=" + std::to_string(stream.steps.size()) +
      " checkpoint_interval=" + std::to_string(stream.checkpoint_interval);
  std::printf("recovery oracle %s\n", fixture.c_str());
  SCOPED_TRACE(fixture);

  serve::RegisterOptions options;
  options.coarsen_ratio = 0.0;
  serve::GraphRegistry memory_registry;
  serve::Engine memory(&memory_registry);
  ASSERT_TRUE(memory.RegisterGraph("g", stream.initial, options).ok());
  const std::string dir = MakeTempDir();
  DurableEngine durable;
  durable.Open(dir, stream.checkpoint_interval);
  ASSERT_TRUE(durable.engine->recovery_status().ok());
  ASSERT_TRUE(
      durable.engine->RegisterGraph("g", stream.initial, options).ok());

  for (size_t s = 0; s < stream.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const StreamStep& step = stream.steps[s];
    switch (step.op) {
      case StreamOp::kDelta: {
        auto want = memory.UpdateGraph("g", step.delta);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = durable.engine->UpdateGraph("g", step.delta);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        break;
      }
      case StreamOp::kCheckpoint: {
        auto epoch = durable.engine->Checkpoint("g");
        ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
        EXPECT_EQ(*epoch, memory_registry.Find("g")->epoch);
        break;
      }
      case StreamOp::kReopen:
        durable.Open(dir, stream.checkpoint_interval);
        ASSERT_TRUE(durable.engine->recovery_status().ok())
            << durable.engine->recovery_status().ToString();
        ASSERT_NE(durable.registry->Find("g"), nullptr);
        EXPECT_EQ(EntryHash(*durable.registry->Find("g")),
                  EntryHash(*memory_registry.Find("g")));
        break;
      case StreamOp::kReregister:
        ASSERT_TRUE(memory.EvictGraph("g"));
        ASSERT_TRUE(memory.RegisterGraph("g", stream.initial, options).ok());
        ASSERT_TRUE(durable.engine->EvictGraph("g"));
        ASSERT_TRUE(
            durable.engine->RegisterGraph("g", stream.initial, options).ok());
        break;
    }
  }

  durable.Open(dir, stream.checkpoint_interval);
  ASSERT_TRUE(durable.engine->recovery_status().ok())
      << durable.engine->recovery_status().ToString();
  EXPECT_EQ(durable.engine->recovery_stats().graphs_recovered, 1u);
  auto recovered = durable.registry->Find("g");
  ASSERT_NE(recovered, nullptr);
  const auto uninterrupted = memory_registry.Find("g");
  EXPECT_EQ(recovered->epoch, uninterrupted->epoch);
  EXPECT_EQ(EntryHash(*recovered), EntryHash(*uninterrupted));
  for (serve::Algorithm algorithm :
       {serve::Algorithm::kSgla, serve::Algorithm::kSglaPlus}) {
    ExpectSameSolve(ExactSolveBits(durable.engine.get(), algorithm),
                    ExactSolveBits(&memory, algorithm));
  }
}

TEST(StoreTest, SeededRandomRecoveredEqualsUninterrupted) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("SGLA_RECOVERY_ORACLE_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t seed = 1; seed <= 16; ++seed) seeds.push_back(seed);
  }
  for (uint64_t seed : seeds) RunRecoveryOracle(seed);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSAN leg's main persist workout): WAL appends race
// Solve / UpdateGraph / Evict+re-register / Checkpoint on one graph id.
// Operations may fail (NotFound while evicted, FailedPrecondition in a
// re-register window) but must never crash, deadlock, or race; afterwards
// the directory must still recover cleanly.
// ---------------------------------------------------------------------------

TEST(StoreTest, ConcurrentUpdateSolveEvictCheckpointHammer) {
  const std::string dir = MakeTempDir();
  const core::MultiViewGraph fixture = TestFixture(120);
  serve::RegisterOptions register_options;
  register_options.coarsen_ratio = 0.0;
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    options.checkpoint_interval = 4;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    ASSERT_TRUE(engine.RegisterGraph("g", fixture, register_options).ok());

    std::vector<std::thread> threads;
    for (int worker = 0; worker < 2; ++worker) {
      threads.emplace_back([&engine, worker] {
        Rng rng(4000 + worker);
        for (int i = 0; i < 25; ++i) {
          serve::GraphDelta delta;
          serve::GraphViewDelta edits;
          edits.view = static_cast<int>(rng.UniformInt(0, 1));
          const int64_t u = rng.UniformInt(0, 119);
          edits.upserts.push_back({u, (u + 1) % 120, 0.5 + rng.Uniform()});
          delta.graph_views.push_back(std::move(edits));
          engine.UpdateGraph("g", delta);  // NotFound while evicted is fine
        }
      });
    }
    threads.emplace_back([&engine] {
      for (int i = 0; i < 6; ++i) {
        serve::SolveRequest request;
        request.graph_id = "g";
        request.options.base.max_evaluations = 4;
        engine.Solve(request);  // NotFound while evicted is fine
      }
    });
    threads.emplace_back([&engine] {
      for (int i = 0; i < 10; ++i) {
        engine.Checkpoint("g");  // NotFound while evicted is fine
      }
    });
    threads.emplace_back([&engine, &fixture, &register_options] {
      for (int i = 0; i < 4; ++i) {
        engine.EvictGraph("g");
        engine.RegisterGraph("g", fixture, register_options);
      }
    });
    for (std::thread& thread : threads) thread.join();
    // End in a known state for the recovery check below.
    engine.EvictGraph("g");
    ASSERT_TRUE(engine.RegisterGraph("g", fixture, register_options).ok());
    ASSERT_TRUE(engine.UpdateGraph("g", TestDelta(1, 120)).ok());
  }
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  auto entry = registry.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 1);
}

}  // namespace
}  // namespace sgla
