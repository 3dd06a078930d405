// update_stream: the write path. A durable server (fsync on, default
// checkpoint interval) takes a closed-loop stream of GraphDeltas over RPC
// while a second connection re-solves warm after each update; at the end
// the engine is destroyed and reopened on its data directory.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include "coarse/coarsen.h"
#include "layers.h"
#include "persist/checkpoint.h"
#include "persist/store.h"
#include "persist/wal.h"
#include "rpc/client.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace sgla {
namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kRecoverReps = 3;
constexpr int kShards = 4;
/// Latency limit of slo_met_frac: a durable, acknowledged update (about
/// three times the median).
constexpr double kUpdateLimitMs = 1000.0;
/// Planted-partition quality the recovered exact labels must reach.
constexpr double kNmiFloor = 0.8;
constexpr int kEdgesPerDelta = 16;

enum class DeltaKind { kValue, kPattern, kAttribute };

/// Kinds of one block of ten consecutive updates, shuffled per block: 20%
/// value-only, 50% pattern-changing, 30% attribute-row. Sorted by cost
/// (value < pattern < attribute) the kinds hold the percentile ranges
/// 0-20, 20-70 and 70-100: the median falls inside the pattern range and
/// the tail percentile (p80 to p90 for the 50 to 100 updates of a run)
/// inside the attribute range, neither on a boundary.
constexpr DeltaKind kBlock[] = {
    DeltaKind::kValue,     DeltaKind::kValue,     DeltaKind::kPattern,
    DeltaKind::kPattern,   DeltaKind::kPattern,   DeltaKind::kPattern,
    DeltaKind::kPattern,   DeltaKind::kAttribute, DeltaKind::kAttribute,
    DeltaKind::kAttribute};

struct Delta {
  DeltaKind kind;
  serve::GraphDelta delta;
};

/// Draws every delta before timing. Value deltas re-weight existing edges
/// of graph view 0 (which no delta removes, so they stay value-only);
/// pattern deltas remove distinct original edges of graph view 1 and insert
/// new intra-block edges there; attribute deltas perturb one row.
class DeltaSource {
 public:
  DeltaSource(const core::MultiViewGraph& mvag, uint64_t seed)
      : mvag_(mvag), rng_(seed), removable_(mvag.graph_views()[1].edges()) {
    for (size_t i = removable_.size(); i > 1; --i) {
      std::swap(removable_[i - 1],
                removable_[static_cast<size_t>(
                    rng_.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
  }

  Delta Next(DeltaKind kind) {
    Delta d{kind, {}};
    const int64_t n = mvag_.num_nodes();
    const std::vector<int32_t>& labels = mvag_.labels();
    if (kind == DeltaKind::kValue) {
      const auto& edges = mvag_.graph_views()[0].edges();
      serve::GraphViewDelta view{0, {}, {}};
      for (int e = 0; e < kEdgesPerDelta; ++e) {
        const graph::Edge& edge = edges[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
        view.upserts.push_back({edge.u, edge.v, 0.5 + rng_.Uniform()});
      }
      d.delta.graph_views.push_back(std::move(view));
    } else if (kind == DeltaKind::kPattern) {
      serve::GraphViewDelta view{1, {}, {}};
      for (int e = 0; e < kEdgesPerDelta / 2; ++e) {
        const graph::Edge& edge = removable_[next_removal_++];
        view.removals.push_back({edge.u, edge.v});
        int64_t u = 0;
        int64_t v = 0;
        do {
          u = rng_.UniformInt(0, n - 1);
          v = rng_.UniformInt(0, n - 1);
        } while (u == v || labels[static_cast<size_t>(u)] !=
                               labels[static_cast<size_t>(v)]);
        view.upserts.push_back({u, v, 1.0});
      }
      d.delta.graph_views.push_back(std::move(view));
    } else {
      const la::DenseMatrix& x = mvag_.attribute_views()[0];
      serve::AttributeRowUpdate row;
      row.view = 0;
      row.row = rng_.UniformInt(0, n - 1);
      for (int64_t c = 0; c < x.cols(); ++c) {
        row.values.push_back(x(row.row, c) + 0.3 * rng_.Gaussian());
      }
      d.delta.attribute_rows.push_back(std::move(row));
    }
    return d;
  }

  Rng* rng() { return &rng_; }

 private:
  const core::MultiViewGraph& mvag_;
  Rng rng_;
  std::vector<graph::Edge> removable_;
  size_t next_removal_ = 0;
};

/// A durable engine over its own registry.
struct Durable {
  std::unique_ptr<serve::GraphRegistry> registry;
  std::unique_ptr<serve::Engine> engine;  ///< destroyed before the registry

  void Open(const std::string& dir) {
    registry = std::make_unique<serve::GraphRegistry>();
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = true;
    engine = std::make_unique<serve::Engine>(registry.get(), options);
  }
  void Close() {
    engine.reset();
    registry.reset();
  }
};

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace

void UpdateStream(Run* run) {
  FixtureSpec spec;
  spec.nodes = 8000;
  spec.clusters = 4;
  spec.sbm = {{0.008, 0.0012}, {0.005, 0.0015}};
  spec.attribute_dim = 16;
  spec.separation = 3.0;
  spec.noise = 3.0;
  const core::MultiViewGraph mvag = MakeFixture(spec, run->args.seed);
  DeltaSource source(mvag, run->args.seed * 104729 + 3);
  // Enough deltas for any run length this benchmark uses; a writer that
  // exhausts them stops early.
  std::vector<Delta> deltas;
  for (int block = 0; block < 30; ++block) {
    std::vector<DeltaKind> kinds(std::begin(kBlock), std::end(kBlock));
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[static_cast<size_t>(source.rng()->UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    for (DeltaKind kind : kinds) deltas.push_back(source.Next(kind));
  }
  // Written after the checkpoint, so every reopen replays exactly these.
  std::vector<Delta> suffix;
  for (DeltaKind kind : {DeltaKind::kValue, DeltaKind::kPattern,
                         DeltaKind::kValue, DeltaKind::kPattern}) {
    suffix.push_back(source.Next(kind));
  }

  serve::RegisterOptions register_options;
  register_options.shards = kShards;
  const std::string dir = run->args.work_dir + "/store";
  std::vector<double> setup_s;
  Durable durable;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    durable.Close();
    std::filesystem::remove_all(dir);
    const auto t0 = Clock::now();
    durable.Open(dir);
    auto registered =
        durable.engine->RegisterGraph("g", mvag, register_options);
    setup_s.push_back(MsSince(t0) / 1e3);
    run->CountOp(durable.engine->recovery_status().ok() && registered.ok(),
                 "opening the store or RegisterGraph failed");
    if (!registered.ok()) return;
  }
  LogSamples("setup_s", setup_s);
  run->E2e("setup_s", Median(setup_s), "s");
  serve::Engine& engine = *durable.engine;

  // Traced run: the solve hook stamps each physical solve's start.
  std::mutex hook_mutex;
  std::vector<Clock::time_point> solve_starts;
  if (run->tracer) {
    engine.SetSolveHookForTest([&](const serve::SolveRequest&) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      solve_starts.push_back(Clock::now());
    });
  }
  rpc::Server server(&engine);
  run->Check(server.Start().ok(), "server failed to start");
  rpc::Client writer;
  rpc::Client reader;
  run->Check(writer.Connect("127.0.0.1", server.port()).ok() &&
                 reader.Connect("127.0.0.1", server.port()).ok(),
             "connect failed");
  rpc::SolveWireRequest resolve;
  resolve.graph_id = "g";
  resolve.algorithm = serve::Algorithm::kSglaPlus;
  resolve.warm_start = true;
  // Untimed: one solve banks the warm-start entry the reader resumes from.
  run->Check(reader.Solve(resolve).ok(), "warm-up solve failed");

  struct Update {
    DeltaKind kind;
    double ms;
    bool ok;
  };
  std::vector<Update> updates;
  std::vector<double> resolve_ms;
  std::vector<double> resolve_lanczos;
  std::vector<Clock::time_point> resolve_sent;
  std::vector<std::pair<uint64_t, uint64_t>> resolve_spans;  // request, span
  int64_t warm_hits = 0;
  int64_t resolve_failures = 0;
  std::mutex epoch_mutex;
  std::condition_variable epoch_cv;
  int64_t acked_epoch = 0;
  bool writer_done = false;
  {
    std::lock_guard<std::mutex> lock(hook_mutex);
    solve_starts.clear();
  }
  const auto deadline = After(run->args.seconds);
  std::thread reader_thread([&] {
    int64_t solved_epoch = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(epoch_mutex);
        epoch_cv.wait(lock, [&] {
          return writer_done || acked_epoch > solved_epoch;
        });
        if (writer_done) return;
      }
      const uint64_t request = run->tracer ? run->tracer->NewRequest() : 0;
      SpanScope span(run->tracer, "rpc.resolve", request);
      const auto t0 = Clock::now();
      auto reply = reader.Solve(resolve);
      resolve_sent.push_back(t0);
      resolve_spans.push_back({request, span.id()});
      resolve_ms.push_back(MsSince(t0));
      if (!reply.ok()) {
        ++resolve_failures;
        return;
      }
      warm_hits += reply->warm_started ? 1 : 0;
      resolve_lanczos.push_back(static_cast<double>(reply->lanczos_iterations));
      solved_epoch = reply->graph_epoch;
    }
  });
  for (size_t i = 0; i < deltas.size() && Clock::now() < deadline; ++i) {
    rpc::UpdateRequest request;
    request.id = "g";
    request.delta = deltas[i].delta;
    const uint64_t trace_id = run->tracer ? run->tracer->NewRequest() : 0;
    Result<rpc::UpdateReply> reply = Internal("not run");
    const auto t0 = Clock::now();
    {
      SpanScope span(run->tracer, "rpc.update", trace_id);
      reply = writer.Update(request);
    }
    updates.push_back({deltas[i].kind, MsSince(t0), reply.ok()});
    if (!reply.ok()) break;
    std::lock_guard<std::mutex> lock(epoch_mutex);
    acked_epoch = reply->epoch;
    epoch_cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(epoch_mutex);
    writer_done = true;
    epoch_cv.notify_all();
  }
  reader_thread.join();

  std::vector<double> update_ms;
  std::vector<double> by_kind[3];
  int64_t met = 0;
  for (const Update& u : updates) {
    run->CountOp(u.ok, "durable Update failed");
    update_ms.push_back(u.ms);
    by_kind[static_cast<int>(u.kind)].push_back(u.ms);
    met += u.ok && u.ms <= kUpdateLimitMs ? 1 : 0;
  }
  run->attempted += static_cast<int64_t>(resolve_ms.size());
  run->failed += resolve_failures;
  run->Check(resolve_failures == 0, "warm re-solve failed");
  run->Check(!resolve_ms.empty(), "no warm re-solve completed");
  LogSamples("update_value_ms", by_kind[0]);
  LogSamples("update_pattern_ms", by_kind[1]);
  LogSamples("update_attribute_ms", by_kind[2]);
  LogSamples("resolve_ms", resolve_ms);

  std::shared_ptr<const serve::GraphEntry> entry = durable.registry->Find("g");
  if (run->tracer) {
    std::vector<Clock::time_point> starts;
    {
      std::lock_guard<std::mutex> lock(hook_mutex);
      starts = solve_starts;
    }
    // One physical solve per reader request, in order: its queue wait runs
    // from the request's send to the solve's start.
    std::vector<double> queue_wait_ms;
    for (size_t i = 0; i < starts.size() && i < resolve_sent.size(); ++i) {
      queue_wait_ms.push_back(MsBetween(resolve_sent[i], starts[i]));
      run->tracer->Record("serve.queue_wait", resolve_spans[i].first,
                          resolve_spans[i].second, resolve_sent[i], starts[i]);
    }
    run->Layer("serve.queue_wait_ms", Mean(queue_wait_ms), "ms");
    run->Layer("serve.warm_hit_frac",
               static_cast<double>(warm_hits) /
                   static_cast<double>(std::max<size_t>(1, resolve_ms.size())),
               "ratio");
    run->Layer("serve.physical_solves", static_cast<double>(starts.size()),
               "count");
    SpmvCounts(run, Median(resolve_lanczos), entry->aggregator->pattern().nnz(),
               spec.nodes);

    // rpc: the same cold exact SGLA+ solve over RPC and in process, in
    // alternating pairs, with the writer and reader idle.
    std::vector<double> overhead_ms;
    serve::SolveRequest in_process;
    in_process.graph_id = "g";
    in_process.algorithm = serve::Algorithm::kSglaPlus;
    rpc::SolveWireRequest over_rpc;
    over_rpc.graph_id = "g";
    over_rpc.algorithm = serve::Algorithm::kSglaPlus;
    for (int pair = 0; pair < 4; ++pair) {
      const uint64_t request = run->tracer->NewRequest();
      auto t0 = Clock::now();
      {
        SpanScope span(run->tracer, "rpc.client_solve", request);
        run->Check(writer.Solve(over_rpc).ok(), "overhead probe: RPC failed");
      }
      const double rpc_ms = MsSince(t0);
      t0 = Clock::now();
      {
        SpanScope span(run->tracer, "serve.solve", request);
        run->Check(engine.Solve(in_process).ok(),
                   "overhead probe: in-process solve failed");
      }
      overhead_ms.push_back(rpc_ms - MsSince(t0));
    }
    run->Layer("rpc.client_overhead_ms", Median(overhead_ms), "ms");
    ReplayFastTier(run, *entry, spec.clusters);

    auto snapshot = durable.registry->SnapshotSource("g");
    run->Check(snapshot.ok(), "SnapshotSource failed");
    if (snapshot.ok()) {
      // serve: ApplyDelta on copies of the source graph.
      std::vector<double> apply_ms;
      std::vector<double> repair_ms;
      for (size_t i = 0; i < 20 && i < deltas.size(); ++i) {
        core::MultiViewGraph copy = snapshot->mvag;
        serve::DeltaEffects effects;
        const uint64_t request = run->tracer->NewRequest();
        SpanScope span(run->tracer, "serve.apply_delta", request);
        const auto t0 = Clock::now();
        const Status applied = serve::ApplyDelta(
            &copy, deltas[i].delta, snapshot->entry->active, &effects);
        apply_ms.push_back(MsSince(t0));
        run->Check(applied.ok(), "ApplyDelta failed");
      }
      // coarse: repair of the companion plan around a pattern delta's rows.
      for (size_t i = 0; i < deltas.size() && repair_ms.size() < 5; ++i) {
        if (deltas[i].kind != DeltaKind::kPattern || !entry->coarse) continue;
        std::vector<bool> changed(static_cast<size_t>(spec.nodes), false);
        for (const auto& view : deltas[i].delta.graph_views) {
          for (const auto& e : view.upserts) changed[e.u] = changed[e.v] = true;
          for (const auto& e : view.removals) {
            changed[e.u] = changed[e.v] = true;
          }
        }
        coarse::CoarsePlan plan = entry->coarse->plan;
        const uint64_t request = run->tracer->NewRequest();
        SpanScope span(run->tracer, "coarse.repair", request);
        const auto t0 = Clock::now();
        coarse::RepairCoarsePlan(entry->aggregator->pattern(),
                                 entry->serving_views(), changed, &plan);
        repair_ms.push_back(MsSince(t0));
      }
      run->Layer("serve.apply_delta_ms", Median(apply_ms), "ms");
      run->Layer("coarse.repair_ms", Median(repair_ms), "ms");

      // persist: this workload's own records through a side WAL with the
      // server's fsync policy, then a checkpoint of the current graph.
      const std::string wal_path = run->args.work_dir + "/side.wal";
      std::filesystem::remove(wal_path);
      persist::WalOpenStats open_stats;
      auto wal = persist::Wal::Open(
          wal_path, persist::Wal::Options{true},
          [](const uint8_t*, size_t) { return Status(); }, &open_stats);
      run->Check(wal.ok(), "side WAL open failed");
      if (wal.ok()) {
        std::vector<double> commit_ms;
        for (size_t i = 0; i < updates.size(); ++i) {
          persist::WalRecord record;
          record.reg_uid = 1;
          record.id = "g";
          record.epoch = static_cast<int64_t>(i) + 1;
          record.delta = deltas[i].delta;
          std::vector<uint8_t> bytes;
          persist::EncodeWalRecord(record, &bytes);
          const uint64_t request = run->tracer->NewRequest();
          SpanScope span(run->tracer, "persist.wal_commit", request);
          const auto t0 = Clock::now();
          auto ticket = (*wal)->Enqueue(bytes);
          run->Check(ticket.ok() && (*wal)->Wait(*ticket).ok(),
                     "side WAL append failed");
          commit_ms.push_back(MsSince(t0));
        }
        run->Layer("persist.wal_commit_ms", Median(commit_ms), "ms");
        run->Layer("persist.records_per_commit",
                   static_cast<double>((*wal)->records_appended()) /
                       static_cast<double>(
                           std::max<uint64_t>(1, (*wal)->commits())),
                   "count");
      }
      persist::CheckpointData data;
      data.id = "g";
      data.reg_uid = 1;
      data.epoch = snapshot->entry->epoch;
      data.options = register_options;
      data.options.knn = snapshot->knn;
      data.next_view_uid = snapshot->next_view_uid;
      data.view_uids = snapshot->entry->view_uids;
      data.active = snapshot->entry->active;
      data.views_signature = snapshot->entry->views_signature;
      data.mvag = snapshot->mvag;
      const std::string checkpoint_path = run->args.work_dir + "/side.sgck";
      const uint64_t request = run->tracer->NewRequest();
      double checkpoint_ms = 0.0;
      {
        SpanScope span(run->tracer, "persist.checkpoint", request);
        const auto t0 = Clock::now();
        run->Check(persist::SaveCheckpoint(data, checkpoint_path).ok(),
                   "SaveCheckpoint failed");
        checkpoint_ms = MsSince(t0);
      }
      run->Layer("persist.checkpoint_ms", checkpoint_ms, "ms");
      run->Layer("persist.checkpoint_bytes", FileBytes(checkpoint_path), "B");
      {
        SpanScope span(run->tracer, "persist.load_checkpoint", request);
        const auto t0 = Clock::now();
        run->Check(persist::LoadCheckpoint(checkpoint_path).ok(),
                   "LoadCheckpoint failed");
        run->Layer("persist.load_checkpoint_ms", MsSince(t0), "ms");
      }

      // rpc: encode + decode of the Update frames this run sent.
      std::vector<double> codec_us;
      for (size_t i = 0; i < updates.size(); ++i) {
        const uint64_t codec_request = run->tracer->NewRequest();
        SpanScope span(run->tracer, "rpc.codec", codec_request);
        const auto t0 = Clock::now();
        rpc::UpdateRequest message;
        message.id = "g";
        message.delta = deltas[i].delta;
        rpc::WireWriter w;
        rpc::EncodeUpdateRequest(message, &w);
        rpc::WireReader r(w.buffer().data(), w.buffer().size());
        rpc::UpdateRequest decoded;
        bool ok = rpc::DecodeUpdateRequest(&r, &decoded);
        rpc::WireWriter reply_writer;
        rpc::EncodeUpdateReply(rpc::UpdateReply{static_cast<int64_t>(i)},
                               &reply_writer);
        rpc::WireReader reply_reader(reply_writer.buffer().data(),
                                     reply_writer.buffer().size());
        rpc::UpdateReply reply;
        ok = ok && rpc::DecodeUpdateReply(&reply_reader, &reply);
        codec_us.push_back(MsSince(t0) * 1e3);
        run->Check(ok, "codec probe: decode failed");
      }
      run->Layer("rpc.codec_us", Median(codec_us), "us");
      ReplayBuild(run, snapshot->mvag);
    }
    ReplaySolve(run, *entry->aggregator, spec.clusters,
                serve::Algorithm::kSglaPlus, core::SglaPlusOptions(),
                /*netmf_dim=*/0);
  }
  entry.reset();

  // Compact, then write a fixed suffix so that every reopen below replays
  // the same records whatever the stream above managed.
  rpc::CheckpointRequest checkpoint{"g"};
  run->CountOp(writer.Checkpoint(checkpoint).ok(), "Checkpoint failed");
  for (const Delta& d : suffix) {
    rpc::UpdateRequest request;
    request.id = "g";
    request.delta = d.delta;
    run->CountOp(writer.Update(request).ok(), "suffix Update failed");
  }
  rpc::SolveWireRequest cold;
  cold.graph_id = "g";
  cold.algorithm = serve::Algorithm::kSglaPlus;
  auto before = writer.Solve(cold);
  run->CountOp(before.ok(), "cold solve before shutdown failed");
  writer.Disconnect();
  reader.Disconnect();
  server.Shutdown();
  durable.Close();

  std::vector<double> recover_ms;
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    durable.Close();
    const auto t0 = Clock::now();
    durable.Open(dir);
    recover_ms.push_back(MsSince(t0));
    const auto& stats = durable.engine->recovery_stats();
    run->CountOp(durable.engine->recovery_status().ok() &&
                     stats.graphs_recovered == 1 &&
                     stats.deltas_replayed == suffix.size(),
                 "recovery did not restore the graph and replay the suffix");
  }
  LogSamples("recover_ms", recover_ms);
  serve::SolveRequest after_request;
  after_request.graph_id = "g";
  after_request.algorithm = serve::Algorithm::kSglaPlus;
  auto after = durable.engine->Solve(after_request);
  run->CountOp(after.ok(), "cold solve after recovery failed");
  double nmi = 0.0;
  if (before.ok() && after.ok()) {
    run->Check(after->labels == before->labels,
               "recovered cold exact solve differs from the one before "
               "shutdown");
    nmi = Nmi(after->labels, mvag.labels());
    if (run->tracer) {
      run->Layer("cluster.embedding_lanczos_vectors",
                 static_cast<double>(after->stats.embedding_lanczos_iterations),
                 "count");
    }
  }
  durable.Close();
  std::filesystem::remove_all(dir);

  double tail_pct = 0.0;
  run->E2e("op_ms_p50", Median(update_ms), "ms");
  run->E2e("op_ms_tail", Tail(update_ms, &tail_pct), "ms");
  run->E2e("op2_ms_p50", Median(resolve_ms), "ms");
  run->E2e("op3_ms_p50", Median(recover_ms), "ms");
  run->E2e("slo_met_frac",
           static_cast<double>(met) /
               static_cast<double>(std::max<size_t>(1, updates.size())),
           "ratio");
  run->E2e("nmi", nmi, "ratio");
  run->Check(nmi >= kNmiFloor, "recovered exact NMI below the floor");
  std::cerr << "update_stream: " << updates.size() << " updates ("
            << by_kind[0].size() << " value, " << by_kind[1].size()
            << " pattern, " << by_kind[2].size() << " attribute), "
            << resolve_ms.size() << " warm re-solves; op_ms_tail is p"
            << tail_pct << " of " << updates.size() << "\n";
}

}  // namespace perfbench
}  // namespace sgla
