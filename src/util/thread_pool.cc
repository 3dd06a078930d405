#include "util/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <iostream>

namespace sgla {
namespace util {
namespace {

thread_local bool tls_in_parallel = false;

std::mutex g_global_mutex;
ThreadPool* g_global_pool = nullptr;  // leaked: outlives static destructors

// How long an idle worker, or a caller waiting for the chunks workers
// claimed, spins before it parks on a condition variable. The eigensolvers
// issue a job every few microseconds, each of a few microseconds of work;
// parking after every job made the futex wake-up cost more than the job.
// A wall-clock window rather than an iteration count, because the cost of
// one spin iteration differs by CPU and kernel.
constexpr std::chrono::microseconds kSpinWindow{50};

// The low half of a slot's claim word counts the chunks still to claim.
constexpr uint64_t kRemainingMask = 0xffffffffull;
constexpr int64_t kMaxPooledChunks = static_cast<int64_t>(kRemainingMask);

// Spins until done() holds or kSpinWindow has passed; returns done(). Each
// iteration yields, so on an oversubscribed machine a spinning thread hands
// its core to a runnable one, such as a writer beside a solve.
template <typename Done>
bool SpinFor(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  do {
    if (done()) return true;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  return done();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true);
  { std::lock_guard<std::mutex> lock(mutex_); }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int64_t ThreadPool::NumChunks(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  const int64_t g = std::max<int64_t>(1, grain);
  return (end - begin + g - 1) / g;
}

int ThreadPool::AcquireSlot() {
  constexpr uint32_t kAll = (1u << kSlots) - 1;
  uint32_t mask = occupied_.load(std::memory_order_relaxed);
  for (;;) {
    const uint32_t free = ~mask & kAll;
    if (free == 0) return -1;
    const int s = __builtin_ctz(free);
    // Acquire: the previous owner's last writes to the slot happen before
    // this owner's first.
    if (occupied_.compare_exchange_weak(mask, mask | (1u << s),
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return s;
    }
  }
}

// A claim is a compare-and-swap on the whole word, generation included, so
// it succeeds only against a word this thread has read: the publish store
// of the job or a later claim of the same job. The job fields are read only
// after it succeeded, and the slot cannot be reused before this chunk is
// counted done, so they are the fields of the job whose chunk was claimed.
bool ThreadPool::TryClaim(Slot* slot, int64_t* chunk) {
  uint64_t word = slot->claim.load(std::memory_order_acquire);
  while ((word & kRemainingMask) != 0) {
    if (slot->claim.compare_exchange_weak(word, word - 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      *chunk = slot->chunks - static_cast<int64_t>(word & kRemainingMask);
      return true;
    }
  }
  return false;
}

void ThreadPool::RunClaimed(Slot* slot, int64_t chunk) {
  const int64_t chunks = slot->chunks;
  // After a throw the job drains without running its remaining chunks.
  if (!slot->failed.load(std::memory_order_relaxed)) {
    const int64_t lo = slot->begin + chunk * slot->grain;
    const int64_t hi = std::min(slot->end, lo + slot->grain);
    try {
      slot->fn(slot->ctx, chunk, lo, hi);
    } catch (...) {
      if (!slot->failed.exchange(true)) {
        slot->error = std::current_exception();
      }
    }
  }
  // Sequentially consistent with AwaitDone's store of caller_parked: either
  // the caller sees the last chunk done, or this thread sees it parked.
  if (slot->done.fetch_add(1) + 1 == chunks && slot->caller_parked.load()) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    done_cv_.notify_all();
  }
}

bool ThreadPool::RunAnyChunks(int worker) {
  bool ran = false;
  const uint32_t mask = occupied_.load(std::memory_order_acquire);
  if (mask == 0) return false;
  // Workers start their scan at different slots, so concurrent jobs each
  // get some of them.
  for (int i = 0; i < kSlots; ++i) {
    const int s = (worker + i) % kSlots;
    if ((mask & (1u << s)) == 0) continue;
    int64_t chunk = 0;
    while (TryClaim(&slots_[s], &chunk)) {
      RunClaimed(&slots_[s], chunk);
      ran = true;
    }
  }
  return ran;
}

void ThreadPool::AwaitDone(Slot* slot) {
  const int64_t chunks = slot->chunks;
  const auto finished = [slot, chunks] {
    return slot->done.load(std::memory_order_acquire) == chunks;
  };
  if (SpinFor(finished)) return;
  slot->caller_parked.store(true);
  if (slot->done.load() != chunks) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, finished);
  }
  slot->caller_parked.store(false, std::memory_order_relaxed);
}

void ThreadPool::AwaitPublish(uint64_t seen) {
  const auto moved = [this, seen] {
    return published_.load() != seen || shutdown_.load();
  };
  if (SpinFor(moved)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  // Sequentially consistent with RunChunked's publish: either the publisher
  // sees this worker parked, or the predicate sees the publish.
  parked_workers_.fetch_add(1);
  wake_cv_.wait(lock, moved);
  parked_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void ThreadPool::RunChunked(int64_t begin, int64_t end, int64_t grain,
                            RawChunkFn fn, void* ctx) {
  const int64_t g = std::max<int64_t>(1, grain);
  const int64_t chunks = NumChunks(begin, end, g);
  if (chunks == 0) return;
  const int s = chunks == 1 || num_threads_ == 1 || tls_in_parallel ||
                        chunks > kMaxPooledChunks
                    ? -1
                    : AcquireSlot();
  if (s < 0) {
    // Serial fallback: same partition, ascending chunk order, so reductions
    // merged by chunk index get the same bits as any parallel schedule. It
    // also serves a caller that finds every slot taken. tls_in_parallel is
    // deliberately NOT set here: only pool jobs mark chunk execution. A
    // top-level caller running inline holds no pool state, so kernels
    // nested under it (e.g. beneath a one-chunk job) stay free to
    // parallelize.
    for (int64_t c = 0; c < chunks; ++c) {
      fn(ctx, c, begin + c * g, std::min(end, begin + (c + 1) * g));
    }
    return;
  }

  Slot* slot = &slots_[s];
  slot->fn = fn;
  slot->ctx = ctx;
  slot->begin = begin;
  slot->end = end;
  slot->grain = g;
  slot->chunks = chunks;
  slot->done.store(0, std::memory_order_relaxed);
  slot->failed.store(false, std::memory_order_relaxed);
  const uint64_t generation = ++slot->generation;
  slot->claim.store((generation << 32) | static_cast<uint64_t>(chunks),
                    std::memory_order_release);
  published_.fetch_add(1);
  if (parked_workers_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    wake_cv_.notify_all();
  }

  {
    InlineScope in_job;  // the caller drains its own job first
    int64_t chunk = 0;
    while (TryClaim(slot, &chunk)) RunClaimed(slot, chunk);
  }
  AwaitDone(slot);

  // No thread touches the job any more: take its error and free the slot.
  std::exception_ptr error = std::move(slot->error);
  slot->error = nullptr;
  occupied_.fetch_and(~(1u << s), std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop(int worker) {
  tls_in_parallel = true;  // a worker only ever runs chunks
  for (;;) {
    const uint64_t seen = published_.load();
    if (RunAnyChunks(worker)) continue;
    if (shutdown_.load()) return;
    AwaitPublish(seen);
  }
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel; }

ThreadPool::InlineScope::InlineScope() : was_inside_(tls_in_parallel) {
  tls_in_parallel = true;
}

ThreadPool::InlineScope::~InlineScope() { tls_in_parallel = was_inside_; }

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
  if (const char* env = std::getenv("SGLA_THREADS")) {
    char* parse_end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &parse_end, 10);
    // A valid override consumes the whole string and is a positive count.
    // Anything else (non-numeric, trailing junk, zero, negative, overflow)
    // is a configuration mistake: warn loudly and fall back instead of
    // silently running with a nonsense pool size.
    const bool parsed =
        parse_end != env && *parse_end == '\0' && errno == 0;
    if (parsed && v >= 1) {
      return static_cast<int>(std::min<long>(v, 1024));
    }
    std::cerr << "[SGLA WARNING] SGLA_THREADS='" << env
              << "' is not a positive integer; falling back to "
                 "hardware_concurrency() = "
              << fallback << std::endl;
  }
  return fallback;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool == nullptr) {
    g_global_pool = new ThreadPool(DefaultThreads());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  delete g_global_pool;  // drains and joins the old workers
  g_global_pool = new ThreadPool(num_threads);
}

}  // namespace util
}  // namespace sgla
