#ifndef SGLA_UTIL_THREAD_POOL_H_
#define SGLA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sgla {
namespace util {

/// Persistent worker pool for deterministic data parallelism.
///
/// Work is always split into fixed chunks of `grain` iterations — the
/// partition depends only on (begin, end, grain), never on the thread count
/// or on scheduling. Kernels that reduce (k-means accumulation, inertia)
/// keep one accumulator per *chunk* and merge them in chunk-index order, so
/// their results are bit-identical at any thread count, run after run.
/// Kernels whose chunks write disjoint outputs (SpMV rows, aggregate slots)
/// are bit-identical to the serial loop by construction.
///
/// Several jobs run side by side: each job takes one of kSlots slots, and
/// workers claim chunks across every active slot through one atomic word
/// per slot. The calling thread drains its own job, then waits for the
/// chunks workers claimed. A caller that finds every slot taken runs its
/// job inline, in chunk order. Nested ParallelFor calls (a kernel invoked
/// from inside a chunk) run inline on the caller, in chunk order — same
/// partition, same bits, no deadlock. See DESIGN.md, "Threading model".
///
/// A chunk that throws does not take the process down: the first exception
/// is kept, the job's remaining chunks are claimed without running, and
/// ParallelFor rethrows it on the caller once no thread touches the job any
/// more. The pool stays usable.
///
/// Dispatch is allocation-free: callables are published to the workers as a
/// raw trampoline + context pointer (the caller's stack frame outlives the
/// job, which is fully drained before ParallelFor returns), never wrapped in
/// std::function. This is what lets the engine layer promise zero-allocation
/// steady-state objective evaluations even with the pool running wide.
class ThreadPool {
 public:
  /// Trampoline signature jobs are published with: (ctx, chunk, lo, hi).
  using RawChunkFn = void (*)(void*, int64_t, int64_t, int64_t);

  /// Jobs in flight at once; a caller that finds all of them taken runs its
  /// job inline.
  static constexpr int kSlots = 8;

  /// `num_threads` <= 1 means fully serial (no workers are spawned).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Number of chunks the range [begin, end) splits into at `grain`.
  static int64_t NumChunks(int64_t begin, int64_t end, int64_t grain);

  /// Runs fn(chunk, chunk_begin, chunk_end) for every chunk of [begin, end);
  /// blocks until all chunks finish. Chunk c covers
  /// [begin + c*grain, min(end, begin + (c+1)*grain)).
  template <typename Fn>
  void ParallelForChunks(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = typename std::remove_reference<Fn>::type;
    RunChunked(begin, end, grain,
               [](void* ctx, int64_t chunk, int64_t lo, int64_t hi) {
                 (*static_cast<F*>(ctx))(chunk, lo, hi);
               },
               const_cast<void*>(static_cast<const volatile void*>(
                   std::addressof(fn))));
  }

  /// Chunked loop without the chunk index (for kernels that don't reduce).
  template <typename Fn>
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = typename std::remove_reference<Fn>::type;
    RunChunked(begin, end, grain,
               [](void* ctx, int64_t, int64_t lo, int64_t hi) {
                 (*static_cast<F*>(ctx))(lo, hi);
               },
               const_cast<void*>(static_cast<const volatile void*>(
                   std::addressof(fn))));
  }

  /// True while the current thread is executing inside a ParallelFor chunk;
  /// a ParallelFor issued now would run inline (serially).
  static bool InParallelRegion();

  /// RAII: marks the current thread as being inside a parallel region for the
  /// scope's lifetime, so every ParallelFor(Chunks) it issues runs inline —
  /// serial, ascending chunk order, same partition. Shard jobs wrap their
  /// body in this: the shard is the unit of parallelism, and the kernels
  /// inside it must not re-enter (and contend on) the shared pool.
  class InlineScope {
   public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    const bool was_inside_;
  };

  /// Process-wide pool. Sized by the SGLA_THREADS environment variable when
  /// set to a valid positive integer, else by
  /// std::thread::hardware_concurrency(); malformed values (non-numeric,
  /// zero, negative, trailing junk) log a warning and fall back.
  static ThreadPool& Global();

  /// Thread count Global() would use on first construction.
  static int DefaultThreads();

  /// Replaces the global pool (tests / benches sweep thread counts with
  /// this). Must not be called while kernels are running on the old pool.
  static void SetGlobalThreads(int num_threads);

 private:
  /// One job in flight. The caller writes the job fields, then publishes
  /// them by storing `claim`; a worker reads them only after a claim on
  /// that word succeeded, so it never acts on a job it did not see
  /// published.
  struct alignas(64) Slot {
    /// (generation << 32) | chunks not yet claimed. A claim decrements the
    /// low half by compare-and-swap, so it fails once the slot carries a
    /// later job. Each publish bumps the slot's generation.
    std::atomic<uint64_t> claim{0};
    std::atomic<int64_t> done{0};  ///< chunks finished
    /// The caller is (about to be) parked on done_cv_ for this job.
    std::atomic<bool> caller_parked{false};
    std::atomic<bool> failed{false};  ///< some chunk threw
    uint32_t generation = 0;          ///< owner-only
    RawChunkFn fn = nullptr;
    void* ctx = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t chunks = 0;
    std::exception_ptr error;  ///< the first exception a chunk threw
  };

  /// Monomorphic core of ParallelFor(Chunks): publishes (fn, ctx) in a free
  /// slot, drains it alongside the workers, and blocks until every chunk
  /// finished; rethrows the first exception a chunk threw.
  void RunChunked(int64_t begin, int64_t end, int64_t grain, RawChunkFn fn,
                  void* ctx);
  void WorkerLoop(int worker);
  /// Takes a free slot for the caller's job; -1 when every slot is taken.
  int AcquireSlot();
  /// Claims one chunk of `slot`'s current job; false once none is left.
  static bool TryClaim(Slot* slot, int64_t* chunk);
  /// Runs a claimed chunk and counts it done, waking a parked caller after
  /// the last one.
  void RunClaimed(Slot* slot, int64_t chunk);
  /// Claims and runs chunks of any active job; false if none was claimable.
  bool RunAnyChunks(int worker);
  /// Spins for kSpinWindow, then parks until `slot`'s job has finished.
  void AwaitDone(Slot* slot);
  /// Spins for kSpinWindow, then parks until a job is published after
  /// `seen` or the pool shuts down.
  void AwaitPublish(uint64_t seen);

  const int num_threads_;

  Slot slots_[kSlots];
  std::atomic<uint32_t> occupied_{0};  ///< bit s: slot s holds a job
  std::atomic<uint64_t> published_{0};  ///< bumped after every publish
  std::atomic<int> parked_workers_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex mutex_;  ///< for the two condition variables only
  std::condition_variable wake_cv_;  ///< parked workers
  std::condition_variable done_cv_;  ///< parked callers

  std::vector<std::thread> workers_;  ///< last: they use everything above
};

}  // namespace util
}  // namespace sgla

#endif  // SGLA_UTIL_THREAD_POOL_H_
