#ifndef SGLA_UTIL_TASK_QUEUE_H_
#define SGLA_UTIL_TASK_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sgla {
namespace util {

/// Batching submit queue: tasks from any number of caller threads are
/// enqueued and drained by a fixed set of session workers, instead of each
/// caller blocking a thread of its own through a whole solve. Tasks receive
/// the id of the worker running them (0 .. num_workers-1) so callers can
/// maintain one reusable workspace per worker (serve::Engine does exactly
/// this). Tasks themselves are free to launch ThreadPool kernels — the
/// pool's chunk partitions do not depend on what else runs, so any
/// interleaving of tasks yields the same bits per task.
///
/// Ordering: tasks start in FIFO order, but with more than one worker they
/// overlap and may finish out of order. The destructor drains the queue
/// (every submitted task runs) before joining the workers.
///
/// Exception safety: a task that lets an exception escape does NOT take its
/// worker (or the process) down — the worker logs the exception to stderr
/// and moves on to the next task. Tasks that care about their errors must
/// catch them themselves and route them somewhere useful (serve::Engine
/// resolves the caller's promise); the worker-level catch is a last-resort
/// guard so one bad request can never wedge the whole queue.
class TaskQueue {
 public:
  using Task = std::function<void(int worker)>;

  /// Spawns `num_workers` (>= 1) dedicated session threads.
  explicit TaskQueue(int num_workers);
  ~TaskQueue();
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task; returns immediately. Must not be called after the
  /// destructor has begun.
  void Submit(Task task);

  /// Tasks submitted but not yet finished: queued + currently running.
  /// A snapshot — with concurrent submitters/workers it is stale the moment
  /// it returns. Admission-control callers (serve::Engine) keep their own
  /// accepted-work counter for the actual bound and use this only for
  /// introspection.
  size_t pending() const;

  /// Blocks until the queue is empty and every worker is idle.
  void Drain();

 private:
  void WorkerLoop(int worker);

  mutable std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers wait for tasks / shutdown
  std::condition_variable idle_cv_;  ///< Drain waits for empty + idle
  std::deque<Task> queue_;
  int active_ = 0;  ///< workers currently running a task
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace util
}  // namespace sgla

#endif  // SGLA_UTIL_TASK_QUEUE_H_
