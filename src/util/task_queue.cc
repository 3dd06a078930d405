#include "util/task_queue.h"

#include <algorithm>
#include <exception>
#include <iostream>
#include <utility>

#include "util/logging.h"

namespace sgla {
namespace util {

TaskQueue::TaskQueue(int num_workers) {
  const int n = std::max(1, num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskQueue::~TaskQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskQueue::Submit(Task task) {
  SGLA_CHECK(task != nullptr) << "TaskQueue::Submit of an empty task";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SGLA_CHECK(!shutdown_) << "TaskQueue::Submit after shutdown";
    queue_.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

size_t TaskQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + static_cast<size_t>(active_);
}

void TaskQueue::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void TaskQueue::WorkerLoop(int worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain-before-join: pending tasks still run after shutdown is set, so
      // futures handed out by callers (serve::Engine) are never abandoned.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // Last-resort exception guard: an escaping exception would otherwise
    // std::terminate the worker thread and silently shrink the queue's
    // capacity forever. Callers with futures/callbacks catch their own
    // errors; anything that still gets here is logged and dropped.
    try {
      task(worker);
    } catch (const std::exception& e) {
      std::cerr << "[TaskQueue] task threw: " << e.what()
                << " (worker " << worker << " continues)" << std::endl;
    } catch (...) {
      std::cerr << "[TaskQueue] task threw a non-std exception (worker "
                << worker << " continues)" << std::endl;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace util
}  // namespace sgla
