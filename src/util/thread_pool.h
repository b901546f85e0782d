#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace cloudcache {

/// Fixed-size worker pool over a FIFO task queue.
///
/// Built for the experiment sweeps in src/sim/sweep.h: tasks are
/// coarse-grained (whole simulations), so a mutex-guarded queue is plenty —
/// contention is one lock per ~seconds of work. Results and exceptions
/// travel through the std::future returned by Submit().
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least one).
  explicit ThreadPool(size_t num_threads);

  /// Runs every task already queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn(args...)`. The future carries the return value, or the
  /// exception the task threw. Must not be called after the destructor has
  /// begun (there is no other shutdown path).
  template <typename Fn, typename... Args>
  auto Submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<std::decay_t<Fn>,
                                          std::decay_t<Args>...>> {
    using R = std::invoke_result_t<std::decay_t<Fn>, std::decay_t<Args>...>;
    // shared_ptr because std::function requires copyable callables and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::bind(std::forward<Fn>(fn), std::forward<Args>(args)...));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      CLOUDCACHE_CHECK(!stopping_) << "Submit() on a stopping ThreadPool";
      tasks_.push([task] { (*task)(); });
    }
    wake_workers_.notify_one();
    return result;
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cloudcache
