// Fixed-size thread pool. It runs independent simulation replicas (one
// trace/seed per task) and, inside one simulation, the worker lanes of
// sim::ShardKernel, whose per-round lane tasks wait on each other's
// encounters (sim/shard_kernel.hpp). Results stay bit-identical regardless
// of thread count or scheduling because neither use lets the schedule
// reach the output: replicas share nothing, and the kernel fixes every
// node's operation order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tribvote::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// Returns only after every task has finished, even when some threw; then
  /// rethrows the exception of the lowest-indexed task that threw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tribvote::util
