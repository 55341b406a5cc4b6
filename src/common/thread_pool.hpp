// Fixed-size thread pool used by the hints synthesizer.
//
// The paper notes "to accelerate the generation, the synthesizer explores
// different percentiles concurrently"; we parallelize the (embarrassingly
// parallel) budget sweep of Algorithm 1 across this pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace janus {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows task exceptions.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stopping_) throw std::runtime_error("janus: submit on stopped pool");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// complete.  Exceptions from any iteration propagate (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Waits for every future, then rethrows the first one's exception (in
  /// vector order), if any.
  static void join(std::vector<std::future<void>>& futures);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace janus
