// A small fixed-size thread pool. The grid/shard engines use it to stream
// blocks with a configurable number of worker threads (the paper's jobs run
// with #threads == #cores); GraphM's sharing controller runs jobs as
// dedicated threads and does not go through the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace graphm::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; tasks may run in any order.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void wait_idle();

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// The calling thread participates, and the call returns as soon as every
  /// index has run — it never waits for a queued helper that found nothing
  /// left to do — so concurrent parallel_for calls from different threads
  /// (e.g. several jobs streaming through one shared engine pool) never wait
  /// on each other's work. fn must not block on other fn calls.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
};

}  // namespace graphm::util
