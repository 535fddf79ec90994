#include "util/thread_pool.hpp"

#include <atomic>
#include <memory>

namespace graphm::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) lock.wait(cv_idle_);
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.size() == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-call completion state. Completion counts finished indices, not
  // helpers: once every index has run the call returns, even if some helper
  // is still queued behind other work. Helpers hold a shared_ptr so the
  // state outlives the call; a helper that starts after every index was
  // claimed exits without touching fn (which may be gone by then).
  struct Group {
    std::atomic<std::size_t> next{0};
    Mutex mutex;
    std::size_t finished GUARDED_BY(mutex) = 0;
    std::condition_variable done;
  };
  auto group = std::make_shared<Group>();
  const auto run_indices = [n](Group& g, const std::function<void(std::size_t)>& f) {
    std::size_t ran = 0;
    for (std::size_t i = g.next.fetch_add(1); i < n; i = g.next.fetch_add(1)) {
      f(i);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(g.mutex);
    g.finished += ran;
    if (g.finished == n) g.done.notify_all();
  };

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([group, run_indices, &fn] { run_indices(*group, fn); });
  }
  // The caller works too: even with every pool worker busy elsewhere, the
  // call makes progress and cannot deadlock.
  run_indices(*group, fn);

  MutexLock lock(group->mutex);
  while (group->finished != n) lock.wait(group->done);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) lock.wait(cv_task_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace graphm::util
