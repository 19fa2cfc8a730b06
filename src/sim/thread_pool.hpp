// Fixed-size worker pool for running replications in parallel.
//
// Deliberately simple: a mutex-guarded queue and a condition variable
// (Core Guidelines CP.20/CP.42 style — RAII locks, cv waits with predicates).
// Work arrives as index ranges (submit_bulk); wait_idle() blocks until all
// submitted tasks finished, so callers can reuse one pool across phases.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ncb {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 → hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn(i)` for every i in [first, last) under ONE lock acquisition
  /// with ONE wake-up, so schedulers submitting thousands of fine-grained
  /// shards do not serialize on per-task mutex churn. `fn` is shared across
  /// the queued tasks (workers invoke it concurrently with distinct indices).
  /// Must not be called after shutdown started; a null `fn` throws
  /// std::invalid_argument.
  void submit_bulk(std::size_t first, std::size_t last,
                   std::function<void(std::size_t)> fn);

  /// Blocks until every submitted task has completed. If any task threw,
  /// the first captured exception is rethrown here (the remaining tasks
  /// still ran to completion).
  void wait_idle();

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_exception_;
};

}  // namespace ncb
