#include "sim/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <stdexcept>

namespace ncb {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit_bulk(std::size_t first, std::size_t last,
                             std::function<void(std::size_t)> fn) {
  if (first >= last) return;
  if (!fn) throw std::invalid_argument("ThreadPool: null bulk task");
  const auto shared_fn =
      std::make_shared<const std::function<void(std::size_t)>>(std::move(fn));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      throw std::logic_error("ThreadPool: submit after shutdown");
    }
    for (std::size_t i = first; i < last; ++i) {
      queue_.push([shared_fn, i] { (*shared_fn)(i); });
      ++in_flight_;
    }
  }
  if (last - first == 1) {
    work_available_.notify_one();
  } else {
    work_available_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    const std::exception_ptr err = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (err && !first_exception_) first_exception_ = err;
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace ncb
