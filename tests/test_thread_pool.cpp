#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

namespace ncb {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.submit_bulk(0, 100, [&counter](std::size_t) { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.submit_bulk(0, 10, [&counter](std::size_t) { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.submit_bulk(0, 1, [&done](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPool, ReusableAcrossPhases) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int phase = 0; phase < 3; ++phase) {
    pool.submit_bulk(0, 20, [&counter](std::size_t) { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 20 * (phase + 1));
  }
}

TEST(ThreadPool, NullTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit_bulk(0, 1, std::function<void(std::size_t)>{}),
               std::invalid_argument);
  // The rejected call enqueued nothing: the pool is idle and still usable.
  pool.wait_idle();
  std::atomic<int> counter{0};
  pool.submit_bulk(0, 1, [&counter](std::size_t) { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.submit_bulk(0, 50, [&counter](std::size_t) { ++counter; });
    // No wait_idle: destructor must still run all tasks.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelSumCorrect) {
  ThreadPool pool(4);
  std::vector<long> partial(16, 0);
  pool.submit_bulk(0, 16, [&partial](std::size_t w) {
    long total = 0;
    for (long i = 0; i < 100000; ++i) total += static_cast<long>(w);
    partial[w] = total;
  });
  pool.wait_idle();
  long total = 0;
  for (const long p : partial) total += p;
  EXPECT_EQ(total, 100000L * (0 + 15) * 16 / 2);
}

TEST(ThreadPool, ManySmallTasksStress) {
  ThreadPool pool(8);
  std::atomic<long> counter{0};
  // One bulk call per task: 5000 separate enqueues racing the workers.
  for (int i = 0; i < 5000; ++i) {
    pool.submit_bulk(0, 1, [&counter](std::size_t) { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 5000);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TaskExceptionPropagatesAtWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit_bulk(0, 1, [](std::size_t) {
    throw std::runtime_error("task boom");
  });
  pool.submit_bulk(0, 10, [&completed](std::size_t) { ++completed; });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The other tasks still ran; the pool stays usable afterwards.
  EXPECT_EQ(completed.load(), 10);
  pool.submit_bulk(0, 1, [&completed](std::size_t) { ++completed; });
  pool.wait_idle();
  EXPECT_EQ(completed.load(), 11);
}

TEST(ThreadPool, OnlyFirstExceptionKept) {
  ThreadPool pool(1);
  // One worker runs the queue in FIFO order, so index 0 throws first.
  pool.submit_bulk(0, 2, [](std::size_t i) {
    if (i == 0) throw std::runtime_error("first");
    throw std::logic_error("second");
  });
  try {
    pool.wait_idle();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // Second exception was discarded; next wait is clean.
  pool.wait_idle();
}

TEST(ThreadPool, SubmitBulkRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.submit_bulk(0, 100, [&hits](std::size_t i) { ++hits[i]; });
  pool.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitBulkSubrange) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.submit_bulk(10, 20, [&sum](std::size_t i) { sum += i; });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, SubmitBulkEmptyRangeIsNoop) {
  ThreadPool pool(1);
  pool.submit_bulk(5, 5, [](std::size_t) { FAIL() << "must not run"; });
  pool.wait_idle();
}

TEST(ThreadPool, SubmitBulkNullTaskThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit_bulk(0, 3, nullptr), std::invalid_argument);
}

TEST(ThreadPool, SubmitBulkExceptionPropagates) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit_bulk(0, 16, [&completed](std::size_t i) {
    if (i == 7) throw std::runtime_error("shard boom");
    ++completed;
  });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
}

}  // namespace
}  // namespace ncb
