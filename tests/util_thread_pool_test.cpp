#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tribvote::util {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroTasks) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForRethrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::logic_error("task failed");
                                   }
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryTaskBeforeRethrowing) {
  // Task 0 throws at once while the others are still running. The call
  // must not return (and release `fn` and what it captures) until every
  // task is done.
  ThreadPool pool(4);
  constexpr std::size_t kN = 4;
  std::vector<std::atomic<bool>> finished(kN);
  EXPECT_THROW(pool.parallel_for(kN,
                                 [&finished](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("task 0");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(50));
                                   finished[i].store(true);
                                 }),
               std::runtime_error);
  for (std::size_t i = 1; i < kN; ++i) {
    EXPECT_TRUE(finished[i].load()) << "task " << i;
  }
}

TEST(ThreadPool, ManyTasksAccumulate) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SingleThreadIsSequentialSafe) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // FIFO on one worker
}

}  // namespace
}  // namespace tribvote::util
