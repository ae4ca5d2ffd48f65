// ThreadPool semantics the parallel simulator depends on: exception
// propagation out of run_workers, inline execution for nested calls (no
// deadlock on the shared queue), on-demand pool growth, and the caller
// participating as worker 0.
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace {

using gbmo::ThreadPool;

TEST(ThreadPool, EnsureWorkersGrowsInlinePool) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.size(), 3u);
  pool.ensure_workers(2);  // never shrinks
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  pool.run_workers(4, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, RunWorkersRunsEveryIndexOnceCallerParticipates) {
  ThreadPool pool(1);  // run_workers must grow it on demand
  const std::size_t n = 4;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<bool> caller_ran_zero{false};
  const auto caller_id = std::this_thread::get_id();
  pool.run_workers(n, [&](std::size_t w) {
    ++hits[w];
    if (w == 0 && std::this_thread::get_id() == caller_id) {
      caller_ran_zero = true;
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(caller_ran_zero.load());
  EXPECT_GE(pool.size(), n - 1);
}

TEST(ThreadPool, RunWorkersPropagatesLowestIndexedException) {
  ThreadPool pool(4);
  try {
    pool.run_workers(4, [&](std::size_t w) {
      if (w >= 2) throw std::runtime_error("worker " + std::to_string(w));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Both worker 2 and 3 throw; the lowest index must win regardless of
    // scheduling order.
    EXPECT_STREQ(e.what(), "worker 2");
  }
}

TEST(ThreadPool, NestedRunWorkersRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  pool.run_workers(2, [&](std::size_t) {
    const auto outer_id = std::this_thread::get_id();
    ThreadPool::global().run_workers(3, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer_id);
      ++inner;
    });
  });
  EXPECT_EQ(inner.load(), 2 * 3);
}

}  // namespace
