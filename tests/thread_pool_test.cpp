// Unit tests for the work-stealing thread pool (util/thread_pool.hpp):
// task submission and stealing, exception propagation, nested parallelism,
// and the serial-path equivalence behind the determinism contract.
// This suite is part of the multithreaded set run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace ssamr {
namespace {

TEST(ThreadPool, SerialPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0);
  EXPECT_EQ(pool.concurrency(), 1);
}

TEST(ThreadPool, SpawnsRequestedConcurrency) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 3);
  EXPECT_EQ(pool.concurrency(), 4);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnv) {
  ::setenv("SSAMR_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  ::setenv("SSAMR_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 1);
  ::setenv("SSAMR_THREADS", "garbage", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ::unsetenv("SSAMR_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  constexpr int kTasks = 500;
  std::atomic<int> count{0};
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  // The destructor drains the queues; but help until every task has run
  // so the check does not depend on destruction order.
  while (count.load() < kTasks) pool.run_one_task();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  constexpr int kTasks = 500;
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i)
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }  // no help and no wait: the workers and the destructor drain the queues
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, SubmitOnSerialPathRunsInline) {
  ThreadPool pool(1);
  int ran = 0;
  pool.submit([&ran] { ran = 1; });
  EXPECT_EQ(ran, 1);  // no workers: submit executes immediately
  EXPECT_FALSE(pool.run_one_task());
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 10000;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kN));
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  try {
    pool.parallel_for(100, [&done](std::size_t i) {
      if (i == 37) throw std::runtime_error("boom at 37");
      done.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 37");
  }
  // The pool must still be usable after an aborted loop.
  std::atomic<int> after{0};
  pool.parallel_for(50, [&after](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<int>> grid(kOuter,
                                     std::vector<int>(kInner, 0));
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&, i](std::size_t j) {
      grid[i][j] = static_cast<int>(i * kInner + j);
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i)
    for (std::size_t j = 0; j < kInner; ++j)
      ASSERT_EQ(grid[i][j], static_cast<int>(i * kInner + j));
}

TEST(ThreadPool, TransformReduceOrderedMatchesSerialBitwise) {
  // A sum whose result depends on association order in floating point:
  // alternating large/small terms.  The ordered reduction must associate
  // exactly as the serial loop at every thread count.
  constexpr std::size_t kN = 4097;
  auto term = [](std::size_t i) {
    return (i % 2 == 0) ? 1.0e16 / static_cast<double>(i + 1)
                        : 1.0e-7 * static_cast<double>(i);
  };
  auto add = [](double a, double b) { return a + b; };

  ThreadPool serial(1);
  const double expected =
      serial.transform_reduce_ordered(kN, 0.0, term, add);
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const double got = pool.transform_reduce_ordered(kN, 0.0, term, add);
    EXPECT_EQ(got, expected) << "threads=" << threads;  // bitwise, not NEAR
  }
}

TEST(ThreadPool, ParallelForSerialEquivalence) {
  constexpr std::size_t kN = 1000;
  auto fill = [](ThreadPool& pool) {
    std::vector<double> out(kN);
    pool.parallel_for(kN, [&out](std::size_t i) {
      out[i] = std::sin(static_cast<double>(i)) * 1.0e5;
    });
    return out;
  };
  ThreadPool serial(1);
  ThreadPool wide(8);
  EXPECT_EQ(fill(serial), fill(wide));
}

TEST(ThreadPool, StressManySmallLoops) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(17, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200L * 17L);
}

TEST(ThreadPoolOverride, SwapsAndRestoresGlobal) {
  ThreadPool* before = &ThreadPool::global();
  {
    ThreadPoolOverride ov(2);
    EXPECT_EQ(&ThreadPool::global(), &ov.pool());
    EXPECT_EQ(ThreadPool::global().concurrency(), 2);
    {
      ThreadPoolOverride inner(1);
      EXPECT_EQ(&ThreadPool::global(), &inner.pool());
      EXPECT_EQ(ThreadPool::global().worker_count(), 0);
    }
    EXPECT_EQ(&ThreadPool::global(), &ov.pool());
  }
  EXPECT_EQ(&ThreadPool::global(), before);
}

}  // namespace
}  // namespace ssamr
