#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace stir::common {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SubmitReturnsTaskValue) {
  ThreadPool pool(2);
  std::future<int> result = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(result.get(), 42);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> future =
      pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroThreadsRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Submit([&ran_on] { ran_on = std::this_thread::get_id(); }).get();
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, NegativeThreadCountIsInlineToo) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.size(), 0);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, InlinePoolPropagatesExceptions) {
  ThreadPool pool(0);
  std::future<void> future =
      pool.Submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;  // only the lone worker writes
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& future : futures) future.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

// A caller that has waited on a task's future reads it counted: the
// pool records completion before the future becomes ready, also for a
// task that throws.
TEST(ThreadPoolTest, TaskIsCountedBeforeItsFutureIsReady) {
  obs::MetricsRegistry metrics;
  ThreadPool pool(1, &metrics);
  const obs::Counter* submitted = metrics.GetCounter("pool.tasks_submitted");
  const obs::Counter* completed = metrics.GetCounter("pool.tasks_completed");
  const obs::Counter* worker = metrics.GetCounter("pool.worker.0.tasks");
  for (int round = 0; round < 20'000; ++round) {
    pool.Submit([] {}).get();
    ASSERT_EQ(completed->value(), submitted->value()) << "round " << round;
    ASSERT_EQ(worker->value(), submitted->value()) << "round " << round;
  }
  EXPECT_THROW(pool.Submit([] { throw std::runtime_error("boom"); }).get(),
               std::runtime_error);
  EXPECT_EQ(completed->value(), submitted->value());
  EXPECT_EQ(worker->value(), submitted->value());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool joins after running everything queued
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<size_t> seen;  // serial execution: no lock needed
  ParallelFor(nullptr, 100, [&seen](size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelForTest, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 1000,
                           [](size_t i) {
                             if (i == 537) throw std::runtime_error("bad");
                           }),
               std::runtime_error);
}

TEST(ParallelForShardsTest, ShardsAreContiguousDisjointAndOrdered) {
  ThreadPool pool(4);
  constexpr size_t kN = 103;  // deliberately not divisible by 4
  std::mutex mu;
  std::vector<std::array<size_t, 3>> spans;
  ParallelForShards(&pool, kN,
                    [&](size_t shard, size_t begin, size_t end) {
                      std::lock_guard<std::mutex> lock(mu);
                      spans.push_back({shard, begin, end});
                    });
  ASSERT_EQ(spans.size(), NumShards(&pool, kN));
  std::sort(spans.begin(), spans.end());
  size_t expected_begin = 0;
  for (size_t s = 0; s < spans.size(); ++s) {
    EXPECT_EQ(spans[s][0], s);
    EXPECT_EQ(spans[s][1], expected_begin);
    EXPECT_GT(spans[s][2], spans[s][1]);
    expected_begin = spans[s][2];
  }
  EXPECT_EQ(expected_begin, kN);
}

TEST(ParallelForShardsTest, ShardCountNeverExceedsItems) {
  ThreadPool pool(8);
  EXPECT_EQ(NumShards(&pool, 3), 3u);
  EXPECT_EQ(NumShards(&pool, 100), 8u);
  EXPECT_EQ(NumShards(nullptr, 100), 1u);
  EXPECT_EQ(NumShards(&pool, 0), 1u);
  ThreadPool inline_pool(0);
  EXPECT_EQ(NumShards(&inline_pool, 100), 1u);
}

TEST(ParallelForShardsTest, ShardBoundariesAreStableAcrossCalls) {
  // Determinism of the study's merge step rests on boundaries depending
  // only on (n, shard count) — record them twice and compare.
  ThreadPool pool(3);
  auto collect = [&pool] {
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> spans;
    ParallelForShards(&pool, 77, [&](size_t, size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      spans.insert({begin, end});
    });
    return spans;
  };
  EXPECT_EQ(collect(), collect());
}

}  // namespace
}  // namespace stir::common
