#include "exec/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace explainit::exec {
namespace {

TEST(WorkerPoolTest, RunsAllTasksInAGroup) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Submit([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPoolTest, WaitIsGroupLocal) {
  // Group A's Wait must not block on group B's slow task.
  WorkerPool pool(2);
  std::atomic<bool> b_release{false};
  TaskGroup slow(&pool);
  slow.Submit([&b_release] {
    while (!b_release.load()) std::this_thread::yield();
  });
  TaskGroup fast(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) fast.Submit([&done] { done.fetch_add(1); });
  fast.Wait();  // must return while `slow` still runs
  EXPECT_EQ(done.load(), 10);
  b_release.store(true);
  slow.Wait();
}

TEST(WorkerPoolTest, ErrorsAreGroupLocalAndFirstOnly) {
  WorkerPool pool(1);  // single worker => deterministic order
  TaskGroup failing(&pool);
  TaskGroup clean(&pool);
  failing.Submit([] { throw std::runtime_error("first"); });
  failing.Submit([] { throw std::runtime_error("second"); });
  std::atomic<int> ok{0};
  clean.Submit([&ok] { ok.fetch_add(1); });
  // Let the single worker run both failing tasks in submission order: a
  // Wait() that found one still queued would run it inline, racing the
  // worker for which error is recorded first.
  while (failing.pending() > 0) std::this_thread::yield();
  EXPECT_THROW(
      {
        try {
          failing.Wait();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "first");
          throw;
        }
      },
      std::runtime_error);
  clean.Wait();  // the sibling group never sees the error
  EXPECT_EQ(ok.load(), 1);
  // The failing group stays usable after a rethrow.
  failing.Submit([&ok] { ok.fetch_add(1); });
  failing.Wait();
  EXPECT_EQ(ok.load(), 2);
}

TEST(WorkerPoolTest, SerialGroupPreservesSubmissionOrder) {
  WorkerPool pool(4);
  TaskGroup serial(&pool, /*max_concurrency=*/1);
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 50; ++i) {
    serial.Submit([&order, &m, i] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    });
  }
  serial.Wait();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPoolTest, WaitHelpsOnASaturatedPool) {
  // Every worker is parked on a latch; Wait() must still finish the
  // group by running its queued tasks inline.
  WorkerPool pool(2);
  std::atomic<bool> release{false};
  TaskGroup blockers(&pool);
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    blockers.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  TaskGroup work(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) work.Submit([&done] { done.fetch_add(1); });
  work.Wait();  // helps inline; would deadlock on a non-helping pool
  EXPECT_EQ(done.load(), 8);
  release.store(true);
  blockers.Wait();
}

TEST(WorkerPoolTest, NestedParallelForDoesNotDeadlock) {
  WorkerPool pool(2);
  std::atomic<int> leaf{0};
  ParallelFor(pool, 4, [&pool, &leaf](size_t) {
    ParallelFor(pool, 4, [&leaf](size_t) { leaf.fetch_add(1); });
  });
  EXPECT_EQ(leaf.load(), 16);
}

TEST(WorkerPoolTest, ParallelForCoversRangeExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ParallelForChunksMatchesSeedBoundaries) {
  // Chunk boundaries must depend only on (n, min_grain, num_threads) —
  // the executor's sharded operators rely on this for determinism.
  WorkerPool pool(4);
  std::mutex m;
  std::set<std::pair<size_t, size_t>> chunks;
  ParallelForChunks(pool, 103, 16, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(m);
    chunks.insert({begin, end});
  });
  // chunks = min(threads=4, 103/16=6) = 4; base 25, extra 3 -> the first
  // three chunks get 26.
  const std::set<std::pair<size_t, size_t>> expected = {
      {0, 26}, {26, 52}, {52, 78}, {78, 103}};
  EXPECT_EQ(chunks, expected);
}

TEST(WorkerPoolTest, ParallelForPropagatesException) {
  WorkerPool pool(4);
  EXPECT_THROW(ParallelFor(pool, 64,
                           [](size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

// Regression: a throwing task must neither kill its worker nor leave the
// group's pending count undecremented (which would hang every Wait()).
TEST(WorkerPoolTest, ThrowingTaskDoesNotStopItsGroup) {
  WorkerPool pool(2);
  TaskGroup group(&pool);
  group.Wait();  // an empty group returns at once
  std::atomic<int> ran{0};
  group.Submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 100; ++i) {
    group.Submit([&ran] { ran.fetch_add(1); });
  }
  try {
    group.Wait();
    FAIL() << "Wait() should rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPoolTest, ParallelForUsesSeveralThreads) {
  WorkerPool pool(4);
  std::mutex m;
  std::set<std::thread::id> ids;
  ParallelFor(pool, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(m);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
}

TEST(WorkerPoolTest, ParallelForChunksSmallInputRunsInline) {
  WorkerPool pool(4);
  int calls = 0;
  size_t covered = 0;
  std::thread::id ran_on;
  ParallelForChunks(pool, 10, /*min_grain=*/64,
                    [&](size_t begin, size_t end) {
                      ++calls;
                      covered += end - begin;
                      ran_on = std::this_thread::get_id();
                    });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(covered, 10u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ParallelForChunks(pool, 0, 64, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // empty range: no call at all
}

TEST(WorkerPoolTest, ConstructionCounterCountsPools) {
  const size_t before = WorkerPool::constructions();
  { WorkerPool pool(2); }
  { WorkerPool pool(3); }
  EXPECT_EQ(WorkerPool::constructions(), before + 2);
}

TEST(WorkerPoolTest, GlobalIsCreatedOnceAndShared) {
  WorkerPool& a = WorkerPool::Global();
  const size_t after_first = WorkerPool::constructions();
  WorkerPool& b = WorkerPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(WorkerPool::constructions(), after_first);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(WorkerPoolTest, TagCountsAccumulate) {
  WorkerPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i) group.Submit([] {}, "alpha");
  for (int i = 0; i < 3; ++i) group.Submit([] {}, "beta");
  group.Wait();
  const auto counts = pool.TagCounts();
  EXPECT_EQ(counts.at("alpha"), 5u);
  EXPECT_EQ(counts.at("beta"), 3u);
}

TEST(WorkerPoolStressTest, ManyGroupsFromManyThreads) {
  WorkerPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        TaskGroup group(&pool);
        for (int i = 0; i < 10; ++i) {
          group.Submit([&total] { total.fetch_add(1); });
        }
        group.Wait();
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(), 8 * 20 * 10);
}

TEST(WorkerPoolStressTest, ConcurrentParallelForChunksCallers) {
  WorkerPool pool(4);
  constexpr int kCallers = 4;
  std::vector<std::thread> callers;
  std::vector<size_t> sums(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int round = 0; round < 10; ++round) {
        std::mutex m;
        size_t local = 0;
        ParallelForChunks(pool, 5000, 64, [&](size_t begin, size_t end) {
          size_t s = 0;
          for (size_t i = begin; i < end; ++i) s += i;
          std::lock_guard<std::mutex> lock(m);
          local += s;
        });
        sums[c] = local;
      }
    });
  }
  for (auto& t : callers) t.join();
  const size_t expected = 5000ull * 4999ull / 2;
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c], expected);
}

TEST(WorkerPoolStressTest, ExceptionsPropagateUnderContention) {
  // Every caller's throwing rounds surface through that caller's own
  // Wait(), exactly once each, and every other task still runs.
  WorkerPool pool(3);
  constexpr int kCallers = 5;
  constexpr int kRounds = 30;
  constexpr int kTasks = 8;
  std::atomic<int> ran{0};
  std::atomic<int> rethrown{0};
  std::atomic<int> throwing_rounds{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const bool throws = (round + c) % 4 == 0;
        if (throws) throwing_rounds.fetch_add(1);
        TaskGroup group(&pool);
        for (int t = 0; t < kTasks; ++t) {
          const bool thrower = throws && t == 3;
          group.Submit([&ran, thrower] {
            if (thrower) throw std::runtime_error("stress");
            ran.fetch_add(1);
          });
        }
        try {
          group.Wait();
        } catch (const std::runtime_error&) {
          rethrown.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(rethrown.load(), throwing_rounds.load());
  EXPECT_EQ(ran.load(), kCallers * kRounds * kTasks - throwing_rounds.load());
  // The pool remains fully usable afterwards.
  std::atomic<int> after{0};
  ParallelFor(pool, 64, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

}  // namespace
}  // namespace explainit::exec
