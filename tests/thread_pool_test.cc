// Tests for the §8.2 thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>

#include "core/thread_pool.h"

namespace apqa::core {
namespace {

TEST(ThreadPoolTest, SynchronousFallback) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0);
  int x = 0;
  pool.Submit([&] { x = 42; });
  pool.WaitAll();
  EXPECT_EQ(x, 42);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitAllIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.Submit([&] { count.fetch_add(1); });
    pool.WaitAll();
    EXPECT_EQ(count.load(), 10 * (round + 1));
  }
}

TEST(ThreadPoolTest, DestructionWithPendingWaiters) {
  // Destroying a pool after WaitAll must join cleanly.
  auto pool = std::make_unique<ThreadPool>(3);
  std::atomic<int> count{0};
  pool->ParallelFor(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
  pool.reset();
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  // Tasks already queued when the destructor runs are executed, not lost.
  std::atomic<int> count{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  {
    ThreadPool pool(2);
    // Occupy every worker so the remaining submits stay queued.
    for (int i = 0; i < 2; ++i) {
      pool.Submit([gate] { gate.wait(); });
    }
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    release.set_value();
  }  // ~ThreadPool → Stop(): drain then join
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, TrySubmitShedsWhenQueueIsFull) {
  ThreadPool pool(2, /*max_queue=*/3);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> count{0};
  // Fill the workers, then the queue.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.TrySubmit([gate] { gate.wait(); }));
  }
  int accepted = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.TrySubmit([&] { count.fetch_add(1); })) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0) << "bounded queue never rejected";
  EXPECT_LE(pool.queued(), 3u);
  release.set_value();
  pool.WaitAll();
  EXPECT_EQ(count.load(), accepted);
  // With the workers idle again, TrySubmit succeeds once more.
  EXPECT_TRUE(pool.TrySubmit([&] { count.fetch_add(1); }));
  pool.WaitAll();
  EXPECT_EQ(count.load(), accepted + 1);
}

TEST(ThreadPoolTest, TrySubmitSynchronousFallbackRunsInline) {
  ThreadPool pool(1, /*max_queue=*/1);  // 0 workers → inline execution
  int x = 0;
  EXPECT_TRUE(pool.TrySubmit([&] { x = 7; }));
  EXPECT_EQ(x, 7);
}

TEST(ThreadPoolTest, SubmitAfterStopHasDefinedBehavior) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.WaitAll();
  pool.Stop();
  EXPECT_THROW(pool.Submit([&] { count.fetch_add(1); }), std::runtime_error);
  EXPECT_FALSE(pool.TrySubmit([&] { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 1);
  pool.Stop();  // idempotent
}

TEST(ThreadPoolTest, SubmitAfterStopOnSynchronousPoolAlsoThrows) {
  ThreadPool pool(1);  // 0 workers
  pool.Stop();
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, SeededFanOutRunsSeriallyOnCallerRng) {
  // No pool, a one-thread pool, and a single job all run in index order on
  // the caller's Rng, so fixed-seed output does not depend on the pool.
  ThreadPool one(1), four(4);
  struct Case {
    ThreadPool* pool;
    std::size_t n;
  };
  for (Case c : {Case{nullptr, 5}, Case{&one, 5}, Case{&four, 1}}) {
    crypto::Rng rng(42), want(42);
    std::vector<std::size_t> order;
    ThreadPool::SeededFanOut(c.pool, c.n, &rng,
                             [&](std::size_t i, crypto::Rng* r) {
                               EXPECT_EQ(r, &rng);
                               EXPECT_EQ(r->NextU64(), want.NextU64());
                               order.push_back(i);
                             });
    std::vector<std::size_t> expected(c.n);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
  }
}

TEST(ThreadPoolTest, SeededFanOutCoversIndicesAndRethrows) {
  ThreadPool pool(4);
  crypto::Rng rng(7);
  std::vector<std::atomic<int>> hits(200);
  ThreadPool::SeededFanOut(&pool, hits.size(), &rng,
                           [&](std::size_t i, crypto::Rng* r) {
                             r->NextU64();
                             hits[i].fetch_add(1);
                           });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // A throwing job surfaces on the calling thread, not as a worker crash,
  // and the pool stays usable.
  EXPECT_THROW(ThreadPool::SeededFanOut(&pool, 200, &rng,
                                        [](std::size_t i, crypto::Rng*) {
                                          if (i == 17) {
                                            throw std::runtime_error("job");
                                          }
                                        }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.ParallelFor(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

}  // namespace
}  // namespace apqa::core
