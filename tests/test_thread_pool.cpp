// Tests for util::ThreadPool: sizing, submit futures, parallel_for index
// coverage, exception propagation, the shared pool and its COCKTAIL_THREADS
// parse.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace cocktail {
namespace {

TEST(ThreadPool, ExplicitSizeIsHonored) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  util::ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResults) {
  util::ThreadPool pool(2);
  auto doubled = pool.submit([] { return 21 * 2; });
  auto text = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(doubled.get(), 42);
  EXPECT_EQ(text.get(), "ok");
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  util::ThreadPool pool(1);
  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("submit boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int workers : {1, 2, 4}) {
    util::ThreadPool pool(workers);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << workers
                                   << " workers";
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndSingletonBatches) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForHandlesBatchesSmallerThanPool) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("loop boom");
                        }),
      std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForRunsConsecutiveBatches) {
  util::ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(ChunkedReduce, VisitsEveryIndexInOrder) {
  // The chunk structure and merge order are fixed, so the merged list of
  // visited indices must come out exactly ordered — for any pool.
  util::ThreadPool pool(4);
  for (const std::size_t grain : {1u, 3u, 8u, 100u}) {
    const auto visited = util::chunked_reduce(
        &pool, 37, grain, [] { return std::vector<std::size_t>(); },
        [](std::vector<std::size_t>& acc, std::size_t i) { acc.push_back(i); },
        [](std::vector<std::size_t>& into, std::vector<std::size_t>& from) {
          into.insert(into.end(), from.begin(), from.end());
        });
    ASSERT_EQ(visited.size(), 37u) << "grain " << grain;
    for (std::size_t i = 0; i < visited.size(); ++i)
      ASSERT_EQ(visited[i], i) << "grain " << grain;
  }
}

TEST(ChunkedReduce, FloatSumBitwiseIdenticalForAnyWorkerCount) {
  // The whole point of the fixed reduction tree: non-associative FP sums
  // still come out bitwise equal, serial or parallel, any pool size.
  const auto term = [](std::size_t i) {
    return 1.0 / (1.0 + static_cast<double>(i) * 0.7);
  };
  const auto sum_with = [&](util::ThreadPool* pool) {
    return util::chunked_reduce(
        pool, 1000, 16, [] { return 0.0; },
        [&](double& acc, std::size_t i) { acc += term(i); },
        [](double& into, const double& from) { into += from; });
  };
  const double serial = sum_with(nullptr);
  for (const int workers : {1, 2, 3, 8}) {
    util::ThreadPool pool(workers);
    EXPECT_EQ(sum_with(&pool), serial) << workers << " workers";
  }
}

TEST(ChunkedReduce, EmptyRangeReturnsTheIdentity) {
  util::ThreadPool pool(2);
  const double empty = util::chunked_reduce(
      &pool, 0, 8, [] { return -1.5; },
      [](double& acc, std::size_t) { acc += 1.0; },
      [](double& into, const double& from) { into += from; });
  EXPECT_EQ(empty, -1.5);
}

TEST(ChunkedReduce, ZeroGrainIsTreatedAsOne) {
  const auto count = util::chunked_reduce(
      nullptr, 5, 0, [] { return 0; },
      [](int& acc, std::size_t) { ++acc; },
      [](int& into, const int& from) { into += from; });
  EXPECT_EQ(count, 5);
}

TEST(ThreadPool, SubmitFromOwnWorkerIsRejected) {
  // A worker enqueueing into its own pool and blocking on the result is the
  // nested-submission deadlock ROADMAP flags; the pool must refuse at the
  // source instead of hanging.
  util::ThreadPool pool(2);
  auto outer = pool.submit([&pool]() -> bool {
    EXPECT_TRUE(pool.inside_worker());
    try {
      (void)pool.submit([] { return 1; });
    } catch (const std::logic_error&) {
      return true;  // rejected, as required.
    }
    return false;
  });
  EXPECT_TRUE(outer.get());
  EXPECT_FALSE(pool.inside_worker());  // the test thread is not a worker.
}

TEST(ThreadPool, SubmitToADifferentPoolFromAWorkerIsAllowed) {
  util::ThreadPool pool(1);
  util::ThreadPool other(1);
  auto outer = pool.submit(
      [&other] { return other.submit([] { return 7; }).get(); });
  EXPECT_EQ(outer.get(), 7);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithFullCoverage) {
  // parallel_for from inside a worker degrades to an inline loop: same
  // coverage, no queue interaction, no deadlock.
  util::ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) {
      hits[i * kInner + j].fetch_add(1);
    });
  });
  for (std::size_t k = 0; k < hits.size(); ++k)
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  util::ThreadPool& a = util::ThreadPool::shared();
  util::ThreadPool& b = util::ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(ParseThreadCount, UnsetOrEmptyKeepsHardwareConcurrency) {
  EXPECT_EQ(util::parse_thread_count(nullptr), 0);
  EXPECT_EQ(util::parse_thread_count(""), 0);
}

TEST(ParseThreadCount, AcceptsTheWholeRange) {
  EXPECT_EQ(util::parse_thread_count("1"), 1);
  EXPECT_EQ(util::parse_thread_count("8"), 8);
  EXPECT_EQ(util::parse_thread_count("1024"), 1024);
}

TEST(ParseThreadCount, RejectsAnythingElseNamingTheValue) {
  // Garbage, trailing junk, signs, spaces, zero, past the range and past
  // int: each throws instead of quietly picking a width.
  for (const char* bad : {"abc", "4abc", "4 ", " 4", "+4", "0", "-3", "1025",
                          "2147483648", "99999999999999999999", "0x10",
                          "2.5"}) {
    try {
      (void)util::parse_thread_count(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("COCKTAIL_THREADS"), std::string::npos)
          << message;
      EXPECT_NE(message.find(std::string("\"") + bad + "\""),
                std::string::npos)
          << message;
    }
  }
}

// --- the annotated mutex/condvar wrappers (util/mutex.h) -------------------

TEST(Mutex, TryLockReportsContention) {
  util::Mutex mutex;
  {
    const util::MutexLock lock(mutex);
    std::thread outsider([&] { EXPECT_FALSE(mutex.try_lock()); });
    outsider.join();
  }
  // Released by the scope above; the same thread can now take it.
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(Mutex, MutexLockUnlockRelockWindowReleasesTheCapability) {
  // The Unlock()/Lock() window is what lets the serve dispatcher run a
  // batch without holding queue_mutex_; prove another thread can enter
  // the window and its writes are visible after relock.
  util::Mutex mutex;
  int guarded = 0;  // test-local; guarded by `mutex` by convention
  util::MutexLock lock(mutex);
  guarded = 1;
  lock.Unlock();
  std::thread visitor([&] {
    const util::MutexLock inner(mutex);
    EXPECT_EQ(guarded, 1);
    guarded = 2;
  });
  visitor.join();
  lock.Lock();
  EXPECT_EQ(guarded, 2);
}

TEST(CondVar, PredicateWaitSeesNotifiedState) {
  util::Mutex mutex;
  util::CondVar cv;
  bool ready = false;  // guarded by `mutex` by convention
  std::thread producer([&] {
    {
      const util::MutexLock lock(mutex);
      ready = true;
    }
    cv.notify_one();
  });
  {
    util::MutexLock lock(mutex);
    cv.wait(lock, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVar, WaitForTimesOutWhenNothingNotifies) {
  util::Mutex mutex;
  util::CondVar cv;
  util::MutexLock lock(mutex);
  const bool satisfied = cv.wait_for(lock, std::chrono::milliseconds(5),
                                     [] { return false; });
  EXPECT_FALSE(satisfied);
}

}  // namespace
}  // namespace cocktail
