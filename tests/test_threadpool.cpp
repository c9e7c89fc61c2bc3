// Tests for common/threadpool.hpp.
#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace shep {
namespace {

// The destructor drains the queue: every submitted task runs before the
// workers exit, so scoping the pool is a join.
TEST(ThreadPool, DestructorRunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, IdlePoolDestructsPromptly) {
  { ThreadPool pool(2); }  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 1; wave <= 5; ++wave) {
    ParallelFor(&pool, 20, [&counter](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 20 * wave);
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(),
              [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WorksWithoutPool) {
  std::vector<int> hits(50, 0);
  ParallelFor(nullptr, hits.size(), [&hits](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

// Regression: a throwing body used to escape WorkerLoop and
// std::terminate the process.  The first exception of the batch must
// surface at the join instead, and the pool must stay fully usable
// afterwards.
TEST(ParallelFor, RethrowsTaskExceptionAtJoin) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [&ran](std::size_t i) {
                    ran.fetch_add(1);
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // Iterations claimed after the failure are abandoned, never half-run.
  EXPECT_LE(ran.load(), 100);

  // The pool is not wedged: a fresh batch completes on it.
  std::atomic<int> after{0};
  ParallelFor(&pool, 50, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

// The serial (inline) path propagates exceptions the same way.
TEST(ParallelFor, RethrowsTaskExceptionInline) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(nullptr, 10,
                           [&ran](std::size_t i) {
                             ran.fetch_add(1);
                             if (i == 3) throw std::logic_error("inline");
                           }),
               std::logic_error);
  EXPECT_EQ(ran.load(), 4);  // inline execution stops at the throw.
}

// Regression: ParallelFor used to join through a pool-global in-flight
// counter, so two concurrent batches each waited for the OTHER's tasks
// too.  Here batch A's iterations only finish after batch B's join has
// returned — under the old global join that is a deadlock (B's join waits
// for A's tasks, A's tasks wait for B's join); with per-batch counters it
// completes.
TEST(ParallelFor, OverlappingBatchesJoinIndependently) {
  ThreadPool pool(4);
  std::atomic<int> a_started{0};
  std::atomic<bool> release_a{false};
  std::atomic<int> a_done{0};

  std::thread runner_a([&] {
    ParallelFor(&pool, 2, [&](std::size_t) {
      a_started.fetch_add(1);
      while (!release_a.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      a_done.fetch_add(1);
    });
  });

  // Wait until batch A genuinely occupies two workers.
  while (a_started.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Batch B must come and go while A is still in flight.
  std::atomic<int> b_done{0};
  ParallelFor(&pool, 2, [&b_done](std::size_t) { b_done.fetch_add(1); });
  EXPECT_EQ(b_done.load(), 2);
  EXPECT_EQ(a_done.load(), 0);  // A is provably still running at B's join.

  release_a.store(true);
  runner_a.join();
  EXPECT_EQ(a_done.load(), 2);
}

TEST(ParallelFor, ResultsMatchSerialExecution) {
  ThreadPool pool(8);
  std::vector<double> parallel_out(512), serial_out(512);
  auto work = [](std::size_t i) {
    double acc = 0.0;
    for (int k = 1; k < 50; ++k) acc += 1.0 / (static_cast<double>(i) + k);
    return acc;
  };
  ParallelFor(&pool, parallel_out.size(),
              [&](std::size_t i) { parallel_out[i] = work(i); });
  for (std::size_t i = 0; i < serial_out.size(); ++i) {
    serial_out[i] = work(i);
  }
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelForWorker, WorkerCountMatchesHelperAndBoundsIds) {
  ThreadPool pool(4);
  EXPECT_EQ(ParallelWorkerCount(nullptr, 100), 1u);
  EXPECT_EQ(ParallelWorkerCount(&pool, 0), 1u);
  EXPECT_EQ(ParallelWorkerCount(&pool, 1), 1u);
  EXPECT_EQ(ParallelWorkerCount(&pool, 3), 3u);
  EXPECT_EQ(ParallelWorkerCount(&pool, 100), 4u);

  const std::size_t bound = ParallelWorkerCount(&pool, 64);
  std::vector<std::atomic<int>> visits(64);
  std::atomic<bool> id_in_range{true};
  ParallelForWorker(&pool, 64, [&](std::size_t worker, std::size_t i) {
    if (worker >= bound) id_in_range = false;
    ++visits[i];
  });
  EXPECT_TRUE(id_in_range.load());
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForWorker, SameWorkerIdNeverRunsConcurrently) {
  // The contract that makes per-worker scratch race-free: iterations that
  // report the same worker id are fully serialized.  Each id owns a flag;
  // observing it already set from another in-flight iteration would mean
  // two iterations shared an id concurrently.
  ThreadPool pool(4);
  const std::size_t bound = ParallelWorkerCount(&pool, 256);
  std::vector<std::atomic<int>> in_flight(bound);
  std::atomic<bool> overlap{false};
  ParallelForWorker(&pool, 256, [&](std::size_t worker, std::size_t) {
    if (in_flight[worker].fetch_add(1) != 0) overlap = true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    in_flight[worker].fetch_sub(1);
  });
  EXPECT_FALSE(overlap.load());
}

TEST(ParallelForWorker, InlineExecutionUsesWorkerZero) {
  std::vector<std::size_t> ids;
  ParallelForWorker(nullptr, 5, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(i, ids.size());
    ids.push_back(worker);
  });
  EXPECT_EQ(ids, std::vector<std::size_t>(5, 0u));
}

}  // namespace
}  // namespace shep
